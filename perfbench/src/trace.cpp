#include "trace.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "stats.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image. getrusage's
  // ru_maxrss is not: Linux carries it across exec, so a benchmark started
  // from a larger parent (run.py's Python) would report the parent's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Tracer::begin(std::string name, int parent, std::string run) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), t, t, parent, std::move(run)});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::int64_t Tracer::total_ns(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

std::size_t Tracer::count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Span& s : spans_) {
    n += s.name == name ? 1 : 0;
  }
  return n;
}

std::int64_t Tracer::self_ns(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          Interval{s.start, s.end});
    }
  }
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      sum += self_time(Interval{spans_[i].start, spans_[i].end},
                       std::move(children[i]));
    }
  }
  return sum;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return out;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
        << ", \"parent\": " << s.parent << ", \"run\": \"" << s.run << "\"}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int parent,
                       std::string run)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->begin(std::move(name), parent, std::move(run));
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) {
    tracer_->end(id_);
  }
}

CallCounters& CallCounters::operator+=(const CallCounters& o) {
  route_calls += o.route_calls;
  route_ns += o.route_ns;
  prepare_calls += o.prepare_calls;
  prepare_ns += o.prepare_ns;
  set_faults_calls += o.set_faults_calls;
  set_faults_ns += o.set_faults_ns;
  tick_calls += o.tick_calls;
  next_injection_calls += o.next_injection_calls;
  traffic_ns += o.traffic_ns;
  return *this;
}

namespace {

struct CounterRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<CallCounters>> blocks;  // guarded by mu
};

CounterRegistry& registry() {
  static CounterRegistry r;
  return r;
}

}  // namespace

CallCounters& thread_counters() {
  thread_local CallCounters* block = nullptr;
  if (block == nullptr) {
    CounterRegistry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.blocks.push_back(std::make_unique<CallCounters>());
    block = r.blocks.back().get();
  }
  return *block;
}

CallCounters sum_counters() {
  CounterRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  CallCounters sum;
  for (const auto& b : r.blocks) {
    sum += *b;
  }
  return sum;
}

void reset_counters() {
  CounterRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.blocks) {
    *b = CallCounters{};
  }
}

bool CountingRouting::prepare_packet(deft::PacketRoute& route,
                                     deft::CounterRng* stream) {
  const std::int64_t t0 = now_ns();
  const bool ok = inner_.prepare_packet(route, stream);
  CallCounters& c = thread_counters();
  ++c.prepare_calls;
  c.prepare_ns += static_cast<std::uint64_t>(now_ns() - t0);
  return ok;
}

deft::RouteDecision CountingRouting::route(deft::NodeId node,
                                           deft::Port in_port, int in_vc,
                                           const deft::PacketRoute& route,
                                           const deft::RouterView& view) const {
  const std::int64_t t0 = now_ns();
  const deft::RouteDecision d = inner_.route(node, in_port, in_vc, route, view);
  CallCounters& c = thread_counters();
  ++c.route_calls;
  c.route_ns += static_cast<std::uint64_t>(now_ns() - t0);
  return d;
}

void CountingRouting::set_faults(const deft::VlFaultSet& faults) {
  const std::int64_t t0 = now_ns();
  inner_.set_faults(faults);
  CallCounters& c = thread_counters();
  ++c.set_faults_calls;
  c.set_faults_ns += static_cast<std::uint64_t>(now_ns() - t0);
}

void CountingTraffic::tick(deft::NodeId src, deft::Cycle cycle,
                           deft::Rng& rng,
                           std::vector<deft::PacketRequest>& out) {
  const std::int64_t t0 = now_ns();
  inner_.tick(src, cycle, rng, out);
  CallCounters& c = thread_counters();
  ++c.tick_calls;
  c.traffic_ns += static_cast<std::uint64_t>(now_ns() - t0);
}

deft::Cycle CountingTraffic::next_injection(
    deft::NodeId src, deft::Cycle from, deft::Cycle limit, deft::Rng& rng,
    std::vector<deft::PacketRequest>& out) {
  const std::int64_t t0 = now_ns();
  const deft::Cycle next = inner_.next_injection(src, from, limit, rng, out);
  CallCounters& c = thread_counters();
  ++c.next_injection_calls;
  c.traffic_ns += static_cast<std::uint64_t>(now_ns() - t0);
  return next;
}

}  // namespace perfbench
