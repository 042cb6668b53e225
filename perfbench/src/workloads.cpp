#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

void Checker::expect(bool ok, const std::string& what, std::uint64_t weight) {
  if (ok) {
    return;
  }
  failed_ += weight;
  if (messages_.size() < 20) {
    messages_.push_back("MISMATCH: " + what);
  }
}

namespace {
constexpr const char* kIdle = "layer idle in this workload";
}  // namespace

LayerMetrics::LayerMetrics() {
  const std::pair<const char*, const char*> names[] = {
      {"vlsel.tables_built", "count"},
      {"vlsel.tables_s", "s"},
      {"routing.mtr_plan_s", "s"},
      {"routing.make_algorithm_calls", "count"},
      {"routing.make_algorithm_ms", "ms"},
      {"routing.route_calls", "count"},
      {"routing.route_ns", "ns"},
      {"routing.prepare_calls", "count"},
      {"routing.prepare_ns", "ns"},
      {"fault.set_faults_calls", "count"},
      {"fault.set_faults_us", "us"},
      {"fault.packets_lost", "count"},
      {"traffic.next_injection_calls", "count"},
      {"traffic.tick_calls", "count"},
      {"traffic.call_ns", "ns"},
      {"sim.runs", "count"},
      {"sim.cycles", "count"},
      {"sim.flit_hops", "count"},
      {"sim.packets_delivered", "count"},
      {"sim.start_us", "us"},
      {"sim.finish_us", "us"},
      {"sim.advance_self_s", "s"},
      {"sim.ns_per_flit_hop", "ns"},
      {"sim.ns_per_cycle", "ns"},
      {"sim.run_ms_p50", "ms"},
      {"sim.run_ms_p99", "ms"},
      {"snapshot.save_us", "us"},
      {"snapshot.restore_us", "us"},
      {"snapshot.bytes", "bytes"},
      {"core.pool_busy_frac", "ratio"},
      {"core.tail_s", "s"},
      {"core.sweep_self_s", "s"},
      {"core.reach_patterns", "count"},
      {"core.reach_ns_per_pattern", "ns"},
      {"core.shard_cpu_per_wall", "ratio"},
      {"service.validate_us", "us"},
      {"service.cache_context_hits", "count"},
      {"service.cache_context_misses", "count"},
      {"service.cache_algorithm_hits", "count"},
      {"service.cache_algorithm_misses", "count"},
      {"service.pass_ms", "ms"},
      {"service.sim_share", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : names) {
    metrics_.push_back(Metric{name, 0.0, unit, 0, kIdle});
  }
}

Metric& LayerMetrics::find(const std::string& name) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      return m;
    }
  }
  throw std::logic_error("unknown layer metric " + name);
}

void LayerMetrics::set(const std::string& name, double value,
                       std::size_t samples, std::string note) {
  Metric& m = find(name);
  m.value = value;
  m.samples = samples;
  m.note = std::move(note);
}

void LayerMetrics::note(const std::string& name, std::string note) {
  find(name).note = std::move(note);
}

void set_call_metrics(LayerMetrics& layers, const CallCounters& c) {
  const auto per_call = [](std::uint64_t ns, std::uint64_t calls) {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  };
  layers.set("routing.route_calls", static_cast<double>(c.route_calls));
  layers.set("routing.route_ns", per_call(c.route_ns, c.route_calls),
             c.route_calls, "mean per call, decorator-timed");
  layers.set("routing.prepare_calls", static_cast<double>(c.prepare_calls));
  layers.set("routing.prepare_ns", per_call(c.prepare_ns, c.prepare_calls),
             c.prepare_calls, "mean per call, decorator-timed");
  layers.set("fault.set_faults_calls",
             static_cast<double>(c.set_faults_calls));
  layers.set("fault.set_faults_us",
             per_call(c.set_faults_ns, c.set_faults_calls) / 1e3,
             c.set_faults_calls, "mean per call, decorator-timed");
  layers.set("traffic.next_injection_calls",
             static_cast<double>(c.next_injection_calls));
  layers.set("traffic.tick_calls", static_cast<double>(c.tick_calls));
  layers.set("traffic.call_ns",
             per_call(c.traffic_ns, c.tick_calls + c.next_injection_calls),
             c.tick_calls + c.next_injection_calls,
             "mean per tick/next_injection call");
}

Metric over_rounds(std::string name, const std::vector<double>& values,
                   std::string unit, std::string note) {
  const Quartiles q = quartiles(values);
  char buf[96];
  std::snprintf(buf, sizeof buf, " [quartiles %.6g .. %.6g]", q.q1, q.q3);
  return Metric{std::move(name), median(values), std::move(unit),
                values.size(), std::move(note) + buf};
}

std::string tail_note(const Tail& tail) {
  if (!tail.estimated) {
    return "no percentile has 10 of " + std::to_string(tail.samples) +
           " samples beyond it; the median stands in";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%d, %zu samples beyond",
                static_cast<int>(tail.percentile), tail.beyond);
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return deft::split_mix64(state);
}

}  // namespace perfbench
