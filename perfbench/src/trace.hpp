// Tracing for the benchmark's traced run: in-memory spans recorded around
// the benchmark's own calls into each layer, per-thread call counters,
// and forwarding decorators that count and time every RoutingAlgorithm
// and TrafficGenerator call. Nothing here touches the library's sources;
// the decorators sit between the simulator and the real objects.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "routing/routing.hpp"
#include "traffic/patterns.hpp"

namespace perfbench {

/// steady_clock nanoseconds since an arbitrary epoch.
std::int64_t now_ns();
/// User + system CPU seconds of the whole process.
double process_cpu_s();
/// Peak resident set size of this process image, in MiB.
double peak_rss_mb();

/// One span: name, interval, parent span id (-1 for a root) and the id of
/// the run or request it belongs to.
struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::string run;
};

/// Thread-safe in-memory span store. Spans are written out only when the
/// benchmark exits (write_json), never during a measured interval.
class Tracer {
 public:
  /// Opens a span now and returns its id.
  int begin(std::string name, int parent = -1, std::string run = {});
  /// Closes span `id` now.
  void end(int id);

  std::vector<Span> spans() const;
  /// Sum of the durations of every span called `name`, in ns.
  std::int64_t total_ns(const std::string& name) const;
  /// Number of spans called `name`.
  std::size_t count(const std::string& name) const;
  /// Sum of the self times (duration minus children's covered time) of
  /// every span called `name`, in ns.
  std::int64_t self_ns(const std::string& name) const;
  /// Durations of every span called `name`, in ns.
  std::vector<double> durations_ns(const std::string& name) const;

  void write_json(const std::filesystem::path& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1,
             std::string run = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// Call counts and busy time of the decorated layers. One block per
/// thread: route() and, with rng_mode = counter, prepare_packet() run on
/// shard worker threads, so a shared counter would race.
struct CallCounters {
  std::uint64_t route_calls = 0;
  std::uint64_t route_ns = 0;
  std::uint64_t prepare_calls = 0;
  std::uint64_t prepare_ns = 0;
  std::uint64_t set_faults_calls = 0;
  std::uint64_t set_faults_ns = 0;
  std::uint64_t tick_calls = 0;
  std::uint64_t next_injection_calls = 0;
  std::uint64_t traffic_ns = 0;

  CallCounters& operator+=(const CallCounters& o);
};

/// The calling thread's counter block (registered on first use).
CallCounters& thread_counters();
/// Sum over every thread's block. Call only while no decorated call is in
/// flight (after the run that used them returned).
CallCounters sum_counters();
/// Zeroes every thread's block (same precondition as sum_counters).
void reset_counters();

/// Forwarding RoutingAlgorithm decorator: every call goes to `inner`
/// unchanged, so results are bit-identical; prepare_packet, route and
/// set_faults are counted and timed into the calling thread's block.
class CountingRouting final : public deft::RoutingAlgorithm {
 public:
  explicit CountingRouting(deft::RoutingAlgorithm& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  int num_vcs() const override { return inner_.num_vcs(); }
  bool prepare_packet(deft::PacketRoute& route,
                      deft::CounterRng* stream) override;
  deft::RouteDecision route(deft::NodeId node, deft::Port in_port, int in_vc,
                            const deft::PacketRoute& route,
                            const deft::RouterView& view) const override;
  bool uses_router_view() const override { return inner_.uses_router_view(); }
  bool route_needs_view(deft::NodeId node, deft::Port in_port,
                        const deft::PacketRoute& route) const override {
    return inner_.route_needs_view(node, in_port, route);
  }
  void set_faults(const deft::VlFaultSet& faults) override;
  bool hop_viable(deft::NodeId node, deft::Port in_port,
                  const deft::PacketRoute& rt) const override {
    return inner_.hop_viable(node, in_port, rt);
  }
  bool pair_reachable(deft::NodeId src, deft::NodeId dst) const override {
    return inner_.pair_reachable(src, dst);
  }
  std::uint64_t pair_combo_mask(deft::NodeId src,
                                deft::NodeId dst) const override {
    return inner_.pair_combo_mask(src, dst);
  }
  void save_stream_state(std::vector<std::uint64_t>& out) const override {
    inner_.save_stream_state(out);
  }
  void load_stream_state(const std::vector<std::uint64_t>& in,
                         std::size_t& cursor) override {
    inner_.load_stream_state(in, cursor);
  }

 private:
  deft::RoutingAlgorithm& inner_;
};

/// Forwarding TrafficGenerator decorator counting and timing tick() and
/// next_injection().
class CountingTraffic final : public deft::TrafficGenerator {
 public:
  explicit CountingTraffic(deft::TrafficGenerator& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  void tick(deft::NodeId src, deft::Cycle cycle, deft::Rng& rng,
            std::vector<deft::PacketRequest>& out) override;
  bool supports_lookahead() const override {
    return inner_.supports_lookahead();
  }
  deft::Cycle next_injection(deft::NodeId src, deft::Cycle from,
                             deft::Cycle limit, deft::Rng& rng,
                             std::vector<deft::PacketRequest>& out) override;
  void save_stream_state(std::vector<std::uint64_t>& out) const override {
    inner_.save_stream_state(out);
  }
  void load_stream_state(const std::vector<std::uint64_t>& in,
                         std::size_t& cursor) override {
    inner_.load_stream_state(in, cursor);
  }

 private:
  deft::TrafficGenerator& inner_;
};

}  // namespace perfbench
