// deft_sim: the command-line simulation driver (the Noxim-equivalent
// front door of the library).
//
//   $ ./deft_sim config.cfg              # run a configuration file
//   $ ./deft_sim                         # built-in default configuration
//   $ ./deft_sim --shards 4 config.cfg   # partitioned core on 4 threads
//   $ ./deft_sim --dump-default > a.cfg  # start from a template
//
// The configuration format is documented in src/core/config_file.hpp.
// `--shards N` overrides the config's `shards` key: it is parsed as one
// more `shards = N` line after the configuration's own, so it gets the
// same range check (results are bit-identical for every shard count).
// When the configuration sets `perf_json`, the run is timed (`repeats`
// wall-clock repeats, best taken) and a perf-matrix-style JSON entry is
// written alongside the normal report.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/config_file.hpp"
#include "topology/builder.hpp"

namespace {

constexpr const char* kDefaultConfig = R"(# deft_sim configuration
chiplets   = 4          # 4 or 6 (the paper's reference systems)
algorithm  = deft       # deft | mtr | rc
vl_strategy = table     # table | distance | random (DeFT only)
traffic    = uniform    # uniform | localized | hotspot | transpose |
                        # bit-complement | trace (see trace_file below)
rate       = 0.008      # packets/cycle/core
vcs        = 2
buffer_depth = 4
packet_size  = 8
vl_serialization = 1    # >1 models serialized (narrower) vertical links
warmup     = 10000
measure    = 30000
drain_max  = 100000
seed       = 1
shards     = 1          # worker threads of the partitioned core
faults     =            # e.g.: 0v 3^ 12v  (<vl>v = down half, <vl>^ = up)
fault_events =          # mid-run events, e.g.: 15000:2v 25000:2v:repair
fault_policy = drop     # drop | reroute (in-flight packets on a fail event)
trace_file =            # traffic = trace: replay this `cycle src dst app` file
trace_cycles =          # ... or record a uniform workload over N cycles
scenario   =            # perf hook: scenario key (default: derived)
repeats    =            # perf hook: wall-clock repeats (default 3)
perf_json  =            # perf hook: write a perf-matrix JSON entry here
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace deft;
  const char* config_path = nullptr;
  std::string shards_line;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-default") == 0) {
      std::fputs(kDefaultConfig, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards_line = std::string("shards = ") + argv[++i] + "\n";
      continue;
    }
    config_path = argv[i];
  }

  SimulationConfig config;
  try {
    std::string text = kDefaultConfig;
    if (config_path != nullptr) {
      std::ifstream file(config_path);
      require(file.good(), std::string("cannot open ") + config_path);
      std::ostringstream contents;
      contents << file.rdbuf();
      text = contents.str();
    }
    config = parse_simulation_config(text + "\n" + shards_line);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const ExperimentContext ctx(make_reference_spec(config.chiplets),
                              config.knobs.seed);
  const Topology& topo = ctx.topo();
  const VlFaultSet faults = config.faults(topo);
  FaultTimeline timeline;
  try {
    timeline = config.fault_events(topo);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const FaultTimeline* timeline_ptr = timeline.empty() ? nullptr : &timeline;
  std::printf("deft_sim: %d chiplets, %s routing (%s VL selection), %s "
              "traffic @ %.4f pkt/cyc/core",
              config.chiplets, algorithm_name(config.algorithm),
              vl_strategy_name(config.vl_strategy), config.traffic.c_str(),
              config.rate);
  if (config.knobs.shards > 1) {
    std::printf(", %d shards", config.knobs.shards);
  }
  if (!faults.empty()) {
    std::printf(", faults %s", faults.to_string().c_str());
  }
  if (timeline_ptr != nullptr) {
    std::printf(", %zu fault events (policy %s)", timeline.size(),
                in_flight_policy_name(config.fault_policy));
  }
  std::puts("");

  // Perf hook: repeat the run (fresh traffic each repeat - replay
  // cursors and RNG draws are consumed) and keep the fastest repeat;
  // results are identical across repeats, so `r` reports the last.
  const int repeats = config.perf_json.empty() ? 1 : config.repeats;
  SimResults r;
  double best_seconds = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto traffic = config.make_traffic(topo);
    const auto t0 = std::chrono::steady_clock::now();
    r = run_sim(ctx, config.algorithm, *traffic, config.knobs, faults,
                config.vl_strategy, timeline_ptr, config.fault_policy);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || seconds < best_seconds) {
      best_seconds = seconds;
    }
  }

  if (!config.perf_json.empty()) {
    // The key lands inside a JSON string literal: drop the two
    // characters that could break out of it.
    std::string key = config.scenario_key(topo);
    std::erase_if(key, [](char c) { return c == '"' || c == '\\'; });
    FILE* out = std::fopen(config.perf_json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   config.perf_json.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\n  \"bench\": \"deft-sim\",\n"
        "  \"config\": {\"repeats\": %d, \"shards\": %d},\n"
        "  \"points\": [\n"
        "    {\"scenario\": \"%s\", \"core\": \"active_set\", "
        "\"outcome\": \"%s\", \"drained\": %s, "
        "\"cycles\": %lld, \"flit_hops\": %llu, \"seconds\": %.6f, "
        "\"cycles_per_sec\": %.0f, \"flit_hops_per_sec\": %.0f}\n"
        "  ],\n  \"speedup\": {}\n}\n",
        repeats, config.knobs.shards, key.c_str(),
        run_outcome_name(r.outcome), r.drained ? "true" : "false",
        static_cast<long long>(r.cycles_run),
        static_cast<unsigned long long>(r.flit_hops), best_seconds,
        static_cast<double>(r.cycles_run) / best_seconds,
        static_cast<double>(r.flit_hops) / best_seconds);
    std::fclose(out);
    std::printf("perf: %s -> %s (%.0f cycles/s best of %d)\n", key.c_str(),
                config.perf_json.c_str(),
                static_cast<double>(r.cycles_run) / best_seconds, repeats);
  }

  std::printf("cycles simulated:     %lld\n",
              static_cast<long long>(r.cycles_run));
  std::printf("packets measured:     %llu created, %llu delivered\n",
              static_cast<unsigned long long>(r.packets_created_measured),
              static_cast<unsigned long long>(r.packets_delivered_measured));
  std::printf("unroutable packets:   %llu\n",
              static_cast<unsigned long long>(r.packets_dropped_unroutable));
  if (timeline_ptr != nullptr || !faults.empty()) {
    std::printf("fault window:         %llu lost, %.4f delivery ratio",
                static_cast<unsigned long long>(r.packets_lost),
                r.fault_window_delivery_ratio());
    if (r.reconvergence_latency >= 0) {
      std::printf(", reconverged in %lld cycles",
                  static_cast<long long>(r.reconvergence_latency));
    }
    std::puts("");
  }
  std::printf("network latency:      %.2f avg / %.1f p50 / %.1f p95 / %.0f "
              "max (cycles)\n",
              r.network_latency.mean, r.network_latency.p50,
              r.network_latency.p95, r.network_latency.max);
  std::printf("end-to-end latency:   %.2f avg (cycles)\n",
              r.total_latency.mean);
  std::printf("throughput:           %.4f flits/cycle/endpoint\n",
              r.throughput(static_cast<int>(topo.endpoints().size())));
  for (int region = 0; region <= topo.num_chiplets(); ++region) {
    std::printf("VC utilization %-9s",
                region == topo.num_chiplets()
                    ? "intrpsr:"
                    : ("chip-" + std::to_string(region) + ":").c_str());
    for (int vc = 0; vc < config.knobs.num_vcs; ++vc) {
      std::printf(" %5.1f%%", 100.0 * r.vc_utilization(region, vc));
    }
    std::puts("");
  }
  std::printf("status:               %s%s\n", r.drained ? "drained" : "not drained (saturated)",
              r.deadlock_detected ? ", DEADLOCK DETECTED" : "");
  return r.deadlock_detected ? 2 : 0;
}
