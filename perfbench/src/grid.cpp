// grid_sharded: repeated long runs on the 256-chiplet, 8192-router grid
// with DeFT (distance VL selection), rng_mode = counter and two shards.
// It is the only workload in which the partitioned core (Partition,
// TwoShardSync, per-shard RC delivery) does work, and it has no service,
// reachability or VL-table work.
#include <memory>

#include "core/runner.hpp"
#include "digest.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace deft;

/// Result digest of one run at kDefaultSeed.
constexpr std::uint64_t kPinnedDigest = 0x90c1411700f1130dULL;

constexpr double kRate = 0.005;

SimKnobs grid_knobs(std::uint64_t seed) {
  SimKnobs knobs;
  knobs.warmup = 200;
  knobs.measure = 600;
  knobs.drain_max = 4000;
  knobs.shards = 2;
  knobs.rng_mode = RngMode::counter;
  knobs.seed = derive_seed(seed, 1);
  return knobs;
}

struct Setup {
  std::unique_ptr<ExperimentContext> ctx;
  std::unique_ptr<SimWorkspace> ws;
};

/// Context plus a workspace warmed by a few serial cycles, so the timed
/// runs find every per-router buffer allocated and faulted in. The warm-up
/// is serial and short because a sharded one made set-up time as noisy as
/// the runs themselves; the shard pool spawns in the first timed run.
Setup set_up(std::uint64_t seed) {
  Setup s;
  s.ctx = std::make_unique<ExperimentContext>(make_grid_spec(16, 16, 4, 4),
                                              derive_seed(seed, 256));
  s.ws = std::make_unique<SimWorkspace>();
  SimKnobs warm = grid_knobs(seed);
  warm.warmup = 10;
  warm.measure = 10;
  warm.drain_max = 100;
  warm.shards = 1;
  const auto traffic = make_traffic(s.ctx->topo(), "uniform", kRate);
  run_sim(*s.ws, *s.ctx, Algorithm::deft, *traffic, warm, {},
          VlStrategy::distance);
  return s;
}

struct Run {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  SimResults results;
  std::uint64_t digest = 0;
};

Run run_once(const Setup& s, std::uint64_t seed, Tracer* tracer) {
  Run run;
  const SimKnobs knobs = grid_knobs(seed);
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const auto traffic = make_traffic(s.ctx->topo(), "uniform", kRate);
  if (tracer == nullptr) {
    run.results = run_sim(*s.ws, *s.ctx, Algorithm::deft, *traffic, knobs, {},
                          VlStrategy::distance);
  } else {
    std::unique_ptr<RoutingAlgorithm> alg;
    {
      const ScopedSpan span(tracer, "routing.make_algorithm");
      alg = s.ctx->make_algorithm(Algorithm::deft, {}, knobs.num_vcs,
                                  VlStrategy::distance);
    }
    CountingRouting routing(*alg);
    CountingTraffic counted(*traffic);
    Simulator sim(s.ctx->topo(), routing, counted, knobs);
    const ScopedSpan span(tracer, "sim.run");
    run.results = sim.run(*s.ws);
  }
  run.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  run.cpu_s = process_cpu_s() - cpu0;
  Digest d;
  d.add(run.results);
  run.digest = d.value();
  return run;
}

void check_run(const Run& run, const Run& first, bool pinned,
               Checker& checker) {
  checker.attempt();
  const SimResults& r = run.results;
  checker.expect(run.digest == first.digest, "run differs from run 0");
  checker.expect(r.packets_dropped_unroutable == 0 && !r.deadlock_detected &&
                     r.drained,
                 "DeFT dropped, deadlocked or did not drain on the grid");
  if (pinned) {
    checker.expect(run.digest == kPinnedDigest,
                   "grid_sharded digest " + hex64(run.digest) +
                       " != pinned " + hex64(kPinnedDigest));
  }
}

}  // namespace

Outcome run_grid_sharded(const Options& options) {
  Outcome out;
  Checker checker;
  const bool pinned = options.seed == kDefaultSeed;
  if (options.trace) {
    Tracer tracer;
    const Setup s = set_up(options.seed);
    const Run plain = run_once(s, options.seed, nullptr);
    reset_counters();
    const Run traced = run_once(s, options.seed, &tracer);
    check_run(plain, plain, pinned, checker);
    check_run(traced, plain, pinned, checker);
    out.notes.push_back("untraced digest " + hex64(plain.digest) +
                        ", traced digest " + hex64(traced.digest) +
                        (plain.digest == traced.digest ? " (identical)"
                                                       : " (DIFFERENT)"));
    LayerMetrics layers;
    const CallCounters calls = sum_counters();
    set_call_metrics(layers, calls);
    const SimResults& r = traced.results;
    layers.set("routing.make_algorithm_calls", 1);
    layers.set("routing.make_algorithm_ms",
               static_cast<double>(tracer.total_ns("routing.make_algorithm")) *
                   1e-6,
               1);
    layers.set("sim.runs", 1);
    layers.set("sim.cycles", static_cast<double>(r.cycles_run));
    layers.set("sim.flit_hops", static_cast<double>(r.flit_hops));
    layers.set("sim.packets_delivered",
               static_cast<double>(r.packets_delivered_measured));
    layers.note("sim.start_us",
                "not measurable: a sharded run has no SimStepper "
                "(the stepper is serial only)");
    layers.note("sim.finish_us", "not measurable: as sim.start_us");
    const double run_ns = static_cast<double>(tracer.total_ns("sim.run"));
    const double call_ns = static_cast<double>(
        calls.route_ns + calls.prepare_ns + calls.traffic_ns);
    layers.set("sim.advance_self_s",
               traced.cpu_s - call_ns * 1e-9, 1,
               "sharded: process CPU of the run minus decorated calls "
               "(both shards)");
    layers.set("sim.ns_per_flit_hop",
               static_cast<double>(plain.wall_s) * 1e9 /
                   static_cast<double>(r.flit_hops),
               1, "untraced run wall per flit hop");
    layers.set("sim.ns_per_cycle",
               static_cast<double>(plain.wall_s) * 1e9 /
                   static_cast<double>(r.cycles_run),
               1, "untraced run wall per cycle");
    layers.set("sim.run_ms_p50", plain.wall_s * 1e3, 1, "one untraced run");
    layers.set("sim.run_ms_p99", plain.wall_s * 1e3, 1,
               "one untraced run (max of 1)");
    layers.set("core.shard_cpu_per_wall", plain.cpu_s / plain.wall_s, 1,
               "untraced: process CPU / wall during the run");
    layers.set("trace.overhead_frac", run_ns * 1e-9 / plain.wall_s - 1.0, 1,
               "traced run wall / untraced run wall - 1");
    out.metrics = layers.all();
    tracer.write_json(options.workdir / "trace_grid_sharded.json");
  } else {
    std::vector<double> setups;
    Setup s;
    // Set-up is cheap here, so it is repeated more often than elsewhere
    // for a steadier median.
    for (int rep = 0; rep < 2 * kSetupRepeats - 1; ++rep) {
      const std::int64_t s0 = now_ns();
      s = set_up(options.seed);
      setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    }
    std::vector<Run> runs;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    while (runs.size() < 3 || now_ns() < deadline) {
      runs.push_back(run_once(s, options.seed, nullptr));
      check_run(runs.back(), runs.front(), pinned, checker);
    }
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> ms;
    std::vector<double> cycles_per_s;
    std::vector<double> runs_per_s;
    std::vector<double> hops_per_s;
    std::vector<double> cpu_per_wall;
    for (const Run& r : runs) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      ms.push_back(r.wall_s * 1e3);
      cycles_per_s.push_back(static_cast<double>(r.results.cycles_run) /
                             r.wall_s);
      runs_per_s.push_back(1.0 / r.wall_s);
      hops_per_s.push_back(static_cast<double>(r.results.flit_hops) /
                           r.wall_s);
      cpu_per_wall.push_back(r.cpu_s / r.wall_s);
    }
    const SimResults& r = runs.front().results;
    const Tail tail = tail_percentile(ms);
    out.metrics = {
        over_rounds("setup_s", setups, "s",
                    "grid context plus a short warm-up of the workspace"),
        over_rounds("wall_s", wall, "s", "one run"),
        over_rounds("cpu_s", cpu, "s", "process user+sys per run"),
        {"peak_rss_mb", peak_rss_mb(), "MB", 1, "process peak RSS"},
        over_rounds("sim_cycles_per_s", cycles_per_s, "1/s",
                    "simulated cycles per host second"),
        over_rounds("runs_per_s", runs_per_s, "1/s", "runs per second"),
        {"row_p99_ms", tail.value, "ms", ms.size(),
         "host time of one run, " + tail_note(tail)},
    };
    out.extra = {
        over_rounds("row_p50_ms", ms, "ms", "host time of one run"),
        {"sim_latency_cycles", r.total_latency.mean, "cycles", 0,
         "simulated: mean total latency of measured packets "
         "(deterministic)"},
        over_rounds("flit_hops_per_s", hops_per_s, "1/s",
                    "committed flit movements per host second"),
        over_rounds("shard_cpu_per_wall", cpu_per_wall, "ratio",
                    "process CPU per wall second during a run")};
    out.notes.push_back("run digest " + hex64(runs.front().digest) + ", " +
                        std::to_string(runs.size()) + " runs of " +
                        std::to_string(r.cycles_run) + " cycles");
  }
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.notes.insert(out.notes.end(), checker.messages().begin(),
                   checker.messages().end());
  return out;
}

}  // namespace perfbench
