// paper_figs: the Fig. 4, 6, 7 and 8 sweeps, shortened, as one round.
//
// Every figure sub-plot is one call into the SweepRunner pool, made the way
// the bench/ figure drivers make it and in their order. The Fig. 4 and 8
// grids go through SweepRunner::run, in grid order. Fig. 6 and Fig. 7 fan
// out with parallel_map (run_sim per point; ReachabilityAnalyzer::sweep
// per point), as bench_fig6 and bench_fig7 do; those are the rows whose
// host time the benchmark can take, so row_p99_ms covers them only.
//
// The traced round cannot decorate what SweepRunner::run builds inside, so
// it expands the same grids (expand_grid) and runs every point itself
// through the decorators and a SimStepper. Its digest must equal the
// untraced round's, which also checks that copy of SweepRunner::run's
// steps against the real one.
#include <algorithm>
#include <atomic>
#include <memory>

#include "core/experiment.hpp"
#include "core/reachability.hpp"
#include "digest.hpp"
#include "stats.hpp"
#include "traffic/app_profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace deft;

/// Result digest of round 0 at kDefaultSeed.
constexpr std::uint64_t kPinnedDigest = 0x007d566a161d7de4ULL;

/// Shortened version of bench_util.hpp's bench_knobs() (2000/6000/12000):
/// the same warmup/measure/drain structure at a third of the length, so a
/// whole round takes seconds. Saturated points still run to the drain cap.
SimKnobs figure_knobs() {
  SimKnobs knobs;
  knobs.warmup = 700;
  knobs.measure = 2000;
  knobs.drain_max = 4000;
  return knobs;
}

struct SimJob {
  const ExperimentContext* ctx = nullptr;
  Algorithm algorithm = Algorithm::deft;
  VlStrategy strategy = VlStrategy::table;
  std::string pattern;             ///< synthetic pattern, or empty for apps
  double rate = 0.0;               ///< injection rate or app rate scale
  std::vector<AppAssignment> apps;  ///< PARSEC profiles (Fig. 6)
  VlFaultSet faults;
  const FaultTimeline* timeline = nullptr;
  InFlightPolicy policy = InFlightPolicy::drop;
  std::uint64_t sim_seed = 1;
  /// A lightly loaded single-application run (Fig. 6a), whose latency
  /// sim_latency_cycles reports.
  bool light_load = false;
};

struct ReachJob {
  const ExperimentContext* ctx = nullptr;
  Algorithm algorithm = Algorithm::deft;
  int faults = 1;
};

/// One call into the pool: a figure sub-plot.
struct Call {
  std::string name;
  /// Fig. 4/8: the grid the untraced round hands to SweepRunner::run.
  /// `sims` then holds its expanded points, in grid order, for the traced
  /// round and the per-row checks.
  const ExperimentContext* grid_ctx = nullptr;
  ExperimentGrid grid;
  std::vector<SimJob> sims;
  std::vector<ReachJob> reach;
};

struct Row {
  bool is_reach = false;
  bool timed = false;  ///< start/end hold the row's host time
  SimResults sim;
  ReachabilitySweepPoint reach;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct Contexts {
  std::unique_ptr<ExperimentContext> ctx4;
  std::unique_ptr<ExperimentContext> ctx6;
};

/// Context seed of both systems: the bench drivers' default. The design
/// (VL tables, fault patterns) and the grids' per-point seeds, which
/// expand_grid derives from the context seed, stay fixed. The workload seed
/// draws the traffic of the Fig. 6 runs. With seed-drawn designs or sweep
/// seeds, points near saturation drained or not depending on the seed, and
/// the work in a round, with wall_s, spread 12-14% across seeds against 3%
/// for one seed.
constexpr std::uint64_t kDesignSeed = 42;

/// Builds both reference systems and their design-time artifacts.
Contexts set_up(Tracer* tracer) {
  Contexts c;
  c.ctx4 = std::make_unique<ExperimentContext>(
      ExperimentContext::reference(4, kDesignSeed));
  c.ctx6 = std::make_unique<ExperimentContext>(
      ExperimentContext::reference(6, kDesignSeed));
  {
    const ScopedSpan span(tracer, "vlsel.tables");
    c.ctx4->vl_tables();
    c.ctx6->vl_tables();
  }
  {
    const ScopedSpan span(tracer, "routing.mtr_plan");
    c.ctx4->mtr_plan();
    c.ctx6->mtr_plan();
  }
  return c;
}

AppAssignment assign(const Topology& topo, const char* code,
                     const std::vector<int>& chiplets) {
  AppAssignment a{profile_by_code(code), {}};
  for (const int c : chiplets) {
    const auto& nodes = topo.chiplet_nodes(c);
    a.cores.insert(a.cores.end(), nodes.begin(), nodes.end());
  }
  return a;
}

struct Plan {
  std::vector<Call> calls;
  FaultTimeline fail_only;
  FaultTimeline fail_repair;
};

void set_grid(Call& call, const ExperimentContext& ctx,
              const ExperimentGrid& grid) {
  call.grid_ctx = &ctx;
  call.grid = grid;
  for (const ExperimentPoint& p : expand_grid(ctx, grid)) {
    SimJob job;
    job.ctx = &ctx;
    job.algorithm = p.algorithm;
    job.strategy = p.vl_strategy;
    job.pattern = p.traffic_pattern;
    job.rate = p.injection_rate;
    job.faults = p.faults;
    job.timeline = p.timeline;
    job.policy = grid.in_flight_policy;
    job.sim_seed = p.sim_seed;
    call.sims.push_back(std::move(job));
  }
}

/// The figure sweeps of bench/bench_fig{4,6,7,8}*.cpp with their axes.
std::unique_ptr<Plan> make_plan(const Contexts& c, std::uint64_t seed) {
  auto plan = std::make_unique<Plan>();
  const ExperimentContext& ctx4 = *c.ctx4;
  const ExperimentContext& ctx6 = *c.ctx6;
  const std::vector<Algorithm> all = {Algorithm::deft, Algorithm::mtr,
                                      Algorithm::rc};

  const auto fig4 = [&](const char* name, const ExperimentContext& ctx,
                        const char* pattern, std::vector<double> rates) {
    Call call;
    call.name = name;
    ExperimentGrid grid;
    grid.algorithms = all;
    grid.traffic_patterns = {pattern};
    grid.injection_rates = std::move(rates);
    set_grid(call, ctx, grid);
    plan->calls.push_back(std::move(call));
  };
  const std::vector<double> rates4 = {0.002, 0.005, 0.008, 0.011, 0.014,
                                      0.017, 0.020, 0.023, 0.026};
  fig4("fig4a", ctx4, "uniform", rates4);
  fig4("fig4b", ctx4, "localized", rates4);
  fig4("fig4c", ctx4, "hotspot",
       {0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016});
  fig4("fig4d", ctx6, "uniform",
       {0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016, 0.018});

  // Fig. 6: one PARSEC application on all cores, then two applications
  // split by chiplet, with bench_fig6_realapp's rate scales.
  {
    Call single;
    single.name = "fig6a";
    const auto& profiles = parsec_profiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      for (const Algorithm alg : all) {
        SimJob job;
        job.ctx = &ctx4;
        job.algorithm = alg;
        job.rate = 1.0;
        job.apps = {assign(ctx4.topo(), profiles[i].code, {0, 1, 2, 3})};
        job.light_load = true;
        job.sim_seed = derive_seed(seed, 600 + single.sims.size());
        single.sims.push_back(std::move(job));
      }
    }
    plan->calls.push_back(std::move(single));
    Call pairs;
    pairs.name = "fig6b";
    const std::pair<const char*, const char*> combos[] = {
        {"FA", "FL"}, {"CA", "FA"}, {"FL", "DE"}, {"DE", "FA"},
        {"BO", "CA"}, {"BL", "DE"}, {"SW", "CA"}, {"ST", "FL"},
    };
    for (const auto& [a, b] : combos) {
      for (const Algorithm alg : all) {
        SimJob job;
        job.ctx = &ctx4;
        job.algorithm = alg;
        job.rate = 2.5;
        job.apps = {assign(ctx4.topo(), a, {0, 1}),
                    assign(ctx4.topo(), b, {2, 3})};
        job.sim_seed = derive_seed(seed, 700 + pairs.sims.size());
        pairs.sims.push_back(std::move(job));
      }
    }
    plan->calls.push_back(std::move(pairs));
  }

  // Fig. 7: reachability at 1..8 faulty VL channels, both systems.
  for (const ExperimentContext* ctx : {&ctx4, &ctx6}) {
    Call call;
    call.name = ctx == &ctx4 ? "fig7a" : "fig7b";
    for (int k = 1; k <= 8; ++k) {
      for (const Algorithm alg : all) {
        call.reach.push_back(ReachJob{ctx, alg, k});
      }
    }
    plan->calls.push_back(std::move(call));
  }

  // Fig. 8: DeFT's three VL-selection strategies at 4 and 8 faulty VL
  // channels (12.5% and 25%), then the online fail / fail+repair variant.
  for (const int faulty : {4, 8}) {
    Call call;
    call.name = faulty == 4 ? "fig8a" : "fig8b";
    ExperimentGrid grid;
    grid.vl_strategies = {VlStrategy::table, VlStrategy::distance,
                          VlStrategy::random};
    grid.fault_counts = {faulty};
    grid.injection_rates = {0.004, 0.008, 0.012, 0.016, 0.020, 0.024};
    set_grid(call, ctx4, grid);
    plan->calls.push_back(std::move(call));
  }
  const SimKnobs knobs = figure_knobs();
  const Cycle fail_at = knobs.warmup + knobs.measure / 3;
  const Cycle repair_at = knobs.warmup + 2 * knobs.measure / 3;
  const VlFaultSet pattern = grid_fault_pattern(ctx4, 4);
  for (const VlChannelId ch : pattern.channels()) {
    plan->fail_only.add_fail(fail_at, ch);
    plan->fail_repair.add_transient(ch, fail_at, repair_at);
  }
  for (const InFlightPolicy policy :
       {InFlightPolicy::drop, InFlightPolicy::reroute}) {
    Call call;
    call.name = policy == InFlightPolicy::drop ? "fig8_online_drop"
                                               : "fig8_online_reroute";
    ExperimentGrid grid;
    grid.injection_rates = {0.008, 0.016};
    grid.fault_timelines = {&plan->fail_only, &plan->fail_repair};
    grid.in_flight_policy = policy;
    set_grid(call, ctx4, grid);
    plan->calls.push_back(std::move(call));
  }
  return plan;
}

std::unique_ptr<TrafficGenerator> make_job_traffic(const SimJob& job) {
  if (job.apps.empty()) {
    return make_traffic(job.ctx->topo(), job.pattern, job.rate);
  }
  return std::make_unique<AppTrafficGenerator>(job.ctx->topo(), job.apps,
                                               job.rate);
}

SimResults run_job(const SimJob& job, SimWorkspace& ws, Tracer* tracer,
                   int parent) {
  SimKnobs knobs = figure_knobs();
  knobs.seed = job.sim_seed;
  const auto traffic = make_job_traffic(job);
  if (tracer == nullptr) {
    // bench_fig6's per-point call.
    return run_sim(*job.ctx, job.algorithm, *traffic, knobs);
  }
  std::unique_ptr<RoutingAlgorithm> alg;
  {
    const ScopedSpan span(tracer, "routing.make_algorithm", parent);
    alg = job.ctx->make_algorithm(job.algorithm, job.faults, knobs.num_vcs,
                                  job.strategy);
  }
  CountingRouting routing(*alg);
  CountingTraffic counted(*traffic);
  Simulator sim(job.ctx->topo(), routing, counted, knobs, job.faults,
                job.timeline, job.policy);
  SimStepper stepper;
  {
    const ScopedSpan span(tracer, "sim.start", parent);
    stepper.start(sim, ws);
  }
  {
    const ScopedSpan span(tracer, "sim.advance", parent);
    stepper.advance();
  }
  const ScopedSpan span(tracer, "sim.finish", parent);
  return stepper.finish();
}

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t rows = 0;
  std::vector<double> row_ms;  ///< host time of each timed row
  // Over the fan-outs whose rows are timed (every one in the traced round):
  double busy_s = 0.0;  ///< sum of row times
  double call_s = 0.0;  ///< sum of fan-out walls
  double tail_s = 0.0;  ///< per fan-out: end minus last row start
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> row_digests;
  // Deterministic figures (identical every round).
  double latency_sum = 0.0;  ///< total latency x packets, Fig. 6a runs
  std::uint64_t latency_packets = 0;
  std::uint64_t sim_rows = 0;
  std::uint64_t saturated = 0;  ///< rate-sweep points that did not drain
  std::uint64_t reach_patterns = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t packets_delivered = 0;
  std::vector<std::string> violations;
};

/// Runs one fan-out the way the bench drivers do, or, with a tracer, every
/// point through the decorators. Rows are in grid (or job) order.
std::vector<Row> run_call(const Call& call, const SweepRunner& runner,
                          Tracer* tracer, const std::string& run_id,
                          int call_span, Round& round) {
  std::vector<Row> rows;
  if (tracer == nullptr && call.grid_ctx != nullptr) {
    for (SweepResult& r :
         runner.run(*call.grid_ctx, call.grid, figure_knobs())) {
      Row row;
      row.sim = std::move(r.results);
      rows.push_back(std::move(row));
    }
    return rows;
  }
  // Analyzers are built per fan-out, as bench_fig7 builds them per system.
  std::vector<std::unique_ptr<ReachabilityAnalyzer>> analyzers;
  for (const ReachJob& r : call.reach) {
    analyzers.push_back(
        std::make_unique<ReachabilityAnalyzer>(*r.ctx, r.algorithm));
  }
  const std::size_t n = call.sims.size() + call.reach.size();
  std::vector<SimWorkspace> workspaces(
      static_cast<std::size_t>(runner.num_threads()));
  std::atomic<std::int64_t> last_start{0};
  const std::int64_t c0 = now_ns();
  rows = runner.parallel_map_workers<Row>(n, [&](int worker, std::size_t i) {
    Row row;
    row.timed = true;
    row.start = now_ns();
    std::int64_t prev = last_start.load();
    while (prev < row.start &&
           !last_start.compare_exchange_weak(prev, row.start)) {
    }
    const ScopedSpan point(tracer, "core.point", call_span,
                           tracer == nullptr ? std::string()
                                             : run_id + "/" + call.name +
                                                   "/" + std::to_string(i));
    if (i < call.sims.size()) {
      row.sim = run_job(call.sims[i],
                        workspaces[static_cast<std::size_t>(worker)], tracer,
                        point.id());
    } else {
      row.is_reach = true;
      const std::size_t r = i - call.sims.size();
      const ScopedSpan span(tracer, "core.reach", point.id());
      row.reach = analyzers[r]->sweep(call.reach[r].faults, 40'000, 2'500);
    }
    row.end = now_ns();
    return row;
  });
  const std::int64_t c1 = now_ns();
  round.call_s += static_cast<double>(c1 - c0) * 1e-9;
  round.tail_s += static_cast<double>(c1 - last_start.load()) * 1e-9;
  return rows;
}

Round run_round(const Plan& plan, const SweepRunner& runner, Tracer* tracer,
                const std::string& run_id) {
  Round round;
  Digest digest;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  for (const Call& call : plan.calls) {
    const ScopedSpan call_span(tracer, "core.sweep", -1,
                               run_id + "/" + call.name);
    const std::vector<Row> rows =
        run_call(call, runner, tracer, run_id, call_span.id(), round);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      Digest rd;
      if (row.timed) {
        const double ms = static_cast<double>(row.end - row.start) * 1e-6;
        round.row_ms.push_back(ms);
        round.busy_s += ms * 1e-3;
      }
      ++round.rows;
      if (row.is_reach) {
        rd.add(row.reach);
        round.reach_patterns += row.reach.patterns;
        const ReachJob& job = call.reach[i - call.sims.size()];
        if (job.algorithm == Algorithm::deft &&
            (row.reach.average != 1.0 || row.reach.worst != 1.0)) {
          round.violations.push_back(call.name + ": DeFT reachability below "
                                     "100% at " + std::to_string(job.faults) +
                                     " faults");
        }
      } else {
        const SimResults& r = row.sim;
        const SimJob& job = call.sims[i];
        rd.add(r);
        ++round.sim_rows;
        round.cycles += static_cast<std::uint64_t>(r.cycles_run);
        round.flit_hops += r.flit_hops;
        round.packets_lost += r.packets_lost;
        round.packets_delivered += r.packets_delivered_measured;
        if (job.light_load) {
          round.latency_sum +=
              r.total_latency.mean * static_cast<double>(r.total_latency.count);
          round.latency_packets += r.total_latency.count;
        }
        if ((!r.drained || r.deadlock_detected) && job.apps.empty() &&
            job.timeline == nullptr) {
          ++round.saturated;
        }
        if (job.algorithm == Algorithm::deft &&
            (r.packets_dropped_unroutable != 0 || r.deadlock_detected)) {
          round.violations.push_back(call.name + " point " +
                                     std::to_string(i) +
                                     ": DeFT dropped or deadlocked");
        }
      }
      round.row_digests.push_back(rd.value());
      digest.add(rd.value());
    }
  }
  round.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  round.cpu_s = process_cpu_s() - cpu0;
  round.digest = digest.value();
  return round;
}

/// Checks one round against round 0 (determinism), the pinned digest and
/// the invariants. Returns the number of mismatching rows.
void check_round(const Round& round, const Round& first, bool pinned,
                 Checker& checker) {
  checker.attempt(round.rows);
  for (std::size_t i = 0; i < round.row_digests.size(); ++i) {
    checker.expect(round.row_digests[i] == first.row_digests[i],
                   "row " + std::to_string(i) + " differs from round 0");
  }
  for (const std::string& v : round.violations) {
    checker.expect(false, v);
  }
  if (pinned) {
    checker.expect(round.digest == kPinnedDigest,
                   "paper_figs digest " + hex64(round.digest) +
                       " != pinned " + hex64(kPinnedDigest),
                   round.rows);
  }
}

}  // namespace

Outcome run_paper_figs(const Options& options) {
  Outcome out;
  Checker checker;
  const SweepRunner runner(options.threads);
  const bool pinned = options.seed == kDefaultSeed;

  if (options.trace) {
    Tracer tracer;
    const Contexts contexts = set_up(&tracer);
    const auto plan = make_plan(contexts, options.seed);
    const Round plain = run_round(*plan, runner, nullptr, "untraced");
    reset_counters();
    const Round traced = run_round(*plan, runner, &tracer, "traced");
    check_round(plain, plain, pinned, checker);
    check_round(traced, plain, pinned, checker);
    out.notes.push_back("untraced digest " + hex64(plain.digest) +
                        ", traced digest " + hex64(traced.digest) +
                        (plain.digest == traced.digest ? " (identical)"
                                                       : " (DIFFERENT)"));
    LayerMetrics layers;
    layers.set("vlsel.tables_built", 2);
    layers.set("vlsel.tables_s",
               static_cast<double>(tracer.total_ns("vlsel.tables")) * 1e-9, 1,
               "set-up: VL tables of both systems");
    layers.set("routing.mtr_plan_s",
               static_cast<double>(tracer.total_ns("routing.mtr_plan")) * 1e-9,
               1, "set-up: MTR plans of both systems");
    const std::size_t algs = tracer.count("routing.make_algorithm");
    layers.set("routing.make_algorithm_calls", static_cast<double>(algs));
    layers.set("routing.make_algorithm_ms",
               algs == 0 ? 0.0
                         : static_cast<double>(
                               tracer.total_ns("routing.make_algorithm")) *
                               1e-6 / static_cast<double>(algs),
               algs, "mean per call");
    const CallCounters calls = sum_counters();
    set_call_metrics(layers, calls);
    layers.set("fault.packets_lost", static_cast<double>(traced.packets_lost));
    layers.set("sim.packets_delivered",
               static_cast<double>(traced.packets_delivered));
    layers.set("sim.runs", static_cast<double>(traced.sim_rows));
    layers.set("sim.cycles", static_cast<double>(traced.cycles));
    layers.set("sim.flit_hops", static_cast<double>(traced.flit_hops));
    const std::size_t starts = tracer.count("sim.start");
    layers.set("sim.start_us",
               static_cast<double>(tracer.total_ns("sim.start")) * 1e-3 /
                   static_cast<double>(std::max<std::size_t>(1, starts)),
               starts, "mean per run");
    layers.set("sim.finish_us",
               static_cast<double>(tracer.total_ns("sim.finish")) * 1e-3 /
                   static_cast<double>(std::max<std::size_t>(1, starts)),
               starts, "mean per run");
    // advance() has no child spans; its children are the decorated calls,
    // which run on the same thread inside it, so self = span - calls.
    const double advance_ns = static_cast<double>(tracer.total_ns("sim.advance"));
    const double call_ns = static_cast<double>(calls.route_ns + calls.prepare_ns +
                                               calls.traffic_ns +
                                               calls.set_faults_ns);
    layers.set("sim.advance_self_s", (advance_ns - call_ns) * 1e-9, starts,
               "advance() spans minus decorated routing/traffic calls");
    layers.set("sim.ns_per_flit_hop",
               advance_ns / static_cast<double>(std::max<std::uint64_t>(
                                1, traced.flit_hops)),
               0, "advance() time per flit hop");
    layers.set("sim.ns_per_cycle",
               advance_ns / static_cast<double>(
                                std::max<std::uint64_t>(1, traced.cycles)),
               0, "advance() time per simulated cycle");
    std::vector<double> run_ms;
    for (const double ns : tracer.durations_ns("sim.advance")) {
      run_ms.push_back(ns * 1e-6);
    }
    const Tail tail = tail_percentile(run_ms);
    layers.set("sim.run_ms_p50", percentile(run_ms, 50), run_ms.size(),
               "advance() per run");
    layers.set("sim.run_ms_p99", tail.value, tail.samples,
               tail_note(tail));
    layers.set("core.pool_busy_frac",
               traced.busy_s / (traced.call_s * runner.num_threads()), 0,
               "traced round: row time / (pool width x fan-out wall)");
    layers.set("core.tail_s", traced.tail_s, 0,
               "traced round: per fan-out, end minus last row start");
    layers.set("core.sweep_self_s",
               static_cast<double>(tracer.self_ns("core.sweep")) * 1e-9,
               tracer.count("core.sweep"),
               "fan-out time no row covers: analyzer and workspace set-up, "
               "dispatch and join");
    const std::size_t reaches = tracer.count("core.reach");
    layers.set("core.reach_patterns", static_cast<double>(traced.reach_patterns));
    layers.set("core.reach_ns_per_pattern",
               static_cast<double>(tracer.total_ns("core.reach")) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, traced.reach_patterns)),
               reaches);
    layers.set("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, 1,
               "traced round wall / untraced round wall - 1");
    out.metrics = layers.all();
    tracer.write_json(options.workdir / "trace_paper_figs.json");
  } else {
    std::vector<double> setups;
    Contexts contexts;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const std::int64_t s0 = now_ns();
      contexts = set_up(nullptr);
      setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    }
    const auto plan = make_plan(contexts, options.seed);
    std::vector<Round> rounds;
    std::size_t row_samples = 0;
    const auto run_next = [&] {
      rounds.push_back(run_round(*plan, runner, nullptr,
                                 "round" + std::to_string(rounds.size())));
      row_samples += rounds.back().row_ms.size();
      check_round(rounds.back(), rounds.front(), pinned, checker);
    };
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    // At least 1000 timed rows (the Fig. 6 and Fig. 7 points), so
    // row_p99_ms is a true 99th percentile with 10 rows beyond it, and at
    // least three rounds for the medians.
    while (rounds.size() < 3 || row_samples < 1000) {
      run_next();
    }
    const double rss = peak_rss_mb();
    while (now_ns() < deadline) {
      run_next();
    }
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> cycles_per_s;
    std::vector<double> runs_per_s;
    std::vector<double> hops_per_s;
    std::vector<double> row_ms;
    for (const Round& r : rounds) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      cycles_per_s.push_back(static_cast<double>(r.cycles) / r.wall_s);
      runs_per_s.push_back(static_cast<double>(r.rows) / r.wall_s);
      hops_per_s.push_back(static_cast<double>(r.flit_hops) / r.wall_s);
      row_ms.insert(row_ms.end(), r.row_ms.begin(), r.row_ms.end());
    }
    const Round& first = rounds.front();
    const Tail tail = tail_percentile(row_ms);
    const std::size_t n = rounds.size();
    out.metrics = {
        over_rounds("setup_s", setups, "s",
                    "both systems: context, VL tables, MTR plan"),
        over_rounds("wall_s", wall, "s", "one round: every figure sweep"),
        over_rounds("cpu_s", cpu, "s", "process user+sys per round"),
        {"peak_rss_mb", rss, "MB", 1,
         "process peak RSS after set-up and the first 1000 timed rows"},
        over_rounds("sim_cycles_per_s", cycles_per_s, "1/s",
                    "simulated cycles per host second"),
        over_rounds("runs_per_s", runs_per_s, "1/s",
                    "result rows (simulations + Fig. 7 points) per second"),
        {"row_p99_ms", tail.value, "ms", row_ms.size(),
         "host time of one Fig. 6 or Fig. 7 row, " + tail_note(tail)},
    };
    out.extra = {
        {"row_p50_ms", percentile(row_ms, 50), "ms", row_ms.size(),
         "host time of one Fig. 6 or Fig. 7 row"},
        {"sim_latency_cycles",
         first.latency_sum / static_cast<double>(first.latency_packets),
         "cycles", 0,
         "simulated: mean total latency of measured packets of the Fig. 6a "
         "single-application runs (deterministic per seed)"},
        over_rounds("flit_hops_per_s", hops_per_s, "1/s",
                    "committed flit movements per host second")};
    out.notes.push_back(
        "mix: " + std::to_string(first.rows) + " rows per round (" +
        std::to_string(first.sim_rows) + " simulations, " +
        std::to_string(first.rows - first.sim_rows) + " Fig. 7 points; " +
        std::to_string(first.row_ms.size()) + " of them timed); " +
        std::to_string(first.saturated) + " of the synthetic-traffic points (" +
        std::to_string(100.0 * static_cast<double>(first.saturated) /
                       static_cast<double>(first.sim_rows)) +
        "% of all simulations) are past saturation");
    out.notes.push_back("round digest " + hex64(first.digest) + ", " +
                        std::to_string(n) + " rounds");
  }
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.notes.insert(out.notes.end(), checker.messages().begin(),
                   checker.messages().end());
  return out;
}

}  // namespace perfbench
