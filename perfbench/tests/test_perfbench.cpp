// Tests of the benchmark's own machinery: the statistics every workload
// reports, span self time, and the tracing decorators' transparency.
#include <gtest/gtest.h>

#include <numeric>

#include "core/runner.hpp"
#include "digest.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traffic/app_profiles.hpp"

namespace perfbench {
namespace {

using namespace deft;

// Expected values computed with Python's statistics.quantiles(d, n=4),
// which is what an external checker of the benchmark's spreads uses.
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  const auto check = [](std::vector<double> d, double q1, double q2,
                        double q3) {
    const Quartiles q = quartiles(d);
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q2, q2);
    EXPECT_DOUBLE_EQ(q.q3, q3);
  };
  check({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
  check({3.5, 1.25, 9.0}, 1.25, 3.5, 9.0);
  check({5, 1}, 0.0, 3.0, 6.0);
  check({2, 8, 4, 6, 10, 12, 1}, 2.0, 6.0, 10.0);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  Tail t = tail_percentile(v);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  v.pop_back();  // 999 samples: p99 would have only 9 beyond
  t = tail_percentile(v);
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 950.0);
  EXPECT_EQ(t.beyond, 49u);

  EXPECT_TRUE(t.estimated);

  // Too few samples for any rung: no tail, the median stands in.
  t = tail_percentile({3, 1, 2, 10});
  EXPECT_FALSE(t.estimated);
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 2.5);
  EXPECT_EQ(t.samples, 4u);
}

TEST(Stats, NearestRankPercentile) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 0), 1.0);
}

TEST(Stats, SelfTimeSubtractsTheUnionOfChildren) {
  EXPECT_EQ(self_time({0, 100}, {}), 100);
  // Overlapping (parallel) children count once.
  EXPECT_EQ(self_time({0, 100}, {{10, 40}, {20, 50}}), 60);
  // Disjoint children.
  EXPECT_EQ(self_time({0, 100}, {{10, 20}, {30, 40}}), 80);
  // Only the part inside the parent counts.
  EXPECT_EQ(self_time({0, 100}, {{-50, 10}, {90, 200}}), 80);
  // Fully covered parent.
  EXPECT_EQ(self_time({0, 100}, {{0, 60}, {50, 100}}), 0);
}

TEST(Tracer, SpansAndSelfTime) {
  Tracer tracer;
  const int parent = tracer.begin("outer");
  const int child = tracer.begin("inner", parent);
  tracer.end(child);
  tracer.end(parent);
  EXPECT_EQ(tracer.count("outer"), 1u);
  EXPECT_EQ(tracer.count("inner"), 1u);
  EXPECT_EQ(tracer.self_ns("outer"),
            tracer.total_ns("outer") - tracer.total_ns("inner"));
}

std::uint64_t digest_of(const SimResults& r) {
  Digest d;
  d.add(r);
  return d.value();
}

SimKnobs short_knobs() {
  SimKnobs knobs;
  knobs.warmup = 200;
  knobs.measure = 600;
  knobs.drain_max = 3000;
  knobs.seed = 11;
  return knobs;
}

/// Runs one simulation, with or without the counting decorators.
SimResults run(const ExperimentContext& ctx, Algorithm alg,
               VlStrategy strategy, TrafficGenerator& traffic,
               const SimKnobs& knobs, bool decorated,
               const VlFaultSet& faults = {},
               const FaultTimeline* timeline = nullptr) {
  const auto algorithm =
      ctx.make_algorithm(alg, faults, knobs.num_vcs, strategy);
  if (!decorated) {
    Simulator sim(ctx.topo(), *algorithm, traffic, knobs, faults, timeline);
    return sim.run();
  }
  CountingRouting routing(*algorithm);
  CountingTraffic counted(traffic);
  Simulator sim(ctx.topo(), routing, counted, knobs, faults, timeline);
  return sim.run();
}

TEST(Decorators, SerialResultsAreBitIdentical) {
  const ExperimentContext ctx = ExperimentContext::reference(4, 5);
  for (const Algorithm alg : {Algorithm::deft, Algorithm::mtr,
                              Algorithm::rc}) {
    // The random VL strategy consumes the algorithm's RNG stream.
    const VlStrategy strategy =
        alg == Algorithm::deft ? VlStrategy::random : VlStrategy::table;
    const auto a = make_traffic(ctx.topo(), "uniform", 0.01);
    const auto b = make_traffic(ctx.topo(), "uniform", 0.01);
    reset_counters();
    const SimResults plain =
        run(ctx, alg, strategy, *a, short_knobs(), false);
    const SimResults decorated =
        run(ctx, alg, strategy, *b, short_knobs(), true);
    EXPECT_EQ(digest_of(plain), digest_of(decorated)) << algorithm_name(alg);
    const CallCounters c = sum_counters();
    EXPECT_GT(c.route_calls, 0u);
    EXPECT_GT(c.prepare_calls, 0u);
    EXPECT_GT(c.next_injection_calls, 0u);
  }
}

TEST(Decorators, PollingTrafficAndFaultTimelineAreBitIdentical) {
  const ExperimentContext ctx = ExperimentContext::reference(4, 5);
  const auto assign = [&](const char* code) {
    AppAssignment a{profile_by_code(code), {}};
    for (int c = 0; c < 4; ++c) {
      const auto& nodes = ctx.topo().chiplet_nodes(c);
      a.cores.insert(a.cores.end(), nodes.begin(), nodes.end());
    }
    return std::vector<AppAssignment>{a};
  };
  AppTrafficGenerator a(ctx.topo(), assign("BL"), 1.0);
  AppTrafficGenerator b(ctx.topo(), assign("BL"), 1.0);
  FaultTimeline timeline;
  timeline.add_transient(0, 300, 500);
  timeline.add_fail(350, 5);
  reset_counters();
  const SimResults plain = run(ctx, Algorithm::deft, VlStrategy::table, a,
                               short_knobs(), false, {}, &timeline);
  const SimResults decorated = run(ctx, Algorithm::deft, VlStrategy::table,
                                   b, short_knobs(), true, {}, &timeline);
  EXPECT_EQ(digest_of(plain), digest_of(decorated));
  const CallCounters c = sum_counters();
  EXPECT_GT(c.tick_calls, 0u);
  EXPECT_EQ(c.set_faults_calls, 3u);
}

TEST(Decorators, TwoShardCounterModeIsBitIdentical) {
  // Counter mode moves prepare_packet onto the shard threads as well as
  // route(), so the per-thread counters are exercised concurrently.
  const ExperimentContext ctx(make_grid_spec(4, 4, 4, 4), 9);
  SimKnobs knobs = short_knobs();
  knobs.rng_mode = RngMode::counter;
  const auto a = make_traffic(ctx.topo(), "uniform", 0.01);
  const auto b = make_traffic(ctx.topo(), "uniform", 0.01);
  const auto c = make_traffic(ctx.topo(), "uniform", 0.01);
  const SimResults serial =
      run(ctx, Algorithm::deft, VlStrategy::random, *a, knobs, false);
  knobs.shards = 2;
  const SimResults sharded =
      run(ctx, Algorithm::deft, VlStrategy::random, *b, knobs, false);
  reset_counters();
  const SimResults decorated =
      run(ctx, Algorithm::deft, VlStrategy::random, *c, knobs, true);
  EXPECT_EQ(digest_of(serial), digest_of(sharded));
  EXPECT_EQ(digest_of(sharded), digest_of(decorated));
  const CallCounters counts = sum_counters();
  EXPECT_GT(counts.route_calls, 0u);
  EXPECT_GT(counts.prepare_calls, 0u);
}

}  // namespace
}  // namespace perfbench
