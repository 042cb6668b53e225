// Deterministic checkpoint/restore (sim/snapshot.hpp).
//
// The contract under test: pausing a stepped run at any interior cycle,
// serializing it, and restoring the image into a fresh Simulator +
// SimWorkspace continues the run bit-identically - checked at every
// cycle of two short runs, and against the golden digests pinned by
// test_sim_equivalence.cpp at sampled cycles of every golden scenario.
// The image format itself is pinned byte for byte. The negative half of
// the contract matters as much: a corrupt, truncated, version-mismatched
// or wrong-configuration image must be rejected with a SnapshotError,
// and a checksum-valid mutant must either be rejected or restore into a
// run that finishes cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <random>

#include "core/runner.hpp"
#include "sim/snapshot.hpp"
#include "traffic/trace.hpp"

namespace deft {
namespace {

/// FNV-1a digest over the pre-rewrite SimResults fields; must stay in
/// sync with test_sim_equivalence.cpp (the goldens are shared).
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::uint64_t digest(const SimResults& r) {
  Digest d;
  for (const LatencySummary* l : {&r.network_latency, &r.total_latency}) {
    d.mix(l->count);
    d.mix(l->mean);
    d.mix(l->min);
    d.mix(l->max);
    d.mix(l->p50);
    d.mix(l->p95);
    d.mix(l->p99);
  }
  d.mix(r.packets_created);
  d.mix(r.packets_created_measured);
  d.mix(r.packets_delivered_measured);
  d.mix(r.packets_dropped_unroutable);
  d.mix(r.flits_ejected_in_window);
  d.mix(static_cast<std::uint64_t>(r.cycles_run));
  d.mix(static_cast<std::uint64_t>(r.measure_cycles));
  d.mix(r.deadlock_detected ? std::uint64_t{1} : 0);
  d.mix(r.drained ? std::uint64_t{1} : 0);
  for (const auto& region : r.region_vc_flits) {
    for (std::uint64_t v : region) {
      d.mix(v);
    }
  }
  for (std::uint64_t v : r.vl_channel_flits) {
    d.mix(v);
  }
  return d.value();
}

SimKnobs golden_knobs() {
  SimKnobs k;
  k.warmup = 500;
  k.measure = 1500;
  k.drain_max = 3000;
  k.seed = 7;
  return k;
}

const ExperimentContext& ctx4() {
  static const ExperimentContext ctx = ExperimentContext::reference(4);
  return ctx;
}

/// One snapshotable scenario: fresh algorithm + traffic instances per
/// run (both hold per-run stream state).
struct Scenario {
  const char* name;
  Algorithm algorithm;
  VlStrategy strategy = VlStrategy::table;
  int fault_count = 0;
  bool trace = false;
  std::uint64_t expected_digest = 0;  ///< 0 = derive from straight run
};

// The six golden configurations of test_sim_equivalence.cpp (uniform
// traffic at 0.02, golden knobs, seed 7) plus two trace-replay configs
// (cursor stream state) - digests pinned there, repeated here so a
// snapshot regression reads as "the golden digest broke".
const Scenario kScenarios[] = {
    {"deft_table", Algorithm::deft, VlStrategy::table, 0, false,
     0xaeb4ff9aedc7445eULL},
    {"deft_distance", Algorithm::deft, VlStrategy::distance, 0, false,
     0xaeb4ff9aedc7445eULL},
    {"deft_random", Algorithm::deft, VlStrategy::random, 0, false,
     0x0112fd2b81d6daf1ULL},
    {"mtr", Algorithm::mtr, VlStrategy::table, 0, false,
     0x336aabf23e3f7c66ULL},
    {"rc", Algorithm::rc, VlStrategy::table, 0, false,
     0x38e4d1328d56a047ULL},
    {"deft_table_f4", Algorithm::deft, VlStrategy::table, 4, false,
     0x9efd33fa70237ed8ULL},
    {"trace_deft_f0", Algorithm::deft, VlStrategy::table, 0, true,
     0xf03ff11403a277d5ULL},
    {"trace_mtr_f2", Algorithm::mtr, VlStrategy::table, 2, true,
     0xd48e63dd7ca05101ULL},
};

std::vector<TraceRecord> golden_trace() {
  return record_uniform_trace(ctx4().topo(), 0.03, 1500);
}

struct Run {
  std::unique_ptr<RoutingAlgorithm> algorithm;
  std::unique_ptr<TrafficGenerator> traffic;
  std::unique_ptr<Simulator> sim;
  SimWorkspace ws;
  SimStepper stepper;
};

std::unique_ptr<Run> make_run(const Scenario& s) {
  auto run = std::make_unique<Run>();
  const SimKnobs knobs = golden_knobs();
  VlFaultSet faults;
  if (s.fault_count > 0) {
    faults = grid_fault_pattern(ctx4(), s.fault_count);
  }
  run->algorithm =
      ctx4().make_algorithm(s.algorithm, faults, knobs.num_vcs, s.strategy);
  if (s.trace) {
    run->traffic = std::make_unique<TraceReplayGenerator>(golden_trace());
  } else {
    run->traffic = std::make_unique<UniformTraffic>(ctx4().topo(), 0.02);
  }
  run->sim = std::make_unique<Simulator>(ctx4().topo(), *run->algorithm,
                                         *run->traffic, knobs, faults);
  return run;
}

std::uint64_t straight_digest(const Scenario& s) {
  auto run = make_run(s);
  run->stepper.start(*run->sim, run->ws);
  run->stepper.advance();
  return digest(run->stepper.finish());
}

/// Runs to `pause`, snapshots, and returns the image (the paused run is
/// discarded - the restore must not depend on it surviving).
std::vector<std::uint8_t> snapshot_at(const Scenario& s, Cycle pause) {
  auto run = make_run(s);
  run->stepper.start(*run->sim, run->ws);
  run->stepper.advance(pause);
  return save_snapshot(run->stepper);
}

std::uint64_t resumed_digest(const Scenario& s,
                             const std::vector<std::uint8_t>& image) {
  auto run = make_run(s);
  restore_snapshot(image, *run->sim, run->stepper, run->ws);
  run->stepper.advance();
  return digest(run->stepper.finish());
}

TEST(Snapshot, RoundTripReproducesGoldenDigests) {
  // Interior pause points across all three phases (warmup ends at 500,
  // the measurement window at 2000): golden digests must survive a
  // snapshot at any of them.
  const Cycle pauses[] = {137, 500, 1250, 1999};
  for (const Scenario& s : kScenarios) {
    SCOPED_TRACE(s.name);
    const std::uint64_t expected =
        s.expected_digest != 0 ? s.expected_digest : straight_digest(s);
    for (const Cycle pause : pauses) {
      SCOPED_TRACE(pause);
      const std::vector<std::uint8_t> image = snapshot_at(s, pause);
      EXPECT_EQ(resumed_digest(s, image), expected);
    }
  }
}

/// FNV-1a-64 over a whole image (the same hash the image header carries
/// over its payload).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(Snapshot, ImageBytesArePinned) {
  // The format itself, byte for byte. A field reordered (or re-typed) in
  // both directions still round-trips, so only a pinned image notices.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 650);
  EXPECT_EQ(image.size(), 102044u);
  EXPECT_EQ(fnv1a(image.data(), image.size()), 0x649b068f928ae485ULL);
}

/// A short run (small warmup, window and drain) of `algorithm`, with an
/// optional fault timeline that must outlive it.
std::unique_ptr<Run> make_short_run(Algorithm algorithm,
                                    const FaultTimeline* timeline) {
  auto run = std::make_unique<Run>();
  SimKnobs knobs;
  knobs.warmup = 100;
  knobs.measure = 200;
  knobs.drain_max = 400;
  knobs.seed = 11;
  run->algorithm = ctx4().make_algorithm(algorithm, {}, knobs.num_vcs,
                                         VlStrategy::table);
  run->traffic = std::make_unique<UniformTraffic>(ctx4().topo(), 0.04);
  run->sim = std::make_unique<Simulator>(ctx4().topo(), *run->algorithm,
                                         *run->traffic, knobs, VlFaultSet{},
                                         timeline, InFlightPolicy::reroute);
  return run;
}

TEST(Snapshot, EveryCycleRestoresInLockStep) {
  // The round trip at every cycle boundary, not at sampled pause points:
  // image(c) restored into a fresh run and advanced one cycle must equal
  // the straight run's image(c + 1). Both runs saturate, so every plane
  // is busy. RC covers the permission units; the DeFT run fails two VL
  // channels and repairs one inside the window, so the surgeon's cursor,
  // fault set and window metrics move and in-flight packets are lost.
  const Topology& topo = ctx4().topo();
  FaultTimeline faults;
  faults.add_transient(topo.vl(2).down_vl_channel(), 150, 260);
  faults.add_fail(180, topo.vl(5).up_vl_channel());
  using Case = std::pair<Algorithm, const FaultTimeline*>;
  for (const auto& [algorithm, timeline] :
       {Case{Algorithm::rc, nullptr}, Case{Algorithm::deft, &faults}}) {
    SCOPED_TRACE(algorithm_name(algorithm));
    auto straight = make_short_run(algorithm, timeline);
    straight->stepper.start(*straight->sim, straight->ws);
    // images[c] is the image at cycle c; start() leaves cycle 0 savable.
    std::vector<std::vector<std::uint8_t>> images;
    images.push_back(save_snapshot(straight->stepper));
    do {
      straight->stepper.advance(straight->stepper.now() + 1);
      images.push_back(save_snapshot(straight->stepper));
    } while (!straight->stepper.done());
    ASSERT_GT(images.size(), 300u);
    for (std::size_t c = 0; c + 1 < images.size(); ++c) {
      auto run = make_short_run(algorithm, timeline);
      restore_snapshot(images[c], *run->sim, run->stepper, run->ws);
      run->stepper.advance(static_cast<Cycle>(c) + 1);
      ASSERT_EQ(save_snapshot(run->stepper), images[c + 1]) << "cycle " << c;
    }
    if (timeline != nullptr) {
      EXPECT_GT(straight->stepper.finish().packets_lost, 0u);
    }
  }
}

/// `image` with a fresh header (length and checksum) over its payload, so
/// a mutated payload reaches field decoding instead of the checksum.
std::vector<std::uint8_t> reframe(std::vector<std::uint8_t> image) {
  constexpr std::size_t kHeader = 28;  // magic, version, length, checksum
  const std::uint64_t len = image.size() - kHeader;
  const std::uint64_t sum = fnv1a(image.data() + kHeader, len);
  for (int i = 0; i < 8; ++i) {
    image[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
    image[20 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  }
  return image;
}

TEST(Snapshot, FaultSetWordsAreRangeChecked) {
  // The surgeon's fault set is stored as its word count, then its words.
  // A count that does not fit the topology, or a bit past its last VL
  // channel, is rejected.
  const Scenario& s = kScenarios[5];  // deft_table_f4
  ASSERT_EQ(ctx4().topo().num_vl_channels(), 32);
  const VlFaultSet faults = grid_fault_pattern(ctx4(), s.fault_count);
  const std::vector<std::uint8_t> image = snapshot_at(s, 650);
  std::vector<std::uint8_t> encoded(16, 0);  // count 1, then the word
  encoded[0] = 1;
  for (std::size_t i = 0; i < 8; ++i) {
    encoded[8 + i] = static_cast<std::uint8_t>(faults.word(0) >> (8 * i));
  }
  const auto at =
      std::search(image.begin(), image.end(), encoded.begin(), encoded.end());
  ASSERT_NE(at, image.end());
  ASSERT_EQ(std::search(at + 1, image.end(), encoded.begin(), encoded.end()),
            image.end());
  const auto offset = static_cast<std::size_t>(at - image.begin());
  const auto restore = [&s](std::vector<std::uint8_t> mutant) {
    auto run = make_run(s);
    restore_snapshot(reframe(std::move(mutant)), *run->sim, run->stepper,
                     run->ws);
  };
  std::vector<std::uint8_t> past_last = image;
  past_last[offset + 8 + 4] |= 0x01;  // channel 32, one past the last
  EXPECT_THROW(restore(past_last), SnapshotError);
  std::vector<std::uint8_t> two_words = image;
  two_words[offset] = 2;
  EXPECT_THROW(restore(two_words), SnapshotError);
  EXPECT_NO_THROW(restore(image));
}

TEST(Snapshot, MutatedImagesAreRejectedOrRunCleanly) {
  // A checksum-valid image is not a trusted one. Every mutant must either
  // be rejected with a SnapshotError or restore into a run that finishes
  // cleanly (the sanitizer job turns any stray index into a failure) and
  // re-saves to the mutant byte for byte (nothing decoded was dropped or
  // normalized away).
  std::mt19937_64 rng(0x5eed);
  int rejected = 0;
  int accepted = 0;
  for (const Scenario& s : {kScenarios[0], kScenarios[4], kScenarios[7]}) {
    SCOPED_TRACE(s.name);
    const std::vector<std::uint8_t> image = snapshot_at(s, 777);
    for (int m = 0; m < 110; ++m) {
      std::vector<std::uint8_t> mutant = image;
      if (m % 11 == 10) {  // truncation
        mutant.resize(28 + rng() % (image.size() - 28));
      } else {  // one byte set to a different value
        const std::size_t at = 28 + rng() % (image.size() - 28);
        mutant[at] = static_cast<std::uint8_t>(
            mutant[at] + 1 + rng() % 255);
      }
      mutant = reframe(std::move(mutant));
      SCOPED_TRACE(m);
      auto run = make_run(s);
      try {
        restore_snapshot(mutant, *run->sim, run->stepper, run->ws);
      } catch (const SnapshotError&) {
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_EQ(save_snapshot(run->stepper), mutant);
      EXPECT_NO_THROW({
        run->stepper.advance();
        run->stepper.finish();
      });
    }
  }
  // Both outcomes occur: the corpus is neither all header damage nor all
  // harmless counters.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

TEST(Snapshot, RestoredRunResumesAtThePausedCycle) {
  const Scenario& s = kScenarios[0];
  const std::vector<std::uint8_t> image = snapshot_at(s, 1250);
  auto run = make_run(s);
  restore_snapshot(image, *run->sim, run->stepper, run->ws);
  EXPECT_EQ(run->stepper.now(), 1250);
  EXPECT_FALSE(run->stepper.done());
}

TEST(Snapshot, SaveAfterRestoreIsByteIdentical) {
  // Stronger than digest equality: re-serializing a restored run must
  // reproduce the image byte for byte (no state is lost or reordered by
  // a round trip).
  for (const Scenario& s : {kScenarios[2], kScenarios[4], kScenarios[6]}) {
    SCOPED_TRACE(s.name);
    const std::vector<std::uint8_t> image = snapshot_at(s, 777);
    auto run = make_run(s);
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    EXPECT_EQ(save_snapshot(run->stepper), image);
  }
}

TEST(Snapshot, RepeatedSnapshotsAlongOneRunAgree) {
  // Snapshot-restore-snapshot-restore along one run: each leg must land
  // on the same final digest (checkpoints compose).
  const Scenario& s = kScenarios[5];
  const std::vector<std::uint8_t> first = snapshot_at(s, 400);
  auto mid = make_run(s);
  restore_snapshot(first, *mid->sim, mid->stepper, mid->ws);
  mid->stepper.advance(1600);
  const std::vector<std::uint8_t> second = save_snapshot(mid->stepper);
  EXPECT_EQ(resumed_digest(s, second), s.expected_digest);
}

TEST(Snapshot, RestoredRunsMatchShardedExecution) {
  // The stepper is always serial, and the sharded core pins its results
  // to the serial loop's bit for bit, so a serial snapshot resumes a
  // sharded run exactly. Assert the whole chain: restore at two interior
  // cycles, finish, and match the digest of shard-2 and shard-4 runs of
  // the same configuration directly.
  const Scenario& s = kScenarios[5];
  const VlFaultSet faults = grid_fault_pattern(ctx4(), s.fault_count);
  for (const Cycle pause : {Cycle{650}, Cycle{1111}}) {
    SCOPED_TRACE(pause);
    const std::uint64_t resumed =
        resumed_digest(s, snapshot_at(s, pause));
    for (int shards : {2, 4}) {
      SCOPED_TRACE(shards);
      SimKnobs knobs = golden_knobs();
      knobs.shards = shards;
      UniformTraffic traffic(ctx4().topo(), 0.02);
      const SimResults sharded = run_sim(ctx4(), s.algorithm, traffic,
                                         knobs, faults, s.strategy);
      EXPECT_EQ(digest(sharded), resumed);
    }
  }
}

TEST(Snapshot, CounterRngStreamStateRoundTrips) {
  // Counter mode adds per-NI route-stream draw counters to the image
  // (format v2): a mid-run restore must resume every NI's stream at the
  // exact draw it was paused on. deft_random is the one configuration
  // that consumes those streams, and its counter-mode golden is pinned
  // by test_sim_sharded.cpp - the digest must survive the round trip.
  const Scenario& s = kScenarios[2];
  ASSERT_STREQ(s.name, "deft_random");
  SimKnobs knobs = golden_knobs();
  knobs.rng_mode = RngMode::counter;
  // (`Run` unqualified inside a TEST body names testing::Test::Run.)
  using SnapshotRun = deft::Run;
  const auto make = [&] {
    auto run = std::make_unique<SnapshotRun>();
    run->algorithm =
        ctx4().make_algorithm(s.algorithm, {}, knobs.num_vcs, s.strategy);
    run->traffic = std::make_unique<UniformTraffic>(ctx4().topo(), 0.02);
    run->sim = std::make_unique<Simulator>(ctx4().topo(), *run->algorithm,
                                           *run->traffic, knobs, VlFaultSet{});
    return run;
  };
  auto straight = make();
  straight->stepper.start(*straight->sim, straight->ws);
  straight->stepper.advance();
  const std::uint64_t expected = digest(straight->stepper.finish());
  EXPECT_EQ(expected, 0x0df1a74aafdcf75bULL);

  for (const Cycle pause : {Cycle{137}, Cycle{1250}}) {
    SCOPED_TRACE(pause);
    auto paused = make();
    paused->stepper.start(*paused->sim, paused->ws);
    paused->stepper.advance(pause);
    const std::vector<std::uint8_t> image = save_snapshot(paused->stepper);
    auto resumed = make();
    restore_snapshot(image, *resumed->sim, resumed->stepper, resumed->ws);
    resumed->stepper.advance();
    EXPECT_EQ(digest(resumed->stepper.finish()), expected);
  }

  // rng_mode is part of the configuration fingerprint: the serial-mode
  // image of the same scenario is a different run and must be rejected.
  const std::vector<std::uint8_t> serial_image = snapshot_at(s, 600);
  auto counter_run = make();
  EXPECT_THROW(restore_snapshot(serial_image, *counter_run->sim,
                                counter_run->stepper, counter_run->ws),
               SnapshotError);
}

TEST(Snapshot, TruncatedImageIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image.resize(image.size() - 7);
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, HeaderOnlyPrefixIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image.resize(11);
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, CorruptPayloadIsRejectedByChecksum) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image[image.size() / 2] ^= 0x40;
  auto run = make_run(kScenarios[0]);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    FAIL() << "corrupt image restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(Snapshot, BadMagicIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image[0] = 'X';
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, UnsupportedVersionIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  auto run = make_run(kScenarios[0]);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    FAIL() << "version-mismatched image restored";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Snapshot, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  image.push_back(0xab);
  auto run = make_run(kScenarios[0]);
  EXPECT_THROW(
      restore_snapshot(image, *run->sim, run->stepper, run->ws),
      SnapshotError);
}

TEST(Snapshot, WrongConfigurationIsRejected) {
  // A deft_table image must not restore into an MTR run (or any other
  // configuration): the fingerprint names both sides in the diagnostic.
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 600);
  auto run = make_run(kScenarios[3]);
  try {
    restore_snapshot(image, *run->sim, run->stepper, run->ws);
    FAIL() << "cross-configuration image restored";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DeFT"), std::string::npos) << what;
    EXPECT_NE(what.find("MTR"), std::string::npos) << what;
  }
}

TEST(Snapshot, UnstartedStepperCannotBeSaved) {
  SimStepper idle;
  EXPECT_THROW(save_snapshot(idle), SnapshotError);
}

TEST(Snapshot, FileRoundTripPreservesTheImage) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "deft_snapshot_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "run.ckpt";
  const std::vector<std::uint8_t> image = snapshot_at(kScenarios[0], 900);
  write_snapshot_file(path, image);
  EXPECT_EQ(read_snapshot_file(path), image);
  // Overwrite goes through the same temp + rename path.
  const std::vector<std::uint8_t> later = snapshot_at(kScenarios[0], 1500);
  write_snapshot_file(path, later);
  EXPECT_EQ(read_snapshot_file(path), later);
  EXPECT_THROW(read_snapshot_file(dir / "missing.ckpt"), SnapshotError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace deft
