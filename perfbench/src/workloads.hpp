// The benchmark's three workloads and what they report.
//
// Each workload builds its inputs from the seed, sets up (timed, several
// times), then repeats a fixed round of work until --seconds have passed
// and reports medians over rounds. With --trace 1 it instead runs one
// untraced round and one traced round, checks that both produce the same
// result digest, and reports the per-layer metrics plus the tracing
// overhead. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Seed whose result digests are pinned in the workload sources. Any other
/// seed is checked against invariants instead (README.md: seed 2 is the
/// one held out from tuning the workloads).
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// SweepRunner pool width / campaign workers / closed-loop clients;
  /// main() sets it from hardware_concurrency.
  int threads = 4;
  /// Scratch directory for the campaign spool, journal and checkpoints
  /// and for the trace file.
  std::filesystem::path workdir;
};

/// One reported number. `samples` is how many measurements it summarizes
/// (0 for a count or a deterministic value); `note` says how it was
/// obtained, or why a workload cannot measure it from outside the program.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// Everything a workload hands back to main().
struct Outcome {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// End-to-end figures that only some workloads have (printed, not part
  /// of the machine-readable result; README.md explains why).
  std::vector<Metric> extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable lines: generated mix shares, digests, mismatches.
  std::vector<std::string> notes;
};

/// Counts operations and mismatches against the oracle.
class Checker {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a mismatch (counted in `failed`) when !ok.
  void expect(bool ok, const std::string& what, std::uint64_t weight = 1);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The per-layer metric list every traced run reports, in order, with its
/// units; values start at 0 with a note saying the workload leaves that
/// layer idle. Workloads overwrite the ones they exercise.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value, std::size_t samples = 0,
           std::string note = {});
  void note(const std::string& name, std::string note);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  Metric& find(const std::string& name);
  std::vector<Metric> metrics_;
};

/// Fills the layer metrics that come from the decorator counters.
void set_call_metrics(LayerMetrics& layers, const CallCounters& c);

/// A metric that is the median of per-round (or per-run) values; its note
/// ends with their quartiles, so the report shows the spread inside a run.
Metric over_rounds(std::string name, const std::vector<double>& values,
                   std::string unit, std::string note);

/// How a tail value was obtained: "p99, 12 samples beyond", or why no
/// tail could be estimated.
std::string tail_note(const Tail& tail);

/// Mixes the workload seed into an independent 64-bit stream value.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Number of repeated set-ups whose median is reported as setup_s.
inline constexpr int kSetupRepeats = 3;

Outcome run_paper_figs(const Options& options);
Outcome run_campaign(const Options& options);
Outcome run_grid_sharded(const Options& options);

}  // namespace perfbench
