// Batched short-run executor: keeps up to `batch_size` scenario
// workspaces resident on ONE thread and round-robins cycle chunks across
// them through SimStepper, so a sweep worker grinding through
// thousands of ~1k-cycle runs keeps its hot planes (PacketTable, router
// SoA lanes, RC units) cache-warm across scenario boundaries instead of
// re-faulting them per run.
//
// Determinism contract: every run is driven by its own stepper, and a
// stepped run is bit-identical to an unstepped Simulator::run by
// construction (see SimStepper) - so batched results equal one-at-a-time
// results for any batch size or chunk width. Only wall clock changes.
// tests/test_batch_runner.cpp pins this; docs/throughput.md explains when
// batching pays and how it relates to sharding (the two do not compose:
// a BatchRunner is strictly single-threaded, parallelism comes from
// running one BatchRunner per pool worker).
//
// Scheduling: slots admit jobs in order; when a run finishes (drained,
// deadlocked, or budget-exhausted) its slot immediately admits the next
// unstarted job, so ragged batches - runs ending at different cycles -
// keep every slot busy until the job list is exhausted.
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"

namespace deft {

/// One scenario for a BatchRunner. The topology, timeline and the pointees
/// behind `algorithm`/`traffic` must outlive the run() call; the owning
/// pointers are left intact afterwards so callers that pool algorithm
/// instances can reclaim them.
struct BatchJob {
  const Topology* topo = nullptr;
  std::unique_ptr<RoutingAlgorithm> algorithm;
  std::unique_ptr<TrafficGenerator> traffic;
  SimKnobs knobs;
  VlFaultSet faults;
  const FaultTimeline* timeline = nullptr;
  InFlightPolicy policy = InFlightPolicy::drop;
};

/// Per-job result of a batched run.
struct BatchOutcome {
  /// Valid when `error` is null. Copied out of the slot workspace (the
  /// workspace is immediately reused for the next admitted job).
  SimResults results;
  /// Wall-clock seconds this job's own advance() chunks consumed - the
  /// batched analogue of timing one Simulator::run, excluding time spent
  /// interleaved into other slots.
  double seconds = 0.0;
  /// Crash isolation: anything the job's prologue or cycles threw. The
  /// slot is reset and reused; other jobs are unaffected.
  std::exception_ptr error;
};

class BatchRunner {
 public:
  /// `batch_size` in [1, kMaxBatchSize] resident runs; `chunk_cycles` is
  /// the round-robin quantum (cycles per slot per visit). Neither affects
  /// results. The workspaces are allocated once and stay resident across
  /// run() calls, so a long-lived BatchRunner amortizes them the way a
  /// sweep worker amortizes its single workspace.
  explicit BatchRunner(int batch_size, Cycle chunk_cycles = 256);

  int batch_size() const { return batch_size_; }

  /// Executes every job, interleaved `batch_size` at a time, and returns
  /// outcomes indexed like `jobs`. Strictly single-threaded.
  std::vector<BatchOutcome> run(std::vector<BatchJob>& jobs);

 private:
  struct Slot {
    std::optional<Simulator> sim;
    SimStepper stepper;
    std::size_t job = 0;
    bool active = false;
  };

  int batch_size_;
  Cycle chunk_cycles_;
  std::vector<SimWorkspace> workspaces_;
  std::vector<Slot> slots_;
};

}  // namespace deft
