// Campaign engine: runs validated scenario requests on its own worker
// threads with per-request fault isolation, per-run budgets and the
// design-artifact cache, and hands each row back as soon as its run ends.
//
// Robustness contract (what the daemon builds on):
//  * Every submitted request comes back exactly once, as a CompletedRun in
//    completion order, with a ResultRow in a terminal outcome: ok |
//    failed | deadlocked | timeout | rejected. Nothing request-shaped
//    throws out of the engine.
//  * A std::exception escaping one request's run marks only that request
//    `failed` (with the what() string); the other runs proceed.
//  * Watchdog-tripped runs come back `deadlocked`, runs that exhaust
//    their cycle budget without draining or bust their wall-clock budget
//    come back `timeout` - both with their partial SimResults attached,
//    never as errors.
//  * run_batch is the blocking wrapper: every request's row, in input
//    order, once the slowest run is done.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/artifact_cache.hpp"
#include "service/request.hpp"
#include "sim/simulator.hpp"

namespace deft {

/// Terminal (and one flow-control) states of a campaign request.
enum class RequestOutcome : std::uint8_t {
  ok,          ///< run completed and drained inside every budget
  failed,      ///< an exception escaped the worker (isolated to this row)
  deadlocked,  ///< the simulation watchdog tripped (partial results)
  timeout,     ///< cycle budget exhausted before drain, or wall-clock
               ///< budget exceeded (partial results)
  rejected,    ///< validation or prepare failed (structured errors)
  overloaded,  ///< deferred by backpressure; not terminal - the request
               ///< is retried once the queue drains
};

const char* request_outcome_name(RequestOutcome outcome);
bool request_outcome_terminal(RequestOutcome outcome);

/// One JSONL result row. Simulation fields are a flat snapshot of the
/// run's SimResults (partial for deadlocked/timeout rows).
struct ResultRow {
  std::string id;
  RequestOutcome outcome = RequestOutcome::rejected;
  std::string error;                 ///< failed/timeout/deadlocked detail
  std::vector<RequestError> errors;  ///< rejected detail (per line)
  bool cache_context_hit = false;
  bool cache_algorithm_hit = false;
  bool budget_clamped = false;
  double seconds = 0.0;
  /// Cycle this run resumed from (a restored crash checkpoint); -1 when
  /// the run started at cycle 0.
  Cycle resumed_at = -1;

  bool has_results = false;
  RunOutcome sim_outcome = RunOutcome::completed;
  bool drained = false;
  Cycle cycles = 0;
  std::uint64_t packets_created = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  double latency_mean = 0.0;
  double latency_p95 = 0.0;

  /// Serializes the row as a single JSON object (no trailing newline).
  std::string to_json() const;
};

struct CampaignOptions {
  /// Worker threads; 0 picks hardware concurrency.
  int workers = 0;
  /// ArtifactCache tier capacity (contexts / idle algorithm instances).
  std::size_t cache_capacity = 32;
  RunBudget budget;
  /// Crash-recovery checkpoints (docs/operations.md). When non-empty,
  /// each run writes a deterministic snapshot of its paused stepper to
  /// "<checkpoint_dir>/<id>.ckpt" every checkpoint_every_cycles once it
  /// has passed checkpoint_min_cycles (short runs never pay the fsync),
  /// and a request whose id has a restorable checkpoint resumes from it
  /// instead of cycle 0. A corrupt
  /// or configuration-mismatched checkpoint is discarded and the run
  /// restarts clean - never a wrong result. The results are bit-identical
  /// with checkpoints on, off, or restored (tests/test_service.cpp).
  std::filesystem::path checkpoint_dir;
  Cycle checkpoint_min_cycles = 100000;
  Cycle checkpoint_every_cycles = 100000;
};

/// Extension of per-request checkpoint images in checkpoint_dir.
inline constexpr const char* kCheckpointExtension = ".ckpt";

/// One finished request, handed back by CampaignEngine::take_completed.
struct CompletedRun {
  std::uint64_t ticket = 0;  ///< submission order: 0, 1, 2, ...
  CampaignRequest request;
  ResultRow row;
};

/// A work queue in front of `workers` threads. submit(), take_completed(),
/// in_flight() and run_batch() belong to one consumer thread (the daemon
/// loop); the workers only pop requests and push CompletedRuns.
class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignOptions options);
  /// Joins the workers: runs already started finish first, queued requests
  /// no worker has picked up are dropped (their spool files remain).
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Queues `request` for the next free worker. Never waits for a run.
  void submit(CampaignRequest request);

  /// Every run finished since the last call, in completion order. Never
  /// blocks; an empty result is a spurious wake-up.
  std::vector<CompletedRun> take_completed();

  /// Readable (POLLIN) once a finished run waits for take_completed(); an
  /// eventfd, so the daemon can wait on it next to its spool watch.
  int completion_fd() const { return event_fd_; }

  /// Submitted requests not yet returned by take_completed().
  std::size_t in_flight() const { return in_flight_; }

  /// Runs every request to a terminal outcome; rows come back in request
  /// order once the whole batch is done. Nothing else may be in flight.
  std::vector<ResultRow> run_batch(
      const std::vector<CampaignRequest>& requests);

  int workers() const { return workers_; }
  const ArtifactCache& cache() const { return cache_; }
  const CampaignOptions& options() const { return options_; }

 private:
  struct Pending {
    std::uint64_t ticket;
    CampaignRequest request;
  };

  void work(int worker);
  /// Wakes every worker to exit and joins it; running requests finish.
  void stop_workers();
  ResultRow run_one(int worker, const CampaignRequest& request);

  CampaignOptions options_;
  int workers_;
  ArtifactCache cache_;
  /// One reusable workspace per worker thread.
  std::vector<SimWorkspace> workspaces_;
  int event_fd_ = -1;
  std::uint64_t next_ticket_ = 0;
  std::size_t in_flight_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Pending> queue_;        // guarded by mu_
  std::vector<CompletedRun> done_;   // guarded by mu_
  bool stopping_ = false;            // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace deft
