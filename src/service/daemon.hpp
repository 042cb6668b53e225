// The campaign daemon loop: watch a spool directory, ingest requests up
// to a bounded high-water mark, stream them through the CampaignEngine's
// workers, commit each JSONL result row as soon as its run finishes, and
// shut down gracefully on SIGTERM.
//
// Lifecycle of one request file (see docs/operations.md):
//
//   spool/<id>.cfg            published atomically by a client
//     -> queued               read (with retry/backoff) into memory; the
//                             file STAYS in the spool until its row is
//                             durable, so a crash or SIGTERM never loses
//                             an accepted-but-unfinished request
//     -> dispatched           journalled `started`, submitted to the engine
//                             (at most `batch_max` requests in flight)
//     -> row appended + fsync'd to the JSONL results stream
//     -> journalled `committed`, file unlinked: the request is done
//
// The loop (run()) repeats: ingest new spool files, dispatch up to the
// in-flight cap, commit every finished run; when nothing was committed it
// waits until a run finishes, a spool file lands (inotify) or `poll_ms`
// passes. A slow run therefore holds back only its own row. run_pass() is
// the same ingest, dispatch and commit steps followed by a wait for every
// run in flight.
//
// Backpressure: once the in-memory queue holds `queue_high_water`
// requests, further spool files are NOT ingested; each gets one explicit
// `overloaded` row (so the submitter sees the deferral) and is picked up
// by a later scan when the queue has drained.
//
// Graceful shutdown: when the stop flag goes nonzero the daemon stops
// dispatching, lets every run in flight finish and commit (never kills a
// running simulation), and writes a manifest listing every request file
// still unstarted - all of which are still physically in the spool.
//
// Crash recovery (docs/operations.md): result rows are appended through a
// DurableAppender (write + fsync) BEFORE the request's spool file is
// unlinked, so a row the spool no longer vouches for is always durable. A
// failed append (short write, fsync error) is fail-stop: the daemon
// throws before journalling or unlinking, and the request re-runs after a
// restart. With a journal configured, the daemon additionally
// write-ahead-logs "started <id>" at dispatch and "committed <id>" after
// the row's fsync, and every startup replays journal + results against
// the spool and checkpoint directory:
//
//   * a torn final line of either file is truncated away;
//   * a request with a durable terminal row whose spool file still exists
//     (killed between row fsync and unlink) is reconciled: the file and
//     its checkpoint are removed and the commit is journalled - no
//     duplicate row is ever emitted for it;
//   * a request that was started but has no terminal row is still in the
//     spool (files are unlinked only after commit) and simply re-runs -
//     resuming from its last checkpoint when the engine has one.
//
// Net effect across SIGKILL at any point: every accepted request produces
// exactly one terminal row, and no request is lost.
#pragma once

#include <csignal>
#include <deque>
#include <set>
#include <string>

#include "service/campaign.hpp"
#include "service/spool.hpp"

namespace deft {

struct DaemonOptions {
  std::filesystem::path spool_dir;
  std::filesystem::path results_path;   ///< JSONL, appended + flushed
  std::filesystem::path manifest_path;  ///< written on shutdown
  CampaignOptions engine;
  /// Accepted-but-unstarted queue cap; beyond it requests are deferred
  /// with an `overloaded` row instead of being silently queued.
  std::size_t queue_high_water = 256;
  /// Requests in flight in the engine (dispatched, row not yet committed).
  std::size_t batch_max = 64;
  /// Upper bound of an idle wait; a finished run or a new spool file ends
  /// the wait sooner.
  int poll_ms = 50;
  /// Spool-read retry knobs (transient I/O).
  int read_attempts = 4;
  int read_backoff_ms = 5;
  /// Write-ahead journal of started/committed records; empty disables
  /// journalling (the durable results stream alone still guarantees
  /// at-most-once rows, and startup recovery still reconciles it).
  std::filesystem::path journal_path;
};

class CampaignDaemon {
 public:
  /// Opens the results stream (append mode) and creates the spool
  /// directory if missing. Throws std::runtime_error when the results
  /// stream cannot be opened - the one failure a result-streaming daemon
  /// cannot degrade around.
  explicit CampaignDaemon(DaemonOptions options);

  /// Runs until *stop becomes nonzero, then lets every run in flight
  /// finish and commit and writes the shutdown manifest. Returns the
  /// number of result rows written (including overloaded/rejected rows).
  /// Throws std::runtime_error when a row cannot be made durable.
  std::size_t run(const volatile std::sig_atomic_t* stop);

  /// One ingest-dispatch-commit step that then waits for (and commits)
  /// every run in flight; no idle wait, no manifest. Exposed so tests can
  /// drive the loop deterministically. Returns rows written in this pass.
  std::size_t run_pass();

  /// Writes the shutdown manifest of unstarted requests and flushes the
  /// results stream. run() calls this; tests may call it directly.
  void shutdown();

  const CampaignEngine& engine() const { return engine_; }
  std::size_t queue_size() const { return queue_.size(); }
  std::size_t rows_written() const { return rows_written_; }
  /// Requests reconciled by the startup recovery pass (terminal row
  /// already durable; spool file and checkpoint cleaned up).
  std::size_t recovered() const { return recovered_; }

 private:
  /// Appends one durable row; throws when the append or fsync failed.
  void emit(const ResultRow& row);
  /// Loop steps shared by run() and run_pass().
  void ingest();
  void dispatch();
  /// Commits every finished run; returns how many.
  std::size_t commit();
  /// Commits runs as they finish until none is in flight.
  void finish_in_flight();
  /// Blocks until a run finishes, `watch_fd` (if >= 0) is readable or
  /// `timeout_ms` passes (-1: no bound).
  void wait(int watch_fd, int timeout_ms);
  /// Startup recovery: truncate torn trailing lines, collect the durable
  /// terminal-row ids, and reconcile spool + checkpoints against them.
  void recover();
  std::filesystem::path checkpoint_path(const std::string& id) const;
  void journal(const std::string& record);

  DaemonOptions options_;
  CampaignEngine engine_;
  DurableAppender results_;
  DurableAppender journal_;
  std::deque<CampaignRequest> queue_;
  /// Spool paths queued or in flight (dedupe across scans).
  std::set<std::string> queued_paths_;
  /// Requests already given an `overloaded` row (one deferral notice per
  /// request, not one per scan).
  std::set<std::string> deferred_notified_;
  /// Files whose read permanently failed and already got a rejected row.
  std::set<std::string> read_failed_;
  /// Ids with a durable terminal row (recovered at startup or committed
  /// this process); their spool files are dropped instead of re-run, so
  /// a crash window can never produce a duplicate row.
  std::set<std::string> done_ids_;
  std::size_t rows_written_ = 0;
  std::size_t recovered_ = 0;
};

}  // namespace deft
