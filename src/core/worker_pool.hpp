// A persistent worker-thread pool for phase-structured parallel work.
//
// The sharded simulation core dispatches into the pool once per run (each
// worker then loops over cycles with std::barrier synchronization), and
// SweepRunner's parallel_map fan-outs dispatch once per sweep - so the
// pool's job is to keep the threads alive across dispatches, not to be a
// task queue. A dispatch hands every participating worker the same
// callable with its worker index; the caller participates as worker 0,
// which keeps a 1-thread pool degenerate-free (run(1, job) never leaves
// the calling thread).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deft {

class WorkerPool {
 public:
  /// Spawns `threads` persistent worker threads (0 is valid: every run()
  /// then executes entirely on the caller).
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Executes job(w) for w in [0, n): w = 0 on the calling thread, the
  /// rest on pool threads. Blocks until every job returns, then rethrows
  /// the first exception any job raised. Requires n <= threads() + 1 and
  /// is not reentrant (one run() at a time).
  void run(int n, const std::function<void(int)>& job);

 private:
  void worker_main(int index);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int participants_ = 0;  ///< pool workers of the current generation
  int remaining_ = 0;     ///< pool workers still running the current job
  const std::function<void(int)>* job_ = nullptr;
  std::exception_ptr error_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace deft
