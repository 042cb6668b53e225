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

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deft {

/// Phase synchronizer for the fused two-shard cycle loop: replaces the two
/// std::barrier rendezvous per cycle with single-writer epoch slots. Each
/// slot is written (release) by exactly one worker and waited on (acquire)
/// by the other, so a full cycle costs four uncontended stores instead of
/// two arrive-and-wait rounds through a shared barrier phase word. The
/// serial completion step runs on worker 0 between the follower's
/// back-phase publication and the release store; the release is therefore
/// the only write the follower needs to observe to see every completion
/// effect (including the stop flag) before its next front phase.
///
/// Epochs must be strictly increasing and identical across both workers
/// (use the cycle ordinal, starting at 1 - slots initialize to 0).
class TwoShardSync {
 public:
  /// Worker `w` finished its front phase for `epoch`; returns once the
  /// peer has too (the barrier-a equivalent).
  void front_done(int w, std::uint64_t epoch) {
    front_[w].v.store(epoch, std::memory_order_release);
    wait_for(front_[1 - w].v, epoch);
  }

  /// Worker 1 finished its back phase; returns once worker 0 has run the
  /// completion step and published the release (the barrier-b equivalent,
  /// follower side).
  void follower_back_done(std::uint64_t epoch) {
    back_.v.store(epoch, std::memory_order_release);
    wait_for(release_.v, epoch);
  }

  /// Worker 0: wait for worker 1's back phase before the completion step.
  void wait_follower_back(std::uint64_t epoch) { wait_for(back_.v, epoch); }

  /// Worker 0: completion step done, release worker 1 into the next cycle.
  void publish_release(std::uint64_t epoch) {
    release_.v.store(epoch, std::memory_order_release);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };

  static void wait_for(const std::atomic<std::uint64_t>& slot,
                       std::uint64_t target) {
    for (int spin = 0; slot.load(std::memory_order_acquire) < target; ++spin) {
      if (spin >= 64) {
        std::this_thread::yield();
      }
    }
  }

  Slot front_[2];
  Slot back_;
  Slot release_;
};

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
