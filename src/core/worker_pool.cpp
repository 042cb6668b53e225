#include "core/worker_pool.hpp"

#include "common/types.hpp"

namespace deft {

WorkerPool::WorkerPool(int threads) {
  require(threads >= 0, "WorkerPool: negative thread count");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back(&WorkerPool::worker_main, this, t);
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void WorkerPool::worker_main(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      if (index >= participants_) {
        continue;  // this dispatch uses fewer workers than the pool holds
      }
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(index + 1);  // worker 0 is the caller
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (error && !error_) {
        error_ = error;
      }
      if (--remaining_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void WorkerPool::run(int n, const std::function<void(int)>& job) {
  require(n >= 1 && n <= threads() + 1,
          "WorkerPool::run: n must be in [1, threads() + 1]");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    participants_ = n - 1;
    remaining_ = n - 1;
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();

  std::exception_ptr caller_error;
  try {
    job(0);
  } catch (...) {
    caller_error = std::current_exception();
  }

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    job_ = nullptr;
    error = error_ ? error_ : caller_error;
    error_ = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace deft
