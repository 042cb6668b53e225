// WorkerPool: the phase-dispatch contract run() gives the sharded core.
#include "core/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace deft {
namespace {

TEST(WorkerPool, RunExecutesEveryWorkerIndexOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> counts(4);
  pool.run(4, [&](int w) { counts[static_cast<std::size_t>(w)]++; });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(WorkerPool, RunRethrowsAJobException) {
  WorkerPool pool(1);
  EXPECT_THROW(
      pool.run(2,
               [&](int w) {
                 if (w == 1) {
                   throw std::runtime_error("boom");
                 }
               }),
      std::runtime_error);
  // The pool must stay usable after a throwing dispatch.
  std::atomic<int> ran{0};
  pool.run(2, [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 2);
}

}  // namespace
}  // namespace deft
