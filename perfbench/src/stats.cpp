#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) {
    return {};
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    return {values[0], values[0], values[0]};
  }
  // statistics.quantiles(method="exclusive"): m = n + 1; for cut point i,
  // j = i * m // 4 clamped to [1, n - 1], delta = i * m - j * 4, and the
  // result interpolates the (1-based) j-th and (j+1)-th order statistics.
  const auto cut = [&](std::int64_t i) {
    const std::int64_t m = static_cast<std::int64_t>(n) + 1;
    const std::int64_t j = std::clamp<std::int64_t>(
        i * m / 4, 1, static_cast<std::int64_t>(n) - 1);
    const std::int64_t delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

Tail tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank >= min_beyond) {
      tail.percentile = p;
      tail.value = values[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  // No rung has enough samples beyond it: a tail cannot be estimated, so
  // the median stands in (percentile reads 50, beyond counts what it has).
  tail.percentile = 50.0;
  tail.value = median(values);
  tail.beyond = n / 2;
  tail.estimated = false;
  return tail;
}

std::int64_t self_time(const Interval& parent,
                       std::vector<Interval> children) {
  const std::int64_t duration = std::max<std::int64_t>(
      0, parent.end - parent.start);
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) {
      continue;
    }
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) {
      covered += run_end - run_start;
    }
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) {
    covered += run_end - run_start;
  }
  return duration - covered;
}

}  // namespace perfbench
