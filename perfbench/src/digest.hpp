// Result digests: the correctness oracle. Every SimResults field, every
// Fig. 7 point and every campaign row's outcome and simulation fields are
// folded into one 64-bit FNV-1a value, so a traced run, a later round or a
// later commit can be checked against a pinned value bit for bit.
#pragma once

#include <cstdint>
#include <string>

#include "core/reachability.hpp"
#include "stats/stats.hpp"

namespace perfbench {

class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(const std::string& s);
  void add(const deft::LatencySummary& s);
  /// Every field of a SimResults, in declaration order.
  void add(const deft::SimResults& r);
  void add(const deft::ReachabilitySweepPoint& p);

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

}  // namespace perfbench
