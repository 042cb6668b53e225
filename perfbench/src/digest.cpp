#include "digest.hpp"

#include <cstdio>

namespace perfbench {

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  add_bytes(s.data(), s.size());
}

void Digest::add(const deft::LatencySummary& s) {
  add(s.count);
  add(s.mean);
  add(s.min);
  add(s.max);
  add(s.p50);
  add(s.p95);
  add(s.p99);
}

void Digest::add(const deft::SimResults& r) {
  add(r.network_latency);
  add(r.total_latency);
  add(r.packets_created);
  add(r.packets_created_measured);
  add(r.packets_delivered_measured);
  add(r.packets_dropped_unroutable);
  add(r.flits_ejected_in_window);
  add(r.flit_hops);
  add(static_cast<std::uint64_t>(r.cycles_run));
  add(static_cast<std::uint64_t>(r.measure_cycles));
  add(static_cast<std::uint64_t>(r.deadlock_detected));
  add(static_cast<std::uint64_t>(r.drained));
  add(static_cast<std::uint64_t>(r.outcome));
  add(static_cast<std::uint64_t>(r.region_vc_flits.size()));
  for (const auto& region : r.region_vc_flits) {
    for (const std::uint64_t flits : region) {
      add(flits);
    }
  }
  add(static_cast<std::uint64_t>(r.vl_channel_flits.size()));
  for (const std::uint64_t flits : r.vl_channel_flits) {
    add(flits);
  }
  add(r.packets_lost);
  add(r.packets_lost_measured);
  add(r.fault_window_created);
  add(r.fault_window_delivered);
  add(static_cast<std::uint64_t>(r.reconvergence_latency));
}

void Digest::add(const deft::ReachabilitySweepPoint& p) {
  add(static_cast<std::uint64_t>(p.faulty_vls));
  add(p.average);
  add(p.worst);
  add(p.patterns);
  add(static_cast<std::uint64_t>(p.exhaustive));
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
