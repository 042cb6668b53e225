// Deterministic simulation checkpoints.
//
// save_snapshot() serializes the complete mid-run state of a paused
// SimStepper - router flit planes and ring metadata, input/output VC
// state, NI FIFOs and RNG streams, RC-unit state, the injection event
// heap, the fault surgeon's cursor and window metrics, the interned
// route/packet planes, and the in-progress results counters - into a
// versioned, checksummed binary image. restore_snapshot() rebuilds that
// state inside a fresh Simulator + SimWorkspace such that
//
//   restore_snapshot(...); stepper.advance(); stepper.finish();
//
// is bit-identical to the uninterrupted run (same SimResults, same golden
// digests), at every cycle boundary. This holds for every execution mode:
// the stepper is always serial, and the sharded core pins its results to
// the serial loop's, so a snapshot taken on the serial stepper resumes
// either exactly (tests/test_snapshot.cpp).
//
// The image is a schema written once: each state plane has one visit
// that both archives run, so the saved and the restored fields cannot
// drift apart. What a restore promises about an image depends on how it
// went wrong:
//
//  * Accidental corruption (a torn write, a flipped bit) fails the FNV-1a
//    checksum over the payload; truncation and trailing bytes fail the
//    framing. A snapshot is only meaningful against the exact run
//    configuration it was taken from, so the image embeds a fingerprint
//    (knobs, topology shape, algorithm and traffic names, initial fault
//    set, fault timeline, in-flight policy) and any mismatch is refused.
//  * An image that passes those checks is still decoded as untrusted
//    input. Every restored value later code indexes with is range-checked
//    (ports, VCs, packet, route and node ids, NI indices, lane fills, the
//    fault set), route node fields must lie on the meshes their route
//    walks, and the cached planes (occupancy and ownership masks, the
//    router worklist, flit and RC counters, credits, channel fault marks,
//    loop bounds) are re-derived and compared, as is the in-flight flit
//    census (each flit is one packet's, gap-free, on that packet's mesh).
//    So an image with one corrupted field that still passes the checksum
//    restores into a run that never indexes out of range
//    (tests/test_snapshot.cpp mutates images byte by byte to hold this).
//  * An image with in-range but wrong values can still restore into a
//    wrong run - for instance a route swapped for another valid route
//    while its packet is in flight, which the simulator's own invariant
//    checks may then stop (std::logic_error) instead of finishing. The
//    checks do not replay routing, so a crafted image whose route omits
//    an intermediate router its algorithm needs is not refused either.
//
// Every refusal is a SnapshotError naming the failed check.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace deft {

/// Raised on any invalid snapshot image (bad magic, unsupported version,
/// truncation, checksum failure, configuration fingerprint mismatch, or a
/// decoded value that fails a structural check).
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Snapshot format version written by save_snapshot().
/// v2: per-NI counter-based route-stream draw counts (rng_mode).
/// v3: fault sets as a word count plus 64-bit words (systems with more
/// than 64 VL channels).
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Serializes the state of `stepper`'s paused run. The stepper must be
/// started and not finished; the cycle boundary it is paused on is a
/// serial point (all staged network state committed), which start()/
/// advance() guarantee.
std::vector<std::uint8_t> save_snapshot(const SimStepper& stepper);

/// Restores a snapshot into `stepper`/`ws`. `sim` must be a fresh (never
/// run) Simulator constructed with a configuration identical to the one
/// the snapshot was taken from - same topology, algorithm, traffic,
/// knobs, initial faults, timeline and policy; the embedded fingerprint
/// is checked and any mismatch rejected. On return the stepper is paused
/// exactly where the saved run was: advance()/finish() continue it
/// bit-identically. Throws SnapshotError on any invalid image; a failed
/// restore may have part-loaded `sim`'s algorithm and traffic streams and
/// fault tables, so neither they nor the stepper may be used afterwards.
void restore_snapshot(const std::vector<std::uint8_t>& data, Simulator& sim,
                      SimStepper& stepper, SimWorkspace& ws);

/// Durably writes a snapshot image: temp file + fsync + atomic rename,
/// so a crash mid-write can never leave a truncated image under `path`
/// (a reader sees the old snapshot or the new one, never a half one).
void write_snapshot_file(const std::filesystem::path& path,
                         const std::vector<std::uint8_t>& data);

/// Reads a snapshot image; throws SnapshotError when the file cannot be
/// read (restore_snapshot() then validates the content).
std::vector<std::uint8_t> read_snapshot_file(
    const std::filesystem::path& path);

}  // namespace deft
