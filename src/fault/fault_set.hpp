// Vertical-link fault model.
//
// Faults are injected on unidirectional vertical channels (the up- and
// down-halves of a bidirectional VL fail independently), matching the VL
// counts used in Fig. 7 of the paper: the 4-chiplet system has 16
// bidirectional VLs = 32 faultable channels.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace deft {

/// A set of faulty unidirectional VL channels, stored as a fixed bitset
/// of kMaxVlChannels bits: every channel of any system Topology accepts
/// has its own bit.
class VlFaultSet {
 public:
  static constexpr std::size_t kWords =
      static_cast<std::size_t>(kMaxVlChannels) / 64;

  VlFaultSet() = default;

  /// Builds a fault set from explicit channel ids.
  static VlFaultSet of(std::initializer_list<VlChannelId> channels);

  void set_faulty(VlChannelId c) { words_[word_of(c)] |= bit(c); }
  void clear(VlChannelId c) { words_[word_of(c)] &= ~bit(c); }
  bool is_faulty(VlChannelId c) const {
    return (words_[word_of(c)] & bit(c)) != 0;
  }
  bool empty() const;
  int count() const;

  /// Bits of channels 64 * w .. 64 * w + 63 (bit i = channel 64 * w + i):
  /// the word-level view the snapshot codec reads and writes.
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  void set_word(std::size_t w, std::uint64_t bits) { words_[w] = bits; }

  /// Faulty-channel ids in increasing order.
  std::vector<VlChannelId> channels() const;

  /// Mask of this chiplet's faulty *down* channels, as a bitmask over the
  /// chiplet's VL indices (bit i = chiplet's i-th VL). Used to key the
  /// per-scenario VL-selection tables.
  std::uint32_t chiplet_down_mask(const Topology& topo, int chiplet) const;

  /// Same for the chiplet's *up* channels.
  std::uint32_t chiplet_up_mask(const Topology& topo, int chiplet) const;

  /// True if any chiplet has lost all of its down channels or all of its
  /// up channels, i.e. the chiplet can no longer send or no longer receive
  /// inter-chiplet traffic. The paper excludes such patterns ("those that
  /// disconnected chiplets completely").
  bool disconnects_any_chiplet(const Topology& topo) const;

  std::string to_string() const;

  friend bool operator==(const VlFaultSet&, const VlFaultSet&) = default;

 private:
  static std::size_t word_of(VlChannelId c) {
    return static_cast<std::size_t>(c) / 64;
  }
  static std::uint64_t bit(VlChannelId c) {
    return std::uint64_t{1} << (static_cast<unsigned>(c) % 64);
  }

  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace deft
