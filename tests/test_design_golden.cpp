// Golden pins for the design-time artifacts: every VL-selection table
// entry of SystemVlTables and the synthesized MTR plan (restriction count,
// forbidden-turn set, distance rows, pair combos) of the reference systems
// and two larger grids. The
// simulation digests cover these artifacts only indirectly; these pins
// catch a single drifted table entry or turn restriction directly.
#include <gtest/gtest.h>

#include "routing/mtr_routing.hpp"
#include "topology/builder.hpp"
#include "vlsel/table.hpp"

namespace deft {
namespace {

/// FNV-1a over 64-bit words (the golden-digest recipe of the simulation
/// equivalence tests).
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Hash of every (chiplet, side, mask, router) -> VL table entry.
std::uint64_t vl_tables_digest(const Topology& topo) {
  Rng rng(1);
  const SystemVlTables tables = SystemVlTables::build(topo, rng);
  Digest d;
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    for (const ChipletVlTable* table : {&tables.down(c), &tables.up(c)}) {
      const std::uint32_t num_masks = 1u << table->num_vls();
      for (std::uint32_t mask = 0; mask < num_masks; ++mask) {
        if (!table->valid_mask(mask)) {
          continue;
        }
        for (NodeId r : topo.chiplet_nodes(c)) {
          d.mix(static_cast<std::uint64_t>(c));
          d.mix(static_cast<std::uint64_t>(table->side()));
          d.mix(mask);
          d.mix(static_cast<std::uint64_t>(r));
          d.mix(static_cast<std::uint64_t>(table->selected_vl(mask, r)));
        }
      }
    }
  }
  return d.value();
}

/// Hash of every forbidden channel-to-channel turn (design rules plus the
/// synthesized restrictions), in (in channel, out port) order.
std::uint64_t forbidden_turns_digest(const MtrPlan& plan) {
  const Topology& topo = plan.topo();
  Digest d;
  for (ChannelId in = 0; in < topo.num_channels(); ++in) {
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out =
          topo.out_channel(topo.channel(in).dst, static_cast<Port>(p));
      if (out != kInvalidChannel && !plan.turn_allowed(in, out)) {
        d.mix(static_cast<std::uint64_t>(in));
        d.mix(static_cast<std::uint64_t>(out));
      }
    }
  }
  return d.value();
}

/// Hash of every endpoint's distance row over the allowed-turn line graph.
std::uint64_t distance_rows_digest(const MtrPlan& plan) {
  const std::size_t n = static_cast<std::size_t>(plan.line_graph().size());
  Digest d;
  for (std::size_t e = 0; e < plan.topo().endpoints().size(); ++e) {
    const std::uint16_t* row = plan.distance_row(e);
    for (std::size_t l = 0; l < n; ++l) {
      d.mix(row[l]);
    }
  }
  return d.value();
}

/// Hash of every endpoint pair's usable vertical combinations (the masks
/// Fig. 7's MTR reachability reads), in (src, dst) endpoint order.
std::uint64_t pair_combos_digest(const MtrPlan& plan) {
  const auto& endpoints = plan.topo().endpoints();
  Digest d;
  for (NodeId s : endpoints) {
    for (NodeId t : endpoints) {
      d.mix(plan.pair_combos(s, t));
    }
  }
  return d.value();
}

TEST(DesignGolden, VlTablesOfReferenceFour) {
  const Topology topo(make_reference_spec(4));
  EXPECT_EQ(vl_tables_digest(topo), 7662228752782440579ULL);
}

TEST(DesignGolden, VlTablesOfReferenceSix) {
  const Topology topo(make_reference_spec(6));
  EXPECT_EQ(vl_tables_digest(topo), 7968219519295630083ULL);
}

TEST(DesignGolden, VlTablesOfTwoChipletSystem) {
  const Topology topo(make_two_chiplet_spec());
  EXPECT_EQ(vl_tables_digest(topo), 14684591109567332002ULL);
}

TEST(DesignGolden, MtrPlanOfReferenceFour) {
  const Topology topo(make_reference_spec(4));
  const MtrPlan plan(topo);
  EXPECT_EQ(plan.restricted_turn_count(), 30);
  EXPECT_EQ(forbidden_turns_digest(plan), 12540810333351221351ULL);
  EXPECT_EQ(distance_rows_digest(plan), 17930586462724512168ULL);
  EXPECT_EQ(pair_combos_digest(plan), 5744319599279381635ULL);
}

TEST(DesignGolden, MtrPlanOfReferenceSix) {
  const Topology topo(make_reference_spec(6));
  const MtrPlan plan(topo);
  EXPECT_EQ(plan.restricted_turn_count(), 50);
  EXPECT_EQ(forbidden_turns_digest(plan), 14262975670664062345ULL);
  EXPECT_EQ(distance_rows_digest(plan), 7513564264299387846ULL);
  EXPECT_EQ(pair_combos_digest(plan), 6144456531031518595ULL);
}

// Two grids beyond the paper's systems: nine 3x3 chiplets (36 VLs), and
// sixteen 2x2 chiplets whose 64 VLs fill every bit of the leg masks.
TEST(DesignGolden, MtrPlanOfNineChipletGrid) {
  const Topology topo(make_grid_spec(3, 3, 3, 3));
  const MtrPlan plan(topo);
  EXPECT_EQ(plan.restricted_turn_count(), 76);
  EXPECT_EQ(forbidden_turns_digest(plan), 13713303651464083301ULL);
  EXPECT_EQ(distance_rows_digest(plan), 6659280562578379921ULL);
  EXPECT_EQ(pair_combos_digest(plan), 13006524548722798432ULL);
}

TEST(DesignGolden, MtrPlanOfSixteenChipletGrid) {
  const Topology topo(make_grid_spec(4, 4, 2, 2));
  const MtrPlan plan(topo);
  EXPECT_EQ(plan.restricted_turn_count(), 174);
  EXPECT_EQ(forbidden_turns_digest(plan), 10054882814577927044ULL);
  EXPECT_EQ(distance_rows_digest(plan), 994808371851476840ULL);
  EXPECT_EQ(pair_combos_digest(plan), 451303834488916419ULL);
}

}  // namespace
}  // namespace deft
