// Fault-model tests: fault sets, chiplet masks, disconnection detection,
// scenario enumeration and sampling.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/combinatorics.hpp"
#include "fault/scenario.hpp"
#include "topology/builder.hpp"

namespace deft {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  Topology topo_{make_reference_spec(4)};
};

TEST_F(FaultTest, SetAndClear) {
  VlFaultSet f;
  EXPECT_TRUE(f.empty());
  f.set_faulty(3);
  f.set_faulty(17);
  EXPECT_EQ(f.count(), 2);
  EXPECT_TRUE(f.is_faulty(3));
  EXPECT_FALSE(f.is_faulty(4));
  f.clear(3);
  EXPECT_EQ(f.count(), 1);
  EXPECT_EQ(f.channels(), std::vector<VlChannelId>{17});
}

TEST(FaultSet, ChannelsPastSixtyFourHaveTheirOwnBits) {
  // The 64-chiplet grid has 512 VL channels: channel 64 + k (and 256 + k)
  // must never alias channel k, in the set itself or in the chiplet masks
  // DeFT keys its VL tables by.
  const Topology topo(make_grid_spec(8, 8, 4, 4));
  ASSERT_EQ(topo.num_vl_channels(), 512);
  for (const VlChannelId k : {0, 5, 63}) {
    for (const VlChannelId high : {64 + k, 256 + k}) {
      VlFaultSet low_set;
      low_set.set_faulty(k);
      VlFaultSet high_set;
      high_set.set_faulty(high);
      EXPECT_NE(low_set, high_set);
      EXPECT_TRUE(high_set.is_faulty(high));
      EXPECT_FALSE(high_set.is_faulty(k));
      EXPECT_FALSE(low_set.is_faulty(high));
      EXPECT_EQ(high_set.count(), 1);
      EXPECT_EQ(high_set.channels(), std::vector<VlChannelId>{high});
      EXPECT_EQ(VlFaultSet::of({high}), high_set);

      const VerticalLink& vl = topo.vl(high / 2);
      const auto& own = topo.chiplet_vls(vl.chiplet);
      const auto index = static_cast<std::uint32_t>(
          std::find(own.begin(), own.end(), vl.id) - own.begin());
      const std::uint32_t mask = high % 2 == 0
                                     ? high_set.chiplet_down_mask(topo, vl.chiplet)
                                     : high_set.chiplet_up_mask(topo, vl.chiplet);
      EXPECT_EQ(mask, 1u << index);
      const int low_chiplet = topo.vl(k / 2).chiplet;
      EXPECT_EQ(high_set.chiplet_down_mask(topo, low_chiplet) |
                    high_set.chiplet_up_mask(topo, low_chiplet),
                0u);
      high_set.clear(high);
      EXPECT_TRUE(high_set.empty());
    }
  }
}

TEST_F(FaultTest, ChipletMasksSeparateDownAndUp) {
  // Chiplet 0's VLs have global ids 0..3; down channels are even.
  const auto& vls = topo_.chiplet_vls(0);
  VlFaultSet f;
  f.set_faulty(topo_.vl(vls[1]).down_vl_channel());
  f.set_faulty(topo_.vl(vls[2]).up_vl_channel());
  EXPECT_EQ(f.chiplet_down_mask(topo_, 0), 0b0010u);
  EXPECT_EQ(f.chiplet_up_mask(topo_, 0), 0b0100u);
  EXPECT_EQ(f.chiplet_down_mask(topo_, 1), 0u);
  EXPECT_EQ(f.chiplet_up_mask(topo_, 1), 0u);
}

TEST_F(FaultTest, DisconnectionRequiresWholeDirection) {
  VlFaultSet f;
  const auto& vls = topo_.chiplet_vls(2);
  for (std::size_t i = 0; i < 3; ++i) {
    f.set_faulty(topo_.vl(vls[i]).down_vl_channel());
  }
  EXPECT_FALSE(f.disconnects_any_chiplet(topo_));
  f.set_faulty(topo_.vl(vls[3]).down_vl_channel());
  EXPECT_TRUE(f.disconnects_any_chiplet(topo_));
}

TEST_F(FaultTest, UpDirectionAloneCanDisconnect) {
  VlFaultSet f;
  for (VlId v : topo_.chiplet_vls(1)) {
    f.set_faulty(topo_.vl(v).up_vl_channel());
  }
  EXPECT_TRUE(f.disconnects_any_chiplet(topo_));
}

TEST_F(FaultTest, EnumerationCountsMatchBinomialMinusDisconnecting) {
  // k <= 3 faults cannot kill all four channels of one direction, so every
  // pattern is valid.
  for (int k = 1; k <= 3; ++k) {
    EXPECT_EQ(count_fault_scenarios(topo_, k),
              binomial(topo_.num_vl_channels(), k))
        << "k=" << k;
  }
  // k = 4: exactly the 8 all-of-one-direction patterns are excluded
  // (4 chiplets x {down, up}).
  EXPECT_EQ(count_fault_scenarios(topo_, 4),
            binomial(32, 4) - 8u);
}

TEST_F(FaultTest, EnumerationVisitsOnlyValidPatterns) {
  for_each_fault_scenario(topo_, 4, [&](const VlFaultSet& f) {
    EXPECT_EQ(f.count(), 4);
    EXPECT_FALSE(f.disconnects_any_chiplet(topo_));
    return true;
  });
}

TEST_F(FaultTest, SamplingProducesValidPatterns) {
  Rng rng(3);
  for (int k = 1; k <= 8; ++k) {
    for (int i = 0; i < 50; ++i) {
      const auto f = sample_fault_scenario(topo_, k, rng);
      ASSERT_TRUE(f.has_value());
      EXPECT_EQ(f->count(), k);
      EXPECT_FALSE(f->disconnects_any_chiplet(topo_));
    }
  }
}

TEST_F(FaultTest, VisitDriverEnumeratesSmallAndSamplesLarge) {
  Rng rng(1);
  // C(32,2) = 496 <= limit: exhaustive enumeration.
  std::uint64_t visited = visit_fault_scenarios(
      topo_, 2, 1000, 10, rng, [](const VlFaultSet&) {});
  EXPECT_EQ(visited, 496u);
  // C(32,6) > limit: Monte-Carlo with `samples` draws.
  visited = visit_fault_scenarios(topo_, 6, 1000, 37, rng,
                                  [](const VlFaultSet&) {});
  EXPECT_EQ(visited, 37u);
}

TEST_F(FaultTest, ToStringMarksDirections) {
  VlFaultSet f = VlFaultSet::of({0, 3});
  // Channel 0 = VL0 down, channel 3 = VL1 up.
  EXPECT_EQ(f.to_string(), "{0v,1^}");
}

TEST(FaultScenario, PaperFaultRates) {
  // Fig. 7's x-axis: 1..8 faulty VLs of 32 is a 3.125%..25% fault rate.
  const Topology topo(make_reference_spec(4));
  EXPECT_DOUBLE_EQ(1.0 / topo.num_vl_channels(), 0.03125);
  EXPECT_DOUBLE_EQ(8.0 / topo.num_vl_channels(), 0.25);
  // 6 chiplets: 1 fault of 48 ~= 2.1% (the rate quoted for MTR's limit).
  const Topology topo6(make_reference_spec(6));
  EXPECT_NEAR(1.0 / topo6.num_vl_channels(), 0.021, 0.001);
}

}  // namespace
}  // namespace deft
