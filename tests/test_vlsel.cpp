// VL-selection tests: cost model (eqs. 1-6) against the paper's Fig. 3
// examples, optimizer optimality and cross-validation, and the
// per-fault-scenario tables of Algorithm 2.
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "topology/builder.hpp"
#include "vlsel/table.hpp"

namespace deft {
namespace {

/// The 4x4 chiplet of Fig. 3 with the paper's four border VLs (our
/// pinwheel positions): north (1,0), east (3,2), south (2,3), west (0,1).
std::vector<Coord> fig3_routers() {
  std::vector<Coord> routers;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      routers.push_back({x, y});
    }
  }
  return routers;
}

std::vector<Coord> fig3_vls() { return {{1, 0}, {3, 2}, {2, 3}, {0, 1}}; }

TEST(VlCost, LoadFollowsEquationOne) {
  VlSelectionProblem p;
  p.routers = {{0, 0}, {1, 0}, {2, 0}};
  p.traffic = {0.1, 0.2, 0.3};
  p.vls = {{0, 0}, {2, 0}};
  const VlSelection s = {0, 0, 1};
  EXPECT_DOUBLE_EQ(vl_load(p, s, 0), 0.3);
  EXPECT_DOUBLE_EQ(vl_load(p, s, 1), 0.3);
  EXPECT_DOUBLE_EQ(average_vl_load(p, s), 0.3);
  EXPECT_DOUBLE_EQ(vl_load_cost(p, s, 0), 0.0);
}

TEST(VlCost, DistanceFollowsEquationsFourFive) {
  VlSelectionProblem p = VlSelectionProblem::uniform(
      {{0, 0}, {3, 3}}, {{1, 0}, {0, 1}});
  const VlSelection s = {0, 1};
  // Router (0,0) -> VL (1,0): 1 hop; router (3,3) -> VL (0,1): 5 hops.
  EXPECT_DOUBLE_EQ(vl_distance_cost(p, s, 0), 1.0);
  EXPECT_DOUBLE_EQ(vl_distance_cost(p, s, 1), 5.0);
}

TEST(VlCost, ZeroTrafficHasZeroLoadCost) {
  VlSelectionProblem p;
  p.routers = {{0, 0}};
  p.traffic = {0.0};
  p.vls = {{0, 0}, {1, 0}};
  const VlSelection s = {0};
  EXPECT_DOUBLE_EQ(vl_load_cost(p, s, 0), 0.0);
  EXPECT_DOUBLE_EQ(selection_cost(p, s), 0.0);
}

TEST(VlCost, RejectsMalformedSelections) {
  VlSelectionProblem p = VlSelectionProblem::uniform({{0, 0}}, {{0, 0}});
  EXPECT_THROW(selection_cost(p, {}), std::invalid_argument);
  EXPECT_THROW(selection_cost(p, {1}), std::invalid_argument);
}

TEST(VlCost, Fig3cDistanceBasedLoadsMatchPaper) {
  // Fig. 3(c): non-uniform traffic where distance-based selection puts
  // l_blue = 0.5, l_red = 0, l_green = 0.3, l_purple = 0.2. We reproduce
  // the *structure*: distance-based selection concentrates half the load
  // on one VL and leaves another idle under a skewed traffic profile.
  VlSelectionProblem p;
  p.routers = fig3_routers();
  p.vls = fig3_vls();
  // Traffic concentrated around the north VL's quadrant.
  p.traffic.assign(16, 0.0);
  p.traffic[0] = 0.1;   // (0,0)
  p.traffic[1] = 0.2;   // (1,0) - at the north VL
  p.traffic[2] = 0.2;   // (2,0)
  p.traffic[5] = 0.1;   // (1,1)
  p.traffic[11] = 0.2;  // (3,2) - at the east VL
  p.traffic[13] = 0.2;  // (1,3)
  const VlSelection dist = select_distance_based(p);
  const double total = 1.0;
  double max_load = 0.0;
  double min_load = 1.0;
  for (int v = 0; v < 4; ++v) {
    max_load = std::max(max_load, vl_load(p, dist, v));
    min_load = std::min(min_load, vl_load(p, dist, v));
  }
  EXPECT_GE(max_load, 0.4 * total);  // one VL takes a large share
  // The optimizer balances it strictly better.
  Rng rng(5);
  const VlSelectionResult opt = solve_anneal(p, rng);
  EXPECT_LT(opt.cost, selection_cost(p, dist));
}

TEST(VlOptimizer, ExhaustiveFindsGlobalOptimumOnTinyInstance) {
  VlSelectionProblem p = VlSelectionProblem::uniform(
      {{0, 0}, {1, 0}, {2, 0}, {3, 0}}, {{0, 0}, {3, 0}});
  const VlSelectionResult r = solve_exhaustive(p);
  // Balanced 2/2 split with minimal distance: routers 0,1 -> VL0 and
  // 2,3 -> VL1.
  EXPECT_EQ(r.selection, (VlSelection{0, 0, 1, 1}));
}

TEST(VlOptimizer, ExhaustiveRefusesHugeInstances) {
  VlSelectionProblem p = VlSelectionProblem::uniform(
      fig3_routers(), fig3_vls());  // 4^16 states
  EXPECT_THROW(solve_exhaustive(p), std::invalid_argument);
}

/// Reference brute force: the odometer over every selection in
/// lexicographic order, scoring each with the full selection_cost() and
/// keeping the first strict improvement.
VlSelectionResult odometer_brute_force(const VlSelectionProblem& p) {
  const int R = p.num_routers();
  const int V = p.num_vls();
  VlSelection current(static_cast<std::size_t>(R), 0);
  VlSelectionResult best;
  best.selection = current;
  best.cost = selection_cost(p, current);
  while (true) {
    int pos = R - 1;
    while (pos >= 0 && current[static_cast<std::size_t>(pos)] == V - 1) {
      current[static_cast<std::size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) {
      return best;
    }
    ++current[static_cast<std::size_t>(pos)];
    const double cost = selection_cost(p, current);
    if (cost < best.cost) {
      best.cost = cost;
      best.selection = current;
    }
  }
}

void expect_same_as_brute_force(const VlSelectionProblem& p,
                                const std::string& label) {
  const VlSelectionResult want = odometer_brute_force(p);
  const VlSelectionResult got = solve_exhaustive(p);
  EXPECT_EQ(got.selection, want.selection) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost),
            std::bit_cast<std::uint64_t>(want.cost))
      << label << ": " << got.cost << " vs " << want.cost;
}

TEST(VlOptimizer, ExhaustiveMatchesOdometerBitForBit) {
  // Random instances in four families: uniform and non-uniform traffic on
  // random placements, and mirror-symmetric router/VL placements (with
  // uniform or few-valued traffic, zero traffic included) that create
  // many tied optima. The solver must pick the same lexicographically
  // first optimum and report a bit-equal cost.
  int instances = 0;
  for (std::uint64_t seed = 0; seed < 320; ++seed) {
    Rng gen(seed + 1000);
    const int family = static_cast<int>(seed % 4);
    const bool symmetric = family >= 2;
    const int V = static_cast<int>(gen.uniform_range(1, 4));
    // Keep V^R small: the reference costs O(V^2 R) per state.
    int max_r = 1;
    double states = V;
    while (max_r < 10 && states * V <= 6000.0) {
      states *= V;
      ++max_r;
    }
    const int R = static_cast<int>(gen.uniform_range(1, max_r));
    VlSelectionProblem p;
    const int w = 4;
    for (int r = 0; r < R; ++r) {
      p.routers.push_back(symmetric
                              ? Coord{r % w, r / w}
                              : Coord{static_cast<int>(gen.uniform(5)),
                                      static_cast<int>(gen.uniform(5))});
    }
    for (int v = 0; v < V; ++v) {
      // Symmetric VLs sit in mirror pairs across the vertical axis.
      p.vls.push_back(symmetric
                          ? Coord{v % 2 == 0 ? 0 : w - 1, v / 2}
                          : Coord{static_cast<int>(gen.uniform(5)),
                                  static_cast<int>(gen.uniform(5))});
    }
    for (int r = 0; r < R; ++r) {
      double t = 1.0;
      if (family == 1) {
        t = gen.uniform_real();
      } else if (family == 3) {
        t = 0.1 * static_cast<double>(gen.uniform(3));  // 0, 0.1 or 0.2
      }
      p.traffic.push_back(t);
    }
    p.rho = gen.bernoulli(0.5) ? 0.01 : 0.1 * gen.uniform_real();
    expect_same_as_brute_force(p, "seed " + std::to_string(seed));
    ++instances;
  }
  // The reference-chiplet case that dominates a table build: 16 routers
  // over every pair of the four border VLs (2^16 states each).
  const std::vector<Coord> vls = fig3_vls();
  for (std::size_t a = 0; a < vls.size(); ++a) {
    for (std::size_t b = a + 1; b < vls.size(); ++b) {
      expect_same_as_brute_force(
          VlSelectionProblem::uniform(fig3_routers(), {vls[a], vls[b]}),
          "fig3 VLs " + std::to_string(a) + "," + std::to_string(b));
      ++instances;
    }
  }
  EXPECT_GE(instances, 300);
}

TEST(VlOptimizer, CompositionMatchesExhaustiveOnUniformInstances) {
  // Cross-validation on all-small instances: the composition solver must
  // equal brute force wherever brute force is feasible.
  for (int routers = 2; routers <= 6; ++routers) {
    for (int vls = 2; vls <= 3; ++vls) {
      std::vector<Coord> rpos;
      for (int r = 0; r < routers; ++r) {
        rpos.push_back({r % 3, r / 3});
      }
      std::vector<Coord> vpos;
      for (int v = 0; v < vls; ++v) {
        vpos.push_back({v, 2});
      }
      VlSelectionProblem p = VlSelectionProblem::uniform(rpos, vpos);
      const double exhaustive = solve_exhaustive(p).cost;
      const double composition = solve_composition(p).cost;
      EXPECT_NEAR(exhaustive, composition, 1e-9)
          << routers << " routers, " << vls << " VLs";
    }
  }
}

TEST(VlOptimizer, AnnealMatchesExhaustiveOnSmallNonUniformInstances) {
  Rng rng(17);
  for (int seed = 0; seed < 5; ++seed) {
    VlSelectionProblem p;
    Rng gen(static_cast<std::uint64_t>(seed) + 100);
    for (int r = 0; r < 6; ++r) {
      p.routers.push_back({static_cast<int>(gen.uniform(4)),
                           static_cast<int>(gen.uniform(4))});
      p.traffic.push_back(0.05 + gen.uniform_real() * 0.2);
    }
    p.vls = {{0, 0}, {3, 3}};
    const double exhaustive = solve_exhaustive(p).cost;
    const double anneal = solve_anneal(p, rng).cost;
    EXPECT_NEAR(anneal, exhaustive, 1e-9) << "seed " << seed;
  }
}

TEST(VlOptimizer, BalancedSelectionBeatsDistanceUnderFault) {
  // Fig. 3(b): with one VL faulty, distance-based selection leaves an
  // 8/4/4 router split; the optimizer's split must be strictly more
  // balanced (6/5/5 up to rounding) at tiny distance cost.
  VlSelectionProblem p = VlSelectionProblem::uniform(fig3_routers(),
                                                     {{3, 2}, {2, 3}, {0, 1}});
  const VlSelection dist = select_distance_based(p);
  int dist_counts[3] = {};
  for (int v : dist) {
    ++dist_counts[v];
  }
  const int dist_max =
      std::max({dist_counts[0], dist_counts[1], dist_counts[2]});
  const VlSelectionResult opt = solve_composition(p);
  int opt_counts[3] = {};
  for (int v : opt.selection) {
    ++opt_counts[v];
  }
  const int opt_max = std::max({opt_counts[0], opt_counts[1], opt_counts[2]});
  EXPECT_GT(dist_max, 16 / 3 + 1);  // distance-based is imbalanced
  EXPECT_LE(opt_max, 6);            // optimizer balances (16 over 3 VLs)
  EXPECT_LT(opt.cost, selection_cost(p, dist));
}

TEST(VlOptimizer, OptimizeDispatchesToStrongestSolver) {
  Rng rng(3);
  VlSelectionProblem tiny =
      VlSelectionProblem::uniform({{0, 0}, {1, 1}}, {{0, 0}, {1, 0}});
  EXPECT_STREQ(optimize(tiny, rng).solver, "exhaustive");
  VlSelectionProblem uniform16 =
      VlSelectionProblem::uniform(fig3_routers(), fig3_vls());
  EXPECT_STREQ(optimize(uniform16, rng).solver, "composition");
  VlSelectionProblem skewed = uniform16;
  skewed.traffic[3] = 7.0;
  EXPECT_STREQ(optimize(skewed, rng).solver, "anneal");
}

TEST(VlOptimizer, RhoTradesDistanceAgainstBalance) {
  // With a huge rho the distance term dominates and the optimum collapses
  // to the distance-based selection.
  VlSelectionProblem p =
      VlSelectionProblem::uniform(fig3_routers(), fig3_vls());
  p.rho = 1000.0;
  const VlSelectionResult r = solve_composition(p);
  const VlSelection dist = select_distance_based(p);
  double r_dist = 0.0;
  double d_dist = 0.0;
  for (int v = 0; v < p.num_vls(); ++v) {
    r_dist += vl_distance_cost(p, r.selection, v);
    d_dist += vl_distance_cost(p, dist, v);
  }
  EXPECT_DOUBLE_EQ(r_dist, d_dist);
}

class VlTableTest : public ::testing::Test {
 protected:
  Topology topo_{make_reference_spec(4)};
  Rng rng_{42};
};

TEST_F(VlTableTest, StoresPaperScenarioCount) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  // The paper: 14 faulty-VL combinations are saved per router (C(4,1) +
  // C(4,2) + C(4,3)); the all-faulty mask is invalid.
  EXPECT_EQ(table.faulty_entry_count(), 14);
  EXPECT_TRUE(table.valid_mask(0));
  EXPECT_FALSE(table.valid_mask(0b1111));
}

TEST_F(VlTableTest, SelectionsAvoidFaultyVls) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 1, VlTableSide::down, rng_);
  for (std::uint32_t mask = 0; mask < 15; ++mask) {
    for (NodeId r : topo_.chiplet_nodes(1)) {
      const int vl = table.selected_vl(mask, r);
      EXPECT_EQ((mask >> vl) & 1u, 0u)
          << "router " << r << " assigned faulty VL " << vl;
    }
  }
}

TEST_F(VlTableTest, FaultFreeSelectionIsBalanced) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  int counts[4] = {};
  for (NodeId r : topo_.chiplet_nodes(0)) {
    ++counts[table.selected_vl(0, r)];
  }
  for (int c : counts) {
    EXPECT_EQ(c, 4);  // 16 routers over 4 VLs, uniform traffic
  }
}

TEST_F(VlTableTest, SingleSurvivorGetsEveryRouter) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  // Mask 0b1110: only VL 0 alive.
  for (NodeId r : topo_.chiplet_nodes(0)) {
    EXPECT_EQ(table.selected_vl(0b1110, r), 0);
  }
}

TEST_F(VlTableTest, RejectsForeignRouters) {
  const ChipletVlTable table =
      ChipletVlTable::build(topo_, 0, VlTableSide::down, rng_);
  EXPECT_THROW(table.selected_vl(0, topo_.chiplet_nodes(1).front()),
               std::invalid_argument);
  EXPECT_THROW(table.selected_vl(0b1111, topo_.chiplet_nodes(0).front()),
               std::invalid_argument);
}

TEST_F(VlTableTest, SystemTablesCoverAllChiplets) {
  Rng rng(7);
  const SystemVlTables tables = SystemVlTables::build(topo_, rng);
  for (int c = 0; c < topo_.num_chiplets(); ++c) {
    EXPECT_EQ(tables.down(c).chiplet(), c);
    EXPECT_EQ(tables.up(c).chiplet(), c);
    EXPECT_EQ(tables.down(c).side(), VlTableSide::down);
    EXPECT_EQ(tables.up(c).side(), VlTableSide::up);
    EXPECT_EQ(tables.down(c).faulty_entry_count(), 14);
  }
}

TEST(VlTableHetero, WorksWithTwoVlChiplets) {
  const Topology topo(make_two_chiplet_spec());
  Rng rng(9);
  const ChipletVlTable table =
      ChipletVlTable::build(topo, 1, VlTableSide::up, rng);
  // 2 VLs: C(2,1) = 2 faulty scenarios stored.
  EXPECT_EQ(table.faulty_entry_count(), 2);
  EXPECT_FALSE(table.valid_mask(0b11));
}

}  // namespace
}  // namespace deft
