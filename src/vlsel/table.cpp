#include "vlsel/table.hpp"

namespace deft {

ChipletVlTable ChipletVlTable::build(const Topology& topo, int chiplet,
                                     VlTableSide side, Rng& rng,
                                     const std::vector<double>& traffic,
                                     double rho) {
  return build_with(topo, chiplet, side, rng, traffic, rho, nullptr);
}

ChipletVlTable ChipletVlTable::build_with(const Topology& topo, int chiplet,
                                          VlTableSide side, Rng& rng,
                                          const std::vector<double>& traffic,
                                          double rho, SolveMemo* memo) {
  ChipletVlTable table;
  table.chiplet_ = chiplet;
  table.side_ = side;
  const auto& routers = topo.chiplet_nodes(chiplet);
  const auto& vls = topo.chiplet_vls(chiplet);
  table.num_vls_ = static_cast<int>(vls.size());
  table.num_routers_ = static_cast<int>(routers.size());
  table.first_router_ = routers.front();
  require(traffic.empty() || traffic.size() == routers.size(),
          "ChipletVlTable: traffic size must match the chiplet router count");

  // Chiplet nodes are created contiguously; selected_vl() relies on it.
  for (std::size_t i = 0; i < routers.size(); ++i) {
    check(routers[i] == table.first_router_ + static_cast<NodeId>(i),
          "ChipletVlTable: chiplet node ids are not contiguous");
  }

  std::vector<Coord> router_pos;
  router_pos.reserve(routers.size());
  for (NodeId r : routers) {
    router_pos.push_back(topo.node(r).local);
  }

  const std::uint32_t num_masks = 1u << vls.size();
  table.per_mask_.assign(num_masks, {});
  for (std::uint32_t mask = 0; mask + 1 < num_masks; ++mask) {
    // Alive VLs under this mask; all-faulty (the last mask) stays invalid.
    VlSelectionProblem problem;
    problem.routers = router_pos;
    problem.traffic =
        traffic.empty() ? std::vector<double>(routers.size(), 1.0) : traffic;
    problem.rho = rho;
    std::vector<int> alive_to_chiplet_vl;
    for (std::size_t v = 0; v < vls.size(); ++v) {
      if ((mask & (1u << v)) == 0) {
        problem.vls.push_back(
            topo.node(topo.vl(vls[v]).chiplet_node).local);
        alive_to_chiplet_vl.push_back(static_cast<int>(v));
      }
    }
    const VlSelectionResult* cached = nullptr;
    if (memo != nullptr) {
      // Reusing a result skips a solve, which is exact only while no solve
      // draws from `rng`: uniform traffic never reaches solve_anneal.
      check(problem.traffic_is_uniform(),
            "ChipletVlTable: memoized solves need uniform traffic");
      for (const auto& [solved, result] : *memo) {
        if (solved == problem) {
          cached = &result;
          break;
        }
      }
    }
    const VlSelectionResult result =
        cached != nullptr ? *cached : optimize(problem, rng);
    if (memo != nullptr && cached == nullptr) {
      memo->emplace_back(problem, result);
    }
    std::vector<std::int8_t> row(routers.size());
    for (std::size_t r = 0; r < routers.size(); ++r) {
      row[r] = static_cast<std::int8_t>(
          alive_to_chiplet_vl[static_cast<std::size_t>(
              result.selection[r])]);
    }
    table.per_mask_[mask] = std::move(row);
  }
  return table;
}

int ChipletVlTable::selected_vl(std::uint32_t mask, NodeId router) const {
  require(valid_mask(mask), "selected_vl: disconnected fault mask");
  const int local = static_cast<int>(router - first_router_);
  require(local >= 0 && local < num_routers_,
          "selected_vl: router not on this chiplet");
  return per_mask_[mask][static_cast<std::size_t>(local)];
}

bool ChipletVlTable::valid_mask(std::uint32_t mask) const {
  return mask < per_mask_.size() && !per_mask_[mask].empty();
}

int ChipletVlTable::faulty_entry_count() const {
  int count = 0;
  for (std::size_t mask = 1; mask < per_mask_.size(); ++mask) {
    if (!per_mask_[mask].empty()) {
      ++count;
    }
  }
  return count;
}

SystemVlTables SystemVlTables::build(const Topology& topo, Rng& rng,
                                     double rho) {
  // Under uniform traffic the down and up tables of a chiplet pose the same
  // problems, and chiplets of one geometry share them all: each distinct
  // problem is solved once per build.
  SystemVlTables tables;
  ChipletVlTable::SolveMemo memo;
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    tables.down_.push_back(ChipletVlTable::build_with(
        topo, c, VlTableSide::down, rng, {}, rho, &memo));
    tables.up_.push_back(ChipletVlTable::build_with(
        topo, c, VlTableSide::up, rng, {}, rho, &memo));
  }
  return tables;
}

}  // namespace deft
