#include "vlsel/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/combinatorics.hpp"
#include "vlsel/hungarian.hpp"

namespace deft {

VlSelectionResult solve_exhaustive(const VlSelectionProblem& p,
                                   std::uint64_t max_states) {
  const int R = p.num_routers();
  const int V = p.num_vls();
  require(V >= 1, "solve_exhaustive: need at least one VL");
  double states = 1.0;
  for (int r = 0; r < R; ++r) {
    states *= V;
    require(states <= static_cast<double>(max_states),
            "solve_exhaustive: V^R exceeds the state budget");
  }

  // Depth-first enumeration of all V^R selections in lexicographic order
  // (router 0 most significant). Each level adds its router to the per-VL
  // load and distance sums, so a leaf holds exactly the sums vl_load() and
  // vl_distance_cost() accumulate in router order, and scores them with
  // selection_cost()'s expression in its summation order: every state
  // costs O(V) instead of O(V^2 R) and the cost is bit-equal.
  VlSelection current(static_cast<std::size_t>(R), 0);
  validate_selection(p, current);
  std::vector<double> hops(static_cast<std::size_t>(R) * V);
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      hops[static_cast<std::size_t>(r * V + v)] =
          manhattan(p.routers[static_cast<std::size_t>(r)],
                    p.vls[static_cast<std::size_t>(v)]);
    }
  }
  std::vector<double> load(static_cast<std::size_t>(V), 0.0);
  std::vector<double> dist(static_cast<std::size_t>(V), 0.0);

  VlSelectionResult best;
  best.solver = "exhaustive";
  bool have_best = false;
  const auto score = [&] {
    double total = 0.0;
    for (int v = 0; v < V; ++v) {
      total += load[static_cast<std::size_t>(v)];
    }
    const double avg = total / V;
    double cost = 0.0;
    for (int v = 0; v < V; ++v) {
      const double load_cost =
          avg <= 0.0
              ? 0.0
              : std::abs(load[static_cast<std::size_t>(v)] - avg) / avg;
      cost += p.rho * dist[static_cast<std::size_t>(v)] + load_cost;
    }
    // The first state seeds the incumbent; later ones must strictly
    // improve, so ties keep the lexicographically first optimum.
    if (!have_best || cost < best.cost) {
      have_best = true;
      best.cost = cost;
      best.selection = current;
    }
  };
  const auto descend = [&](const auto& self, int r) -> void {
    if (r == R) {
      score();
      return;
    }
    const double traffic = p.traffic[static_cast<std::size_t>(r)];
    for (int v = 0; v < V; ++v) {
      double& l = load[static_cast<std::size_t>(v)];
      double& d = dist[static_cast<std::size_t>(v)];
      const double saved_load = l;
      const double saved_dist = d;
      l = saved_load + traffic;
      d = saved_dist + hops[static_cast<std::size_t>(r * V + v)];
      current[static_cast<std::size_t>(r)] = v;
      self(self, r + 1);
      l = saved_load;
      d = saved_dist;
    }
  };
  descend(descend, 0);
  return best;
}

VlSelectionResult solve_composition(const VlSelectionProblem& p) {
  require(p.traffic_is_uniform(),
          "solve_composition: requires uniform per-router traffic");
  const int R = p.num_routers();
  const int V = p.num_vls();
  require(R >= 1 && V >= 1, "solve_composition: empty problem");
  const double t = p.traffic.front();
  const double lavg = t * R / V;

  VlSelectionResult best;
  best.cost = std::numeric_limits<double>::infinity();
  best.solver = "composition";

  // Lower bound on the distance term: every router uses its closest VL.
  double distance_lb = 0.0;
  for (const Coord& r : p.routers) {
    int closest = std::numeric_limits<int>::max();
    for (const Coord& v : p.vls) {
      closest = std::min(closest, manhattan(r, v));
    }
    distance_lb += closest;
  }
  distance_lb *= p.rho;

  for_each_composition(R, V, [&](const std::vector<int>& counts) {
    // Load cost depends only on the counts under uniform traffic.
    double load_cost = 0.0;
    if (lavg > 0.0) {
      for (int v = 0; v < V; ++v) {
        load_cost +=
            std::abs(t * counts[static_cast<std::size_t>(v)] - lavg) / lavg;
      }
    }
    if (load_cost + distance_lb >= best.cost) {
      return true;  // cannot beat the incumbent even with ideal distances
    }
    // Min-total-distance assignment honouring the counts: replicate VL v
    // into counts[v] columns.
    std::vector<int> slot_vl;
    for (int v = 0; v < V; ++v) {
      for (int k = 0; k < counts[static_cast<std::size_t>(v)]; ++k) {
        slot_vl.push_back(v);
      }
    }
    std::vector<std::vector<double>> cost(
        static_cast<std::size_t>(R),
        std::vector<double>(slot_vl.size(), 0.0));
    for (int r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < slot_vl.size(); ++c) {
        cost[static_cast<std::size_t>(r)][c] =
            manhattan(p.routers[static_cast<std::size_t>(r)],
                      p.vls[static_cast<std::size_t>(slot_vl[c])]);
      }
    }
    double distance = 0.0;
    const std::vector<int> row_to_col = solve_assignment(cost, &distance);
    const double total = load_cost + p.rho * distance;
    if (total < best.cost) {
      best.cost = total;
      best.selection.assign(static_cast<std::size_t>(R), 0);
      for (int r = 0; r < R; ++r) {
        best.selection[static_cast<std::size_t>(r)] =
            slot_vl[static_cast<std::size_t>(
                row_to_col[static_cast<std::size_t>(r)])];
      }
    }
    return true;
  });
  return best;
}

namespace {

/// First-improvement hill climbing over single-router reassignments and
/// pairwise swaps (swaps keep the per-VL loads and escape load-neutral
/// distance misassignments); terminates at a local optimum.
void local_improve(const VlSelectionProblem& p, VlSelection& s,
                   double& cost) {
  const int R = p.num_routers();
  const int V = p.num_vls();
  bool improved = true;
  while (improved) {
    improved = false;
    for (int r = 0; r < R; ++r) {
      const int old_v = s[static_cast<std::size_t>(r)];
      for (int v = 0; v < V; ++v) {
        if (v == old_v) {
          continue;
        }
        s[static_cast<std::size_t>(r)] = v;
        const double cand = selection_cost(p, s);
        if (cand + 1e-12 < cost) {
          cost = cand;
          improved = true;
          break;  // keep the move, rescan from here
        }
        s[static_cast<std::size_t>(r)] = old_v;
      }
    }
    for (int a = 0; a < R && !improved; ++a) {
      for (int b = a + 1; b < R && !improved; ++b) {
        auto& va = s[static_cast<std::size_t>(a)];
        auto& vb = s[static_cast<std::size_t>(b)];
        if (va == vb) {
          continue;
        }
        std::swap(va, vb);
        const double cand = selection_cost(p, s);
        if (cand + 1e-12 < cost) {
          cost = cand;
          improved = true;
        } else {
          std::swap(va, vb);
        }
      }
    }
  }
}

}  // namespace

VlSelectionResult solve_anneal(const VlSelectionProblem& p, Rng& rng,
                               int restarts, int iterations) {
  const int R = p.num_routers();
  const int V = p.num_vls();
  require(R >= 1 && V >= 1, "solve_anneal: empty problem");

  VlSelectionResult best;
  best.cost = std::numeric_limits<double>::infinity();
  best.solver = "anneal";

  for (int restart = 0; restart < restarts; ++restart) {
    // Start from the distance-based selection on even restarts and a random
    // selection on odd ones; diverse starts escape distinct local minima.
    VlSelection cur = (restart % 2 == 0)
                          ? select_distance_based(p)
                          : VlSelection(static_cast<std::size_t>(R), 0);
    if (restart % 2 != 0) {
      for (int r = 0; r < R; ++r) {
        cur[static_cast<std::size_t>(r)] =
            static_cast<int>(rng.uniform(static_cast<std::uint64_t>(V)));
      }
    }
    double cur_cost = selection_cost(p, cur);
    // Scale the schedule to the cost magnitude so early moves explore and
    // late moves only descend.
    double temperature = std::max(0.2 * cur_cost, 1e-6);
    const double cooling = std::pow(1e-4, 1.0 / iterations);
    for (int it = 0; it < iterations; ++it) {
      // Neighbourhood: 50% single reassignment, 50% pairwise swap.
      const bool swap_move = R >= 2 && rng.bernoulli(0.5);
      int ra = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(R)));
      int rb = -1;
      int old_v = cur[static_cast<std::size_t>(ra)];
      if (swap_move) {
        rb = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(R)));
        if (rb == ra) {
          rb = (rb + 1) % R;
        }
        std::swap(cur[static_cast<std::size_t>(ra)],
                  cur[static_cast<std::size_t>(rb)]);
      } else {
        int new_v =
            static_cast<int>(rng.uniform(static_cast<std::uint64_t>(V)));
        if (new_v == old_v) {
          new_v = (new_v + 1) % V;
        }
        cur[static_cast<std::size_t>(ra)] = new_v;
      }
      const double cand_cost = selection_cost(p, cur);
      const double delta = cand_cost - cur_cost;
      if (delta <= 0.0 ||
          rng.uniform_real() < std::exp(-delta / std::max(temperature, 1e-9))) {
        cur_cost = cand_cost;
      } else if (swap_move) {
        std::swap(cur[static_cast<std::size_t>(ra)],
                  cur[static_cast<std::size_t>(rb)]);
      } else {
        cur[static_cast<std::size_t>(ra)] = old_v;
      }
      temperature *= cooling;
    }
    local_improve(p, cur, cur_cost);
    if (cur_cost < best.cost) {
      best.cost = cur_cost;
      best.selection = cur;
    }
  }
  return best;
}

VlSelectionResult optimize(const VlSelectionProblem& p, Rng& rng) {
  const int R = p.num_routers();
  const int V = p.num_vls();
  double states = 1.0;
  for (int r = 0; r < R && states <= 2'000'000.0; ++r) {
    states *= V;
  }
  if (states <= 2'000'000.0) {
    return solve_exhaustive(p);
  }
  if (p.traffic_is_uniform()) {
    return solve_composition(p);
  }
  return solve_anneal(p, rng);
}

VlSelection select_distance_based(const VlSelectionProblem& p) {
  VlSelection s(static_cast<std::size_t>(p.num_routers()), 0);
  for (int r = 0; r < p.num_routers(); ++r) {
    int best_v = 0;
    int best_d = std::numeric_limits<int>::max();
    for (int v = 0; v < p.num_vls(); ++v) {
      const int d = manhattan(p.routers[static_cast<std::size_t>(r)],
                              p.vls[static_cast<std::size_t>(v)]);
      if (d < best_d) {
        best_d = d;
        best_v = v;
      }
    }
    s[static_cast<std::size_t>(r)] = best_v;
  }
  return s;
}

}  // namespace deft
