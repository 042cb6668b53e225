// Offline VL-selection optimization (Algorithm 2 of the paper).
//
// The paper describes an exhaustive search over all selection sets; that is
// only feasible for tiny instances (the space is V^R). Three solvers are
// provided:
//
//  * exhaustive:   literal Algorithm 2, guarded to small V^R;
//  * composition:  exact for uniform traffic - enumerates the per-VL router
//                  counts (the load term depends only on counts), then
//                  solves the remaining distance minimization optimally as a
//                  min-cost assignment;
//  * anneal:       multi-restart simulated annealing for the general
//                  (non-uniform traffic) case, the "efficient search
//                  algorithm" the paper prescribes for larger spaces.
//
// optimize() picks the strongest applicable solver.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "vlsel/cost.hpp"

namespace deft {

struct VlSelectionResult {
  VlSelection selection;
  double cost = 0.0;
  const char* solver = "";
};

/// Literal Algorithm 2: enumerate every selection in S = V^R, depth-first
/// in lexicographic order; returns the lexicographically first optimum and
/// its selection_cost(), bit for bit. Requires V^R <= max_states (default
/// 2e6).
VlSelectionResult solve_exhaustive(const VlSelectionProblem& p,
                                   std::uint64_t max_states = 2'000'000);

/// Exact solver for uniform traffic: enumerates per-VL router-count
/// compositions and solves each as an assignment problem.
VlSelectionResult solve_composition(const VlSelectionProblem& p);

/// Multi-restart simulated annealing; general-purpose heuristic.
VlSelectionResult solve_anneal(const VlSelectionProblem& p, Rng& rng,
                               int restarts = 8, int iterations = 20'000);

/// Strongest applicable solver: exhaustive for tiny instances, composition
/// for uniform traffic, annealing otherwise.
VlSelectionResult optimize(const VlSelectionProblem& p, Rng& rng);

/// The distance-based baseline of Fig. 8 (DeFT-Dis.): every router picks
/// its closest alive VL (ties broken by lowest VL index).
VlSelection select_distance_based(const VlSelectionProblem& p);

}  // namespace deft
