#include "routing/mtr_routing.hpp"

#include <algorithm>
#include <bit>
#include <deque>

#include "common/simd.hpp"

#include "routing/cdg.hpp"

namespace deft {

namespace {

bool is_vertical(const Channel& c) {
  return c.src_port == Port::up || c.src_port == Port::down;
}

/// The pre-synthesis turn rule: XY inside every mesh, vertical reversals
/// forbidden, every other vertical-adjacent turn initially allowed.
bool initial_turn_allowed(const Channel& in, const Channel& out) {
  if (is_horizontal(in.src_port) && is_horizontal(out.src_port)) {
    return xy_turn_allowed(in, out);
  }
  if (is_vertical(in) && is_vertical(out)) {
    return false;  // down->up / up->down through one boundary router
  }
  return true;
}

std::uint64_t turn_key(ChannelId in, ChannelId out) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(in)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(out));
}

/// Shared credit-class winner tables: kWinnerK[c0][c1](..) is the index
/// of the first maximum among K candidate credit classes - the bucketed
/// form of "prefer the port with the most free downstream credits,
/// first-in-successor-order wins ties". One table per candidate count,
/// shared by every (line node, dst) entry; entries with more than three
/// candidates (rare: a mesh router offers at most a handful of minimal
/// continuations) fall back to the scan.
constexpr auto kWinner2 = [] {
  std::array<std::uint8_t, kCreditClasses * kCreditClasses> t{};
  for (int a = 0; a < kCreditClasses; ++a) {
    for (int b = 0; b < kCreditClasses; ++b) {
      t[static_cast<std::size_t>(a * kCreditClasses + b)] = b > a ? 1 : 0;
    }
  }
  return t;
}();

constexpr auto kWinner3 = [] {
  std::array<std::uint8_t, kCreditClasses * kCreditClasses * kCreditClasses>
      t{};
  for (int a = 0; a < kCreditClasses; ++a) {
    for (int b = 0; b < kCreditClasses; ++b) {
      for (int c = 0; c < kCreditClasses; ++c) {
        int winner = 0;
        int best = a;
        if (b > best) {
          winner = 1;
          best = b;
        }
        if (c > best) {
          winner = 2;
        }
        t[static_cast<std::size_t>((a * kCreditClasses + b) * kCreditClasses +
                                   c)] = static_cast<std::uint8_t>(winner);
      }
    }
  }
  return t;
}();

/// Credit class of one candidate port under `view`: the clamp is a no-op
/// for the mesh/vertical ports MTR tie-breaks over (kMaxPortCredits bounds
/// them), so bucketing never merges two distinct credit values.
int credit_class(const RouterView& view, std::uint8_t port) {
  const int credits = view.free_credits[port];
  return credits > kMaxPortCredits ? kMaxPortCredits : credits;
}

}  // namespace

MtrPlan::MtrPlan(const Topology& topo) : topo_(&topo) {
  require(topo.num_vls() <= 64,
          "MtrPlan: at most 64 vertical links (leg tables are 64-bit VL "
          "masks)");
  endpoint_index_.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
  for (std::size_t i = 0; i < topo.endpoints().size(); ++i) {
    endpoint_index_[static_cast<std::size_t>(topo.endpoints()[i])] =
        static_cast<int>(i);
  }
  const SynthesisGraphs graphs = make_synthesis_graphs();
  synthesize_restrictions(graphs);
  line_graph_ = std::make_unique<LineGraph>(
      topo, [this](const Topology&, const Channel& in, const Channel& out) {
        return turn_allowed(in.id, out.id);
      });
  check(connectivity_preserved(),
        "MtrPlan: synthesis broke endpoint connectivity");
  build_route_tables();
  build_pair_combos(graphs);
}

bool MtrPlan::turn_allowed(ChannelId in, ChannelId out) const {
  const Channel& cin = topo_->channel(in);
  const Channel& cout = topo_->channel(out);
  if (!initial_turn_allowed(cin, cout)) {
    return false;
  }
  return forbidden_.find(turn_key(in, out)) == forbidden_.end();
}

void MtrPlan::channel_turn_adjacency(
    const SynthesisGraphs& graphs,
    std::vector<std::vector<int>>& adj) const {
  adj.resize(graphs.turns.size());
  for (std::size_t in = 0; in < graphs.turns.size(); ++in) {
    adj[in].clear();
    for (int out : graphs.turns[in]) {
      if (!restricted(graphs, static_cast<int>(in), out)) {
        adj[in].push_back(out);
      }
    }
  }
}

bool MtrPlan::connectivity_preserved() const {
  // Every endpoint must reach every other endpoint inside the allowed-turn
  // graph. One BFS per source endpoint over the line graph.
  const LineGraph graph(
      *topo_, [this](const Topology&, const Channel& in, const Channel& out) {
        return turn_allowed(in.id, out.id);
      });
  std::vector<char> seen;
  std::deque<int> queue;
  for (NodeId s : topo_->endpoints()) {
    seen.assign(static_cast<std::size_t>(graph.size()), 0);
    queue.clear();
    const int start = graph.injection_node(s);
    seen[static_cast<std::size_t>(start)] = 1;
    queue.push_back(start);
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      for (int next : graph.successors(cur)) {
        if (!seen[static_cast<std::size_t>(next)]) {
          seen[static_cast<std::size_t>(next)] = 1;
          queue.push_back(next);
        }
      }
    }
    for (NodeId d : topo_->endpoints()) {
      if (d != s &&
          !seen[static_cast<std::size_t>(graph.ejection_node(d))]) {
        return false;
      }
    }
  }
  return true;
}

bool MtrPlan::try_synthesize(const SynthesisGraphs& graphs, Rng* shuffle) {
  // Greedy cycle breaking: while the channel turn graph has a cycle, forbid
  // one restrictable turn on it whose removal keeps every endpoint pair
  // connected. Cycles cannot live inside a single mesh (XY is acyclic), so
  // every cycle crosses a vertical channel and offers restrictable turns.
  forbidden_.clear();
  std::vector<std::vector<int>> adj;
  while (true) {
    std::vector<int> cycle;
    channel_turn_adjacency(graphs, adj);
    if (is_acyclic(adj, &cycle)) {
      return true;
    }
    std::vector<std::pair<ChannelId, ChannelId>> candidates;
    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
      const ChannelId a = cycle[i];
      const ChannelId b = cycle[i + 1];
      if (is_vertical(topo_->channel(a)) || is_vertical(topo_->channel(b))) {
        candidates.emplace_back(a, b);  // intra-mesh XY turns stay untouched
      }
    }
    if (shuffle != nullptr) {
      for (std::size_t i = candidates.size(); i > 1; --i) {
        std::swap(candidates[i - 1], candidates[shuffle->uniform(i)]);
      }
    }
    bool restricted = false;
    for (const auto& [a, b] : candidates) {
      forbidden_.insert(turn_key(a, b));
      if (leg_connectivity_ok(compute_leg_tables(graphs))) {
        restricted = true;
        break;
      }
      forbidden_.erase(turn_key(a, b));
    }
    if (!restricted) {
      return false;  // greedy wedged itself; caller restarts with a shuffle
    }
  }
}

void MtrPlan::synthesize_restrictions(const SynthesisGraphs& graphs) {
  // First-fit order is deterministic and usually converges; when it wedges
  // (every restrictable turn on some cycle has become load-bearing),
  // restart with seeded random candidate orders. The seed sequence is
  // fixed, so the resulting plan is still deterministic per topology.
  if (try_synthesize(graphs, nullptr)) {
    return;
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    if (try_synthesize(graphs, &rng)) {
      return;
    }
  }
  check(false,
        "MtrPlan: turn-restriction synthesis failed to converge on this "
        "topology");
}

void MtrPlan::build_route_tables() {
  // Reverse BFS from every endpoint's ejection node gives minimal
  // allowed-path distances for all line nodes.
  const int n = line_graph_->size();
  std::vector<std::vector<int>> pred(static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    for (int s : line_graph_->successors(l)) {
      pred[static_cast<std::size_t>(s)].push_back(l);
    }
  }
  dist_.assign(topo_->endpoints().size(),
               std::vector<std::uint16_t>(static_cast<std::size_t>(n),
                                          kUnreachable));
  std::deque<int> queue;
  for (std::size_t d = 0; d < topo_->endpoints().size(); ++d) {
    auto& dist = dist_[d];
    const int target =
        line_graph_->ejection_node(topo_->endpoints()[d]);
    dist[static_cast<std::size_t>(target)] = 0;
    queue.clear();
    queue.push_back(target);
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      for (int p : pred[static_cast<std::size_t>(cur)]) {
        if (dist[static_cast<std::size_t>(p)] == kUnreachable) {
          dist[static_cast<std::size_t>(p)] = static_cast<std::uint16_t>(
              dist[static_cast<std::size_t>(cur)] + 1);
          queue.push_back(p);
        }
      }
    }
  }
}

std::uint16_t MtrPlan::distance(int line_node, NodeId dst) const {
  const int d = endpoint_index(dst);
  require(d >= 0, "MtrPlan::distance: dst is not an endpoint");
  return dist_[static_cast<std::size_t>(d)][static_cast<std::size_t>(line_node)];
}

MtrPlan::SynthesisGraphs MtrPlan::make_synthesis_graphs() const {
  // Inter-chiplet MTR routes cross exactly once: source mesh -> one down
  // VL -> interposer -> one up VL -> destination mesh. Each leg is
  // explored on a graph that forbids any other vertical channel, so a
  // combination recorded here never silently depends on a third vertical
  // channel: combo-alive implies deliverable under the fault pattern.
  const auto leg_graph = [this](auto edge_ok) {
    return LineGraph(*topo_, [edge_ok](const Topology&, const Channel& in,
                                       const Channel& out) {
      return edge_ok(in, out) && initial_turn_allowed(in, out);
    });
  };
  SynthesisGraphs graphs{
      .turns = {},
      // Source leg: walks may not continue past any vertical channel (the
      // first vertical reached is the descent, or the ascent for
      // interposer sources).
      .src = leg_graph(
          [](const Channel& in, const Channel&) { return !is_vertical(in); }),
      // Interposer leg: down -> interposer horizontals -> up only.
      .mid = leg_graph([this](const Channel& in, const Channel& out) {
        const bool in_ih = is_horizontal(in.src_port) &&
                           topo_->node(in.src).chiplet == kInterposer;
        const bool out_ih = is_horizontal(out.src_port) &&
                            topo_->node(out.src).chiplet == kInterposer;
        if (in.src_port == Port::down) {
          return out_ih || out.src_port == Port::up;
        }
        return in_ih && (out_ih || out.src_port == Port::up);
      }),
      // Destination leg: up -> destination-mesh horizontals -> ejection.
      .dst = leg_graph([](const Channel& in, const Channel& out) {
        return !is_vertical(out) &&
               (in.src_port == Port::up || is_horizontal(in.src_port));
      }),
      .down_vl = {},
      .up_vl = {},
      .ej_endpoint = {},
      .vertical = {},
  };
  // Same line-node id layout in all three graphs.
  const std::size_t n = static_cast<std::size_t>(graphs.src.size());
  graphs.down_vl.assign(n, kInvalidVl);
  graphs.up_vl.assign(n, kInvalidVl);
  for (const VerticalLink& vl : topo_->vls()) {
    graphs.down_vl[static_cast<std::size_t>(vl.down_channel)] = vl.id;
    graphs.up_vl[static_cast<std::size_t>(vl.up_channel)] = vl.id;
  }
  graphs.ej_endpoint.assign(n, -1);
  for (std::size_t e = 0; e < topo_->endpoints().size(); ++e) {
    graphs.ej_endpoint[static_cast<std::size_t>(
        graphs.src.ejection_node(topo_->endpoints()[e]))] =
        static_cast<int>(e);
  }
  graphs.vertical.assign(n, 0);
  graphs.turns.resize(static_cast<std::size_t>(topo_->num_channels()));
  for (ChannelId in = 0; in < topo_->num_channels(); ++in) {
    const Channel& cin = topo_->channel(in);
    graphs.vertical[static_cast<std::size_t>(in)] = is_vertical(cin) ? 1 : 0;
    for (int p = 0; p < kNumPorts; ++p) {
      const ChannelId out = topo_->out_channel(cin.dst, static_cast<Port>(p));
      if (out != kInvalidChannel &&
          initial_turn_allowed(cin, topo_->channel(out))) {
        graphs.turns[static_cast<std::size_t>(in)].push_back(out);
      }
    }
  }
  return graphs;
}

bool MtrPlan::restricted(const SynthesisGraphs& graphs, int in,
                         int out) const {
  return (graphs.vertical[static_cast<std::size_t>(in)] != 0 ||
          graphs.vertical[static_cast<std::size_t>(out)] != 0) &&
         forbidden_.find(turn_key(in, out)) != forbidden_.end();
}

MtrPlan::LegTables MtrPlan::compute_leg_tables(
    const SynthesisGraphs& graphs) const {
  const std::size_t num_ep = topo_->endpoints().size();
  const std::size_t num_vls = static_cast<std::size_t>(topo_->num_vls());
  LegTables legs;
  legs.src_downs.assign(num_ep, 0);
  legs.src_ups.assign(num_ep, 0);
  legs.mid_ups.assign(num_vls, 0);
  legs.mid_ej.assign(num_vls, std::vector<char>(num_ep, 0));
  legs.dst_ej.assign(num_vls, std::vector<char>(num_ep, 0));

  // Every table entry is a set (bitmask or flag) of what a walk reaches,
  // so the walk order is irrelevant: skipping forbidden turns here yields
  // exactly the tables of graphs built under the current restriction set.
  std::vector<char> seen;
  std::vector<int> queue;
  const auto bfs = [&](const LineGraph& g, int start, auto&& on_node) {
    seen.assign(static_cast<std::size_t>(g.size()), 0);
    queue.clear();
    queue.push_back(start);
    seen[static_cast<std::size_t>(start)] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int cur = queue[head];
      on_node(cur);
      for (int next : g.successors_flat(cur)) {
        if (!seen[static_cast<std::size_t>(next)] &&
            !restricted(graphs, cur, next)) {
          seen[static_cast<std::size_t>(next)] = 1;
          queue.push_back(next);
        }
      }
    }
  };

  const auto& down_vl = graphs.down_vl;
  const auto& up_vl = graphs.up_vl;
  const auto& ej_endpoint = graphs.ej_endpoint;
  const LineGraph& g_src = graphs.src;
  const LineGraph& g_mid = graphs.mid;
  const LineGraph& g_dst = graphs.dst;
  for (std::size_t e = 0; e < num_ep; ++e) {
    bfs(g_src, g_src.injection_node(topo_->endpoints()[e]), [&](int cur) {
      if (!g_src.is_channel(cur)) {
        return;
      }
      if (down_vl[static_cast<std::size_t>(cur)] != kInvalidVl) {
        legs.src_downs[e] |= std::uint64_t{1}
                             << down_vl[static_cast<std::size_t>(cur)];
      }
      if (up_vl[static_cast<std::size_t>(cur)] != kInvalidVl) {
        legs.src_ups[e] |= std::uint64_t{1}
                           << up_vl[static_cast<std::size_t>(cur)];
      }
    });
  }
  for (const VerticalLink& vl : topo_->vls()) {
    bfs(g_mid, vl.down_channel, [&](int cur) {
      if (g_mid.is_channel(cur)) {
        if (up_vl[static_cast<std::size_t>(cur)] != kInvalidVl) {
          legs.mid_ups[static_cast<std::size_t>(vl.id)] |=
              std::uint64_t{1} << up_vl[static_cast<std::size_t>(cur)];
        }
      } else if (ej_endpoint[static_cast<std::size_t>(cur)] >= 0) {
        legs.mid_ej[static_cast<std::size_t>(vl.id)][static_cast<std::size_t>(
            ej_endpoint[static_cast<std::size_t>(cur)])] = 1;
      }
    });
    bfs(g_dst, vl.up_channel, [&](int cur) {
      if (!g_dst.is_channel(cur) &&
          ej_endpoint[static_cast<std::size_t>(cur)] >= 0) {
        legs.dst_ej[static_cast<std::size_t>(vl.id)][static_cast<std::size_t>(
            ej_endpoint[static_cast<std::size_t>(cur)])] = 1;
      }
    });
  }
  return legs;
}

bool MtrPlan::leg_connectivity_ok(const LegTables& legs) const {
  // Every different-mesh endpoint pair must keep at least one
  // single-crossing route; same-mesh pairs ride plain (unrestricted) XY.
  // Bitmasks by VlId turn each pair's search over (down, up) VL
  // combinations into one AND: the VLs of each chiplet, and per
  // destination the down VLs whose interposer leg ejects there and the up
  // VLs whose destination leg does.
  const std::size_t num_ep = topo_->endpoints().size();
  std::vector<std::uint64_t> chiplet_vls(
      static_cast<std::size_t>(topo_->num_chiplets()), 0);
  std::vector<std::uint64_t> downs_to(num_ep, 0);
  std::vector<std::uint64_t> ups_to(num_ep, 0);
  for (const VerticalLink& vl : topo_->vls()) {
    const std::uint64_t bit = std::uint64_t{1} << vl.id;
    chiplet_vls[static_cast<std::size_t>(vl.chiplet)] |= bit;
    const auto id = static_cast<std::size_t>(vl.id);
    for (std::size_t d = 0; d < num_ep; ++d) {
      if (legs.mid_ej[id][d] != 0) {
        downs_to[d] |= bit;
      }
      if (legs.dst_ej[id][d] != 0) {
        ups_to[d] |= bit;
      }
    }
  }
  for (std::size_t s = 0; s < num_ep; ++s) {
    const int src_chiplet = topo_->node(topo_->endpoints()[s]).chiplet;
    // A chiplet source descends through `downs`; those descents reach
    // the interposer ascents `ups`. An interposer source ascends directly.
    std::uint64_t downs = 0;
    std::uint64_t ups = legs.src_ups[s];
    if (src_chiplet != kInterposer) {
      downs = legs.src_downs[s] &
              chiplet_vls[static_cast<std::size_t>(src_chiplet)];
      ups = 0;
      for (std::uint64_t m = downs; m != 0; m &= m - 1) {
        ups |= legs.mid_ups[static_cast<std::size_t>(std::countr_zero(m))];
      }
    }
    for (std::size_t d = 0; d < num_ep; ++d) {
      const int dst_chiplet = topo_->node(topo_->endpoints()[d]).chiplet;
      if (s == d || src_chiplet == dst_chiplet) {
        continue;
      }
      const bool connected =
          dst_chiplet == kInterposer
              ? (downs & downs_to[d]) != 0
              : (ups & chiplet_vls[static_cast<std::size_t>(dst_chiplet)] &
                 ups_to[d]) != 0;
      if (!connected) {
        return false;
      }
    }
  }
  return true;
}

void MtrPlan::build_pair_combos(const SynthesisGraphs& graphs) {
  // Reachability semantics for Fig. 7: a pair survives a fault pattern
  // when MTR, keeping its design-time turn restrictions but aware of the
  // faults, can still deliver through some single-crossing route whose
  // two vertical channels are alive. The synthesis guaranteed at least
  // one combination per pair fault-free (leg_connectivity_ok).
  const LegTables legs = compute_leg_tables(graphs);
  const std::size_t num_ep = topo_->endpoints().size();
  combos_.assign(num_ep * num_ep, 0);
  for (std::size_t s = 0; s < num_ep; ++s) {
    const int src_chiplet = topo_->node(topo_->endpoints()[s]).chiplet;
    for (std::size_t d = 0; d < num_ep; ++d) {
      const int dst_chiplet = topo_->node(topo_->endpoints()[d]).chiplet;
      if (s == d || src_chiplet == dst_chiplet) {
        continue;
      }
      std::uint64_t combo = 0;
      if (src_chiplet != kInterposer && dst_chiplet != kInterposer) {
        for (VlId dn : topo_->chiplet_vls(src_chiplet)) {
          if ((legs.src_downs[s] & (std::uint64_t{1} << dn)) == 0) {
            continue;
          }
          for (VlId up : topo_->chiplet_vls(dst_chiplet)) {
            if ((legs.mid_ups[static_cast<std::size_t>(dn)] &
                 (std::uint64_t{1} << up)) != 0 &&
                legs.dst_ej[static_cast<std::size_t>(up)][d] != 0) {
              combo |= std::uint64_t{1}
                       << (8 * topo_->vl(dn).index_in_chiplet +
                           topo_->vl(up).index_in_chiplet);
            }
          }
        }
      } else if (dst_chiplet == kInterposer) {
        for (VlId dn : topo_->chiplet_vls(src_chiplet)) {
          if ((legs.src_downs[s] & (std::uint64_t{1} << dn)) != 0 &&
              legs.mid_ej[static_cast<std::size_t>(dn)][d] != 0) {
            combo |= std::uint64_t{1} << topo_->vl(dn).index_in_chiplet;
          }
        }
      } else {
        for (VlId up : topo_->chiplet_vls(dst_chiplet)) {
          if ((legs.src_ups[s] & (std::uint64_t{1} << up)) != 0 &&
              legs.dst_ej[static_cast<std::size_t>(up)][d] != 0) {
            combo |= std::uint64_t{1} << topo_->vl(up).index_in_chiplet;
          }
        }
      }
      combos_[s * num_ep + d] = combo;
    }
  }
}

std::uint64_t MtrPlan::pair_combos(NodeId src, NodeId dst) const {
  const int s = endpoint_index(src);
  const int d = endpoint_index(dst);
  require(s >= 0 && d >= 0, "pair_combos: not endpoint nodes");
  return combos_[static_cast<std::size_t>(s) * topo_->endpoints().size() +
                 static_cast<std::size_t>(d)];
}

MtrRouting::MtrRouting(std::shared_ptr<const MtrPlan> plan, VlFaultSet faults,
                       int num_vcs)
    : plan_(std::move(plan)), num_vcs_(num_vcs) {
  require(plan_ != nullptr, "MtrRouting: plan required");
  require(num_vcs_ >= 1 && num_vcs_ <= kMaxVcs, "MtrRouting: bad VC count");
  set_faults(faults);
}

void MtrRouting::set_faults(const VlFaultSet& faults) {
  static_assert(kMaxVlsPerChiplet <= 8,
                "alive VL masks and pair combo bits hold 8 VLs per chiplet");
  faults_ = faults;
  const Topology& topo = plan_->topo();
  alive_down_.clear();
  alive_up_.clear();
  for (int c = 0; c < topo.num_chiplets(); ++c) {
    const auto n = topo.chiplet_vls(c).size();
    alive_down_.push_back(static_cast<std::uint8_t>(
        ~faults_.chiplet_down_mask(topo, c) & ((1u << n) - 1u)));
    alive_up_.push_back(static_cast<std::uint8_t>(
        ~faults_.chiplet_up_mask(topo, c) & ((1u << n) - 1u)));
  }
  rebuild_fault_tables();
  rebuild_route_cache();
}

void MtrRouting::rebuild_fault_tables() {
  fault_dist_.clear();
  const Topology& topo = plan_->topo();
  if (!faults_.empty()) {
    // Reverse BFS over the allowed-turn line graph with faulty vertical
    // channels removed: the design-time dist_ tables would otherwise steer
    // minimal routes into dead channels. This runs once per fault
    // scenario (set_faults is sweep drivers' per-point path), so the
    // predecessor graph is built flat (CSR) and the per-endpoint BFS
    // reuses one frontier buffer - no per-node heap vectors.
    const LineGraph& graph = plan_->line_graph();
    const std::size_t n = static_cast<std::size_t>(graph.size());
    std::vector<char>& faulty = scratch_faulty_;
    faulty.assign(n, 0);
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      const VlChannelId vc = topo.channel(c).vl_channel;
      faulty[static_cast<std::size_t>(c)] =
          vc >= 0 && faults_.is_faulty(vc) ? 1 : 0;
    }
    std::vector<std::size_t>& pred_off = scratch_pred_off_;
    pred_off.assign(n + 1, 0);
    for (std::size_t l = 0; l < n; ++l) {
      if (faulty[l]) {
        continue;
      }
      for (int s : graph.successors_flat(static_cast<int>(l))) {
        if (!faulty[static_cast<std::size_t>(s)]) {
          ++pred_off[static_cast<std::size_t>(s) + 1];
        }
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      pred_off[l + 1] += pred_off[l];
    }
    std::vector<int>& pred = scratch_pred_;
    pred.assign(pred_off.back(), 0);
    std::vector<std::size_t>& fill = scratch_fill_;
    fill.assign(pred_off.begin(), pred_off.end());
    for (std::size_t l = 0; l < n; ++l) {
      if (faulty[l]) {
        continue;
      }
      for (int s : graph.successors_flat(static_cast<int>(l))) {
        if (!faulty[static_cast<std::size_t>(s)]) {
          pred[fill[static_cast<std::size_t>(s)]++] = static_cast<int>(l);
        }
      }
    }
    fault_dist_.assign(topo.endpoints().size() * n, MtrPlan::kUnreachable);
    std::vector<int>& frontier = scratch_frontier_;
    frontier.reserve(n);
    for (std::size_t d = 0; d < topo.endpoints().size(); ++d) {
      std::uint16_t* dist = fault_dist_.data() + d * n;
      const int target = graph.ejection_node(topo.endpoints()[d]);
      dist[target] = 0;
      frontier.clear();
      frontier.push_back(target);
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const int cur = frontier[head];
        const std::uint16_t next_dist =
            static_cast<std::uint16_t>(dist[cur] + 1);
        for (std::size_t i = pred_off[static_cast<std::size_t>(cur)];
             i < pred_off[static_cast<std::size_t>(cur) + 1]; ++i) {
          const int p = pred[i];
          if (dist[p] == MtrPlan::kUnreachable) {
            dist[p] = next_dist;
            frontier.push_back(p);
          }
        }
      }
    }
  }
}

std::uint16_t MtrRouting::dist(int line_node, NodeId dst) const {
  if (fault_dist_.empty()) {
    return plan_->distance(line_node, dst);
  }
  const int d = plan_->endpoint_index(dst);
  require(d >= 0, "MtrRouting::dist: dst is not an endpoint");
  return fault_dist_[static_cast<std::size_t>(d) *
                         static_cast<std::size_t>(plan_->line_graph().size()) +
                     static_cast<std::size_t>(line_node)];
}

bool MtrRouting::prepare_packet(PacketRoute& route,
                                CounterRng* /*stream*/) {
  // MTR has no per-packet intermediate destinations: the route tables
  // already encode the (fixed) VL choices. Any VC may be used anywhere.
  route.down_node = kInvalidNode;
  route.up_exit = kInvalidNode;
  route.rc_absorb = false;
  route.initial_vcs = all_vcs_mask(num_vcs_);
  if (!pair_reachable(route.src, route.dst)) {
    return false;
  }
  // Belt and braces: the combo masks and the fault-aware line-graph BFS
  // must agree, but only the latter is what route() follows.
  return dist(plan_->line_graph().injection_node(route.src), route.dst) !=
         MtrPlan::kUnreachable;
}

void MtrRouting::rebuild_route_cache() {
  // Flatten the per-hop successor scan into one table lookup: for every
  // (line node, destination endpoint) record the minimal continuations in
  // allowed-turn successor order, and fully resolve the decision whenever
  // it is credit-independent (ejection, or exactly one continuation).
  // route() then answers single-candidate hops straight from the entry
  // and resolves multi-candidate hops through the shared credit-class
  // winner tables, visiting candidates in the order the uncached scan did
  // - the adaptive choices stay bit-identical. Rebuilt whenever
  // set_faults() swaps the fault scenario (the distances the cache
  // derives from change with the scenario).
  const Topology& topo = plan_->topo();
  const LineGraph& graph = plan_->line_graph();
  const std::size_t n = static_cast<std::size_t>(graph.size());
  const auto& endpoints = topo.endpoints();
  route_cache_.assign(endpoints.size() * n, RouteEntry{});
  const VcMask vcs = all_vcs_mask(num_vcs_);
  for (std::size_t d = 0; d < endpoints.size(); ++d) {
    const NodeId dst = endpoints[d];
    // The row scan is the rebuild's hot filter: most line nodes of most
    // rows are 0 or kUnreachable and contribute no entry. The SIMD row
    // kernel tests 8 distances at once against exactly the predicate the
    // scalar branch used, and set bits are consumed in ascending line-node
    // order - the order of the plain loop - so the built cache is
    // byte-identical. `row` is the very storage dist() indexes, hence
    // `here` below equals dist(l, dst).
    const std::uint16_t* row =
        fault_dist_.empty() ? plan_->distance_row(d) : fault_dist_.data() + d * n;
    const auto build_entry = [&](std::size_t l, std::uint16_t here) {
      RouteEntry& entry = route_cache_[d * n + l];
      entry.decision.vcs = vcs;
      for (int s : graph.successors_flat(static_cast<int>(l))) {
        if (dist(s, dst) != here - 1) {
          continue;
        }
        if (!graph.is_channel(s)) {
          // Ejection wins immediately; later candidates are never visited.
          entry.eject = true;
          break;
        }
        check(entry.count < entry.ports.size(),
              "MtrRouting: more minimal continuations than RouteEntry holds");
        entry.ports[entry.count++] = static_cast<std::uint8_t>(
            port_index(topo.channel(static_cast<ChannelId>(s)).src_port));
      }
      if (entry.eject) {
        entry.decision.out_port = Port::local;  // ejection node of dst
      } else if (entry.count == 1) {
        entry.decision.out_port = static_cast<Port>(entry.ports[0]);
      }
    };
    std::size_t l = 0;
    for (; l + 8 <= n; l += 8) {
      for (std::uint32_t mask = simd::routable_mask8(row + l); mask != 0;
           mask &= mask - 1) {
        const std::size_t j = l + static_cast<std::size_t>(
                                      std::countr_zero(mask));
        build_entry(j, row[j]);
      }
    }
    for (; l < n; ++l) {  // scalar tail: rows are rarely multiples of 8
      if (row[l] != 0 && row[l] != MtrPlan::kUnreachable) {
        build_entry(l, row[l]);
      }
    }
  }
}

const MtrRouting::RouteEntry& MtrRouting::entry_for(NodeId node, Port in_port,
                                                    NodeId dst) const {
  const LineGraph& graph = plan_->line_graph();
  int line_node;
  if (in_port == Port::local) {
    line_node = graph.injection_node(node);
  } else {
    const ChannelId in = plan_->topo().in_channel(node, in_port);
    check(in != kInvalidChannel, "MtrRouting: no channel on input port");
    line_node = graph.channel_node(in);
  }
  const int d = plan_->endpoint_index(dst);
  check(d >= 0, "MtrRouting: dst is not an endpoint");
  return route_cache_[static_cast<std::size_t>(d) *
                          static_cast<std::size_t>(graph.size()) +
                      static_cast<std::size_t>(line_node)];
}

bool MtrRouting::route_needs_view(NodeId node, Port in_port,
                                  const PacketRoute& rt) const {
  const RouteEntry& entry = entry_for(node, in_port, rt.dst);
  return !entry.eject && entry.count >= 2;
}

RouteDecision MtrRouting::route(NodeId node, Port in_port, int in_vc,
                                const PacketRoute& rt,
                                const RouterView& view) const {
  (void)in_vc;
  const RouteEntry& entry = entry_for(node, in_port, rt.dst);

  // Credit-independent hops (ejection or a forced continuation) were
  // resolved at cache-build time.
  if (entry.eject || entry.count == 1) {
    return entry.decision;
  }
  check(entry.count > 0, "MtrRouting: routing from an unreachable line node");

  // Adaptive tie-break among the memoized minimal continuations: prefer
  // the port with the most free downstream credits, first in successor
  // order on ties - table-driven over the candidates' credit classes.
  RouteDecision decision = entry.decision;
  int winner;
  if (entry.count == 2) {
    winner = kWinner2[static_cast<std::size_t>(
        credit_class(view, entry.ports[0]) * kCreditClasses +
        credit_class(view, entry.ports[1]))];
  } else if (entry.count == 3) {
    winner = kWinner3[static_cast<std::size_t>(
        (credit_class(view, entry.ports[0]) * kCreditClasses +
         credit_class(view, entry.ports[1])) *
            kCreditClasses +
        credit_class(view, entry.ports[2]))];
  } else {
    winner = 0;
    int best_credits = view.free_credits[entry.ports[0]];
    for (int i = 1; i < entry.count; ++i) {
      const int credits = view.free_credits[entry.ports[i]];
      if (credits > best_credits) {
        best_credits = credits;
        winner = i;
      }
    }
  }
  decision.out_port = static_cast<Port>(entry.ports[winner]);
  return decision;
}

bool MtrRouting::hop_viable(NodeId node, Port in_port,
                            const PacketRoute& rt) const {
  const LineGraph& graph = plan_->line_graph();
  int line_node;
  if (in_port == Port::local) {
    line_node = graph.injection_node(node);
  } else {
    const ChannelId in = plan_->topo().in_channel(node, in_port);
    check(in != kInvalidChannel, "MtrRouting: no channel on input port");
    line_node = graph.channel_node(in);
  }
  return dist(line_node, rt.dst) != MtrPlan::kUnreachable;
}

std::uint64_t MtrRouting::pair_combo_mask(NodeId src, NodeId dst) const {
  const Topology& topo = plan_->topo();
  if (src == dst || topo.node(src).chiplet == topo.node(dst).chiplet) {
    return kAlwaysReachable;
  }
  return plan_->pair_combos(src, dst);
}

bool MtrRouting::pair_reachable(NodeId src, NodeId dst) const {
  const Topology& topo = plan_->topo();
  const Node& s = topo.node(src);
  const Node& d = topo.node(dst);
  if (src == dst || s.chiplet == d.chiplet) {
    return true;
  }
  const std::uint64_t combos = plan_->pair_combos(src, dst);
  if (s.chiplet != kInterposer && d.chiplet != kInterposer) {
    // Joint mask: bit (down_idx * 8 + up_idx) usable.
    std::uint64_t alive = 0;
    const std::uint8_t downs = alive_down_[static_cast<std::size_t>(s.chiplet)];
    const std::uint8_t ups = alive_up_[static_cast<std::size_t>(d.chiplet)];
    for (int dn = 0; dn < 8; ++dn) {
      if (downs & (1u << dn)) {
        alive |= static_cast<std::uint64_t>(ups) << (8 * dn);
      }
    }
    return (combos & alive) != 0;
  }
  if (s.chiplet != kInterposer) {
    return (combos & alive_down_[static_cast<std::size_t>(s.chiplet)]) != 0;
  }
  return (combos & alive_up_[static_cast<std::size_t>(d.chiplet)]) != 0;
}

}  // namespace deft
