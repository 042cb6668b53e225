#include "routing/mtr_routing.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <optional>

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

/// Synthesis's leg walks, kept incrementally. The roots are every
/// endpoint's source-leg walk (from its injection), then every VL's
/// interposer-leg walk (from its down channel), then every VL's
/// destination-leg walk (from its up channel). Each root keeps its visited
/// set as a bitset over line nodes, and every LegTables bit is owed to
/// exactly one (root, visited line node) pair, so the tables are a pure
/// function of the visited sets.
///
/// Forbidding the turn a -> b only removes an edge, so walks only shrink,
/// and a root's walk can change only if it visited `a` in a leg graph
/// where a -> b is an edge. try_forbid() re-walks just those roots, clears
/// the bits the lost nodes owed, and re-checks only the endpoint pairs
/// whose inputs changed: the previous restriction set kept every other
/// pair connected. The result equals walking every root from scratch.
class MtrPlan::LegSearch {
 public:
  /// Walks every root under `plan`'s current restriction set.
  LegSearch(const MtrPlan& plan, const SynthesisGraphs& graphs);

  /// Evaluates the turn a -> b, which the caller has just flagged in
  /// forbidden_: re-walks the roots it can change and returns whether
  /// every different-mesh endpoint pair keeps a single-crossing route.
  /// Commits the new walks and tables on true and restores them on false.
  /// Allocation-free once the scratch buffers have grown.
  bool try_forbid(int a, int b);

  LegTables take_legs() && { return std::move(legs_); }

 private:
  const LineGraph& graph_of(std::size_t root) const {
    return root < num_ep_             ? graphs_->src
           : root < num_ep_ + num_vls_ ? graphs_->mid
                                      : graphs_->dst;
  }
  /// Breadth-first walk of `root` under the current restriction set into
  /// the bitset `seen`.
  void walk(std::size_t root, std::uint64_t* seen);
  /// The table word and bit `root` owes to visiting line node `l`, or
  /// {nullptr, 0} when the node records nothing.
  std::pair<std::uint64_t*, std::uint64_t> owed(std::size_t root, int l);
  /// Down VLs a chiplet source descends through (none for the interposer).
  std::uint64_t downs_of(std::size_t s) const {
    return legs_.src_downs[s] & mesh_vls_[s];
  }
  /// Up VLs source `s` reaches with its one crossing: through its descents
  /// for a chiplet source, directly for an interposer source.
  std::uint64_t reach_ups(std::size_t s) const;
  bool pair_connected(std::size_t s, std::size_t d) const;
  static void mark(std::vector<std::size_t>& list, std::vector<char>& flag,
                   std::size_t i) {
    if (flag[i] == 0) {
      flag[i] = 1;
      list.push_back(i);
    }
  }

  const MtrPlan* plan_;
  const SynthesisGraphs* graphs_;
  std::size_t num_ep_;
  std::size_t num_vls_;
  std::size_t words_;  ///< bitset words per visited set
  std::vector<int> start_;  ///< per root: the line node its walk starts at
  /// Per endpoint index: its chiplet, and that chiplet's VLs (none for the
  /// interposer).
  std::vector<int> chiplet_;
  std::vector<std::uint64_t> mesh_vls_;
  std::vector<std::uint64_t> visited_;  ///< visited_[root * words_ + w]
  LegTables legs_;
  std::vector<std::uint64_t> ups_;  ///< per endpoint: reach_ups()

  // try_forbid() scratch.
  std::vector<int> queue_;
  std::vector<std::size_t> affected_;
  std::vector<std::uint64_t> walked_;
  std::vector<std::pair<std::uint64_t*, std::uint64_t>> undo_;
  std::vector<std::size_t> dirty_src_;
  std::vector<std::size_t> dirty_dst_;
  std::vector<char> src_flag_;
  std::vector<char> dst_flag_;
};

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
  const LegTables legs = synthesize_restrictions(graphs);
  line_graph_ = std::make_unique<LineGraph>(
      topo, [this](const Topology&, const Channel& in, const Channel& out) {
        return turn_allowed(in.id, out.id);
      });
  check(connectivity_preserved(),
        "MtrPlan: synthesis broke endpoint connectivity");
  build_route_tables();
  build_pair_combos(legs);
}

int MtrPlan::restricted_turn_count() const {
  return static_cast<int>(std::count(forbidden_.begin(), forbidden_.end(), 1));
}

bool MtrPlan::turn_allowed(ChannelId in, ChannelId out) const {
  const Channel& cin = topo_->channel(in);
  const Channel& cout = topo_->channel(out);
  require(cout.src == cin.dst, "MtrPlan::turn_allowed: channels not adjacent");
  return initial_turn_allowed(cin, cout) &&
         forbidden_[turn_slot(in, port_index(cout.src_port))] == 0;
}

bool MtrPlan::connectivity_preserved() const {
  // Every endpoint must reach every other endpoint inside the allowed-turn
  // graph. One BFS per source endpoint over the line graph.
  const LineGraph& graph = *line_graph_;
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

std::optional<MtrPlan::LegTables> MtrPlan::try_synthesize(
    const SynthesisGraphs& graphs, LegSearch search, Rng* shuffle) {
  // Greedy cycle breaking: while the channel turn graph has a cycle, forbid
  // one restrictable turn on it whose removal keeps every endpoint pair
  // connected. Cycles cannot live inside a single mesh (XY is acyclic), so
  // every cycle crosses a vertical channel and offers restrictable turns.
  std::fill(forbidden_.begin(), forbidden_.end(), 0);
  // The allowed channel turns: an accepted restriction erases its one edge
  // in place, so successor order - and with it the cycle is_acyclic
  // reports - is that of the adjacency rebuilt under the restriction set.
  std::vector<std::vector<int>> adj = graphs.turns;
  std::vector<int> cycle;
  std::vector<std::pair<ChannelId, ChannelId>> candidates;
  while (!is_acyclic(adj, &cycle)) {
    candidates.clear();
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
      char& flag =
          forbidden_[turn_slot(a, graphs.port[static_cast<std::size_t>(b)])];
      flag = 1;
      if (search.try_forbid(a, b)) {
        std::vector<int>& succ = adj[static_cast<std::size_t>(a)];
        succ.erase(std::find(succ.begin(), succ.end(), b));
        restricted = true;
        break;
      }
      flag = 0;
    }
    if (!restricted) {
      return std::nullopt;  // greedy wedged; caller restarts with a shuffle
    }
  }
  return std::move(search).take_legs();
}

MtrPlan::LegTables MtrPlan::synthesize_restrictions(
    const SynthesisGraphs& graphs) {
  // First-fit order is deterministic and usually converges; when it wedges
  // (every restrictable turn on some cycle has become load-bearing),
  // restart with seeded random candidate orders. The seed sequence is
  // fixed, so the resulting plan is still deterministic per topology.
  // Every try starts from the walks of the empty restriction set.
  forbidden_.assign(graphs.port.size() * kNumPorts, 0);
  const LegSearch initial(*this, graphs);
  if (auto legs = try_synthesize(graphs, initial, nullptr)) {
    return std::move(*legs);
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    if (auto legs = try_synthesize(graphs, initial, &rng)) {
      return std::move(*legs);
    }
  }
  check(false,
        "MtrPlan: turn-restriction synthesis failed to converge on this "
        "topology");
  return {};
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
      .port = {},
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
  graphs.port.assign(n, static_cast<std::uint8_t>(port_index(Port::local)));
  graphs.turns.resize(static_cast<std::size_t>(topo_->num_channels()));
  for (ChannelId in = 0; in < topo_->num_channels(); ++in) {
    const Channel& cin = topo_->channel(in);
    graphs.port[static_cast<std::size_t>(in)] =
        static_cast<std::uint8_t>(port_index(cin.src_port));
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

MtrPlan::LegSearch::LegSearch(const MtrPlan& plan,
                              const SynthesisGraphs& graphs)
    : plan_(&plan),
      graphs_(&graphs),
      num_ep_(plan.topo().endpoints().size()),
      num_vls_(static_cast<std::size_t>(plan.topo().num_vls())),
      words_((static_cast<std::size_t>(graphs.src.size()) + 63) / 64) {
  const Topology& topo = plan.topo();
  std::vector<std::uint64_t> chiplet_vls(
      static_cast<std::size_t>(topo.num_chiplets()), 0);
  for (const VerticalLink& vl : topo.vls()) {
    chiplet_vls[static_cast<std::size_t>(vl.chiplet)] |= std::uint64_t{1}
                                                         << vl.id;
  }
  for (NodeId e : topo.endpoints()) {
    const int chiplet = topo.node(e).chiplet;
    chiplet_.push_back(chiplet);
    mesh_vls_.push_back(chiplet == kInterposer
                            ? 0
                            : chiplet_vls[static_cast<std::size_t>(chiplet)]);
    start_.push_back(graphs.src.injection_node(e));
  }
  for (const VerticalLink& vl : topo.vls()) {
    start_.push_back(vl.down_channel);
  }
  for (const VerticalLink& vl : topo.vls()) {
    start_.push_back(vl.up_channel);
  }
  legs_.src_downs.assign(num_ep_, 0);
  legs_.src_ups.assign(num_ep_, 0);
  legs_.mid_ups.assign(num_vls_, 0);
  legs_.downs_to.assign(num_ep_, 0);
  legs_.ups_to.assign(num_ep_, 0);
  visited_.assign(start_.size() * words_, 0);
  for (std::size_t root = 0; root < start_.size(); ++root) {
    std::uint64_t* seen = visited_.data() + root * words_;
    walk(root, seen);
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t m = seen[w]; m != 0; m &= m - 1) {
        const auto [word, bit] =
            owed(root, static_cast<int>(w * 64) + std::countr_zero(m));
        if (word != nullptr) {
          *word |= bit;
        }
      }
    }
  }
  for (std::size_t s = 0; s < num_ep_; ++s) {
    ups_.push_back(reach_ups(s));
  }
  // try_forbid() re-checks only the pairs a restriction can disconnect,
  // so every pair must start connected (XY reaches every router of a
  // mesh, so any valid topology's unrestricted legs do).
  for (std::size_t s = 0; s < num_ep_; ++s) {
    for (std::size_t d = 0; d < num_ep_; ++d) {
      check(pair_connected(s, d),
            "MtrPlan: unrestricted leg graphs leave a pair disconnected");
    }
  }
  src_flag_.assign(num_ep_, 0);
  dst_flag_.assign(num_ep_, 0);
}

void MtrPlan::LegSearch::walk(std::size_t root, std::uint64_t* seen) {
  const LineGraph& g = graph_of(root);
  const std::uint8_t* port = graphs_->port.data();
  std::fill(seen, seen + words_, 0);
  const int start = start_[root];
  seen[start / 64] |= std::uint64_t{1} << (start % 64);
  queue_.clear();
  queue_.push_back(start);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int cur = queue_[head];
    const char* forbidden = plan_->forbidden_.data() + turn_slot(cur, 0);
    for (int next : g.successors_flat(cur)) {
      const std::uint64_t bit = std::uint64_t{1} << (next % 64);
      if ((seen[next / 64] & bit) == 0 && forbidden[port[next]] == 0) {
        seen[next / 64] |= bit;
        queue_.push_back(next);
      }
    }
  }
}

std::pair<std::uint64_t*, std::uint64_t> MtrPlan::LegSearch::owed(
    std::size_t root, int l) {
  const auto node = static_cast<std::size_t>(l);
  const VlId down = graphs_->down_vl[node];
  const VlId up = graphs_->up_vl[node];
  const int ej = graphs_->ej_endpoint[node];
  if (root < num_ep_) {
    if (down != kInvalidVl) {
      return {&legs_.src_downs[root], std::uint64_t{1} << down};
    }
    if (up != kInvalidVl) {
      return {&legs_.src_ups[root], std::uint64_t{1} << up};
    }
    return {nullptr, 0};
  }
  if (root < num_ep_ + num_vls_) {
    const std::size_t vl = root - num_ep_;
    if (up != kInvalidVl) {
      return {&legs_.mid_ups[vl], std::uint64_t{1} << up};
    }
    if (ej >= 0) {
      return {&legs_.downs_to[static_cast<std::size_t>(ej)],
              std::uint64_t{1} << vl};
    }
    return {nullptr, 0};
  }
  if (ej >= 0) {
    return {&legs_.ups_to[static_cast<std::size_t>(ej)],
            std::uint64_t{1} << (root - num_ep_ - num_vls_)};
  }
  return {nullptr, 0};
}

std::uint64_t MtrPlan::LegSearch::reach_ups(std::size_t s) const {
  if (chiplet_[s] == kInterposer) {
    return legs_.src_ups[s];
  }
  std::uint64_t ups = 0;
  for (std::uint64_t m = downs_of(s); m != 0; m &= m - 1) {
    ups |= legs_.mid_ups[static_cast<std::size_t>(std::countr_zero(m))];
  }
  return ups;
}

bool MtrPlan::LegSearch::pair_connected(std::size_t s, std::size_t d) const {
  // Same-mesh pairs (and s == d) ride plain, unrestricted XY.
  if (chiplet_[s] == chiplet_[d]) {
    return true;
  }
  if (chiplet_[d] == kInterposer) {
    return (downs_of(s) & legs_.downs_to[d]) != 0;
  }
  return (ups_[s] & mesh_vls_[d] & legs_.ups_to[d]) != 0;
}

bool MtrPlan::LegSearch::try_forbid(int a, int b) {
  affected_.clear();
  const auto a_word = static_cast<std::size_t>(a / 64);
  const std::uint64_t a_bit = std::uint64_t{1} << (a % 64);
  const std::size_t ranges[4] = {0, num_ep_, num_ep_ + num_vls_,
                                 start_.size()};
  for (int g = 0; g < 3; ++g) {
    const auto succ = graph_of(ranges[g]).successors_flat(a);
    if (std::find(succ.begin(), succ.end(), b) == succ.end()) {
      continue;
    }
    for (std::size_t root = ranges[g]; root < ranges[g + 1]; ++root) {
      if ((visited_[root * words_ + a_word] & a_bit) != 0) {
        affected_.push_back(root);
      }
    }
  }

  // Re-walk the affected roots and clear what their lost nodes owed,
  // logging every overwritten word so a rejection can restore it.
  walked_.resize(affected_.size() * words_);
  undo_.clear();
  dirty_src_.clear();
  dirty_dst_.clear();
  std::uint64_t dirty_mid = 0;  // descents whose reachable ascents shrank
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    const std::size_t root = affected_[i];
    std::uint64_t* fresh = walked_.data() + i * words_;
    walk(root, fresh);
    const std::uint64_t* old = visited_.data() + root * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t lost = old[w] & ~fresh[w]; lost != 0;
           lost &= lost - 1) {
        const int l = static_cast<int>(w * 64) + std::countr_zero(lost);
        const auto [word, bit] = owed(root, l);
        if (word == nullptr) {
          continue;
        }
        undo_.emplace_back(word, *word);
        *word &= ~bit;
        const int ej = graphs_->ej_endpoint[static_cast<std::size_t>(l)];
        if (root < num_ep_) {
          mark(dirty_src_, src_flag_, root);
        } else if (ej >= 0) {
          mark(dirty_dst_, dst_flag_, static_cast<std::size_t>(ej));
        } else {
          dirty_mid |= std::uint64_t{1} << (root - num_ep_);
        }
      }
    }
  }
  if (dirty_mid != 0) {
    for (std::size_t s = 0; s < num_ep_; ++s) {
      if ((downs_of(s) & dirty_mid) != 0) {
        mark(dirty_src_, src_flag_, s);
      }
    }
  }
  for (std::size_t s : dirty_src_) {
    undo_.emplace_back(&ups_[s], ups_[s]);
    ups_[s] = reach_ups(s);
  }

  // Only pairs with a dirty source or destination can have lost their
  // route.
  bool ok = true;
  for (std::size_t s : dirty_src_) {
    src_flag_[s] = 0;
    for (std::size_t d = 0; d < num_ep_ && ok; ++d) {
      ok = pair_connected(s, d);
    }
  }
  for (std::size_t d : dirty_dst_) {
    dst_flag_[d] = 0;
    for (std::size_t s = 0; s < num_ep_ && ok; ++s) {
      ok = pair_connected(s, d);
    }
  }
  if (ok) {
    for (std::size_t i = 0; i < affected_.size(); ++i) {
      std::copy_n(walked_.data() + i * words_, words_,
                  visited_.data() + affected_[i] * words_);
    }
  } else {
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      *it->first = it->second;
    }
  }
  return ok;
}

void MtrPlan::build_pair_combos(const LegTables& legs) {
  // Reachability semantics for Fig. 7: a pair survives a fault pattern
  // when MTR, keeping its design-time turn restrictions but aware of the
  // faults, can still deliver through some single-crossing route whose
  // two vertical channels are alive. The synthesis guaranteed at least
  // one combination per pair fault-free (LegSearch::try_forbid).
  const auto has = [](std::uint64_t mask, VlId vl) {
    return (mask & (std::uint64_t{1} << vl)) != 0;
  };
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
          if (!has(legs.src_downs[s], dn)) {
            continue;
          }
          for (VlId up : topo_->chiplet_vls(dst_chiplet)) {
            if (has(legs.mid_ups[static_cast<std::size_t>(dn)], up) &&
                has(legs.ups_to[d], up)) {
              combo |= std::uint64_t{1}
                       << (8 * topo_->vl(dn).index_in_chiplet +
                           topo_->vl(up).index_in_chiplet);
            }
          }
        }
      } else if (dst_chiplet == kInterposer) {
        for (VlId dn : topo_->chiplet_vls(src_chiplet)) {
          if (has(legs.src_downs[s], dn) && has(legs.downs_to[d], dn)) {
            combo |= std::uint64_t{1} << topo_->vl(dn).index_in_chiplet;
          }
        }
      } else {
        for (VlId up : topo_->chiplet_vls(dst_chiplet)) {
          if (has(legs.src_ups[s], up) && has(legs.ups_to[d], up)) {
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
    // `row` is the very storage dist() indexes, hence `here` below equals
    // dist(l, dst); line nodes at distance 0 or kUnreachable get no entry.
    const std::uint16_t* row =
        fault_dist_.empty() ? plan_->distance_row(d) : fault_dist_.data() + d * n;
    for (std::size_t l = 0; l < n; ++l) {
      const std::uint16_t here = row[l];
      if (here == 0 || here == MtrPlan::kUnreachable) {
        continue;
      }
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
