#include "sim/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

namespace deft {
namespace {

constexpr char kMagic[8] = {'D', 'E', 'F', 'T', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;  // magic, version, len, sum
static_assert(sizeof(std::size_t) == 8, "counts are stored as u64");

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void expect(bool ok, const char* what) {
  if (!ok) {
    throw SnapshotError(std::string("invalid snapshot: ") + what);
  }
}

/// The saving (Archive<false>) and loading (Archive<true>) archives share
/// one interface, so one visit per plane spells each field once:
///   io(v...)               scalars, little-endian at their in-memory width
///   count(n, min_bytes)    a list length; the loader bounds it by the bytes
///                          left, so a corrupt length cannot allocate
///   size(n, what)          a value the configuration fixes (plane sizes)
///   index(v, lo, hi, what) a value later code indexes with: [lo, hi)
/// Saving writes the value of each check; loading enforces it, and every
/// failure throws SnapshotError.
template <bool Loading>
class Archive {
 public:
  static constexpr bool kLoading = Loading;

  explicit Archive(std::vector<std::uint8_t>& out) : out_(&out) {
    static_assert(!Loading, "a loading archive reads a byte range");
  }
  Archive(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {
    static_assert(Loading, "a saving archive appends to a vector");
  }

  template <class... T>
  void io(T&... v) {
    (field(v), ...);
  }
  std::size_t count(std::size_t n, std::size_t min_bytes) {
    io(n);
    if (kLoading && n > (size_ - pos_) / min_bytes) {
      throw SnapshotError("truncated snapshot: element count " +
                          std::to_string(n) + " exceeds remaining payload");
    }
    return n;
  }
  template <class T>
  void size(const T& expected, const char* what) {
    T n = expected;
    io(n);
    if (n != expected) {
      throw SnapshotError(std::string("snapshot ") + what + " mismatch");
    }
  }
  template <class T>
  void index(T& v, std::int64_t lo, std::int64_t hi, const char* what) {
    io(v);
    const auto x = static_cast<std::int64_t>(v);
    if (kLoading && (x < lo || x >= hi)) {
      throw SnapshotError(std::string("snapshot ") + what + " " +
                          std::to_string(x) + " out of range");
    }
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  template <class T>
  void field(T& v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    constexpr std::size_t kBytes = sizeof(T);
    if constexpr (!kLoading) {
      const auto bits = static_cast<std::uint64_t>(v);
      for (std::size_t i = 0; i < kBytes; ++i) {
        out_->push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
      }
    } else {
      if (kBytes > size_ - pos_) {
        throw SnapshotError("truncated snapshot: read past end of payload");
      }
      std::uint64_t bits = 0;
      for (std::size_t i = 0; i < kBytes; ++i) {
        bits |= std::uint64_t{data_[pos_ + i]} << (8 * i);
      }
      pos_ += kBytes;
      if constexpr (std::is_same_v<T, bool>) {
        expect(bits <= 1, "flag byte is neither 0 nor 1");
      }
      v = static_cast<T>(bits);
    }
  }

  std::vector<std::uint8_t>* out_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};
using Saver = Archive<false>;
using Loader = Archive<true>;

/// A list: its length, then each element through `each` (default: one
/// scalar field).
template <class Ar, class V, class F>
void io_list(Ar& ar, V& v, std::size_t min_bytes, F each) {
  const std::size_t n = ar.count(v.size(), min_bytes);
  if constexpr (Ar::kLoading) {
    v.resize(n);
  }
  for (auto& x : v) {
    each(x);
  }
}
template <class Ar, class V>
void io_list(Ar& ar, V& v) {
  io_list(ar, v, sizeof(v[0]), [&ar](auto& x) { ar.io(x); });
}

/// A plane of scalars whose size the configuration fixes.
template <class Ar, class V>
void io_plane(Ar& ar, V& v, const char* what) {
  ar.size(v.size(), what);
  for (auto& x : v) {
    ar.io(x);
  }
}

template <class Ar, class F>
void io_flit(Ar& ar, F& f, std::size_t packets) {
  ar.index(f.packet, 0, static_cast<std::int64_t>(packets), "flit packet");
  ar.io(f.seq, f.kind);
}

/// Words of a fault set that can hold bits on `topo`: one per 64 VL
/// channels.
std::size_t fault_words(const Topology& topo) {
  return (static_cast<std::size_t>(topo.num_vl_channels()) + 63) / 64;
}

/// A fault set: its word count (fixed by the topology), then each word.
/// The loader rejects bits past the topology's last VL channel.
template <class Ar, class F>
void io_fault_set(Ar& ar, F& faults, const Topology& topo) {
  const std::size_t words = fault_words(topo);
  ar.size(words, "fault set word count");
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = faults.word(w);
    ar.io(bits);
    if constexpr (Ar::kLoading) {
      const auto past_last = static_cast<std::size_t>(topo.num_vl_channels()) -
                             w * 64;  // channels from this word's first on
      expect(past_last >= 64 || (bits >> past_last) == 0,
             "fault set names a missing VL");
      faults.set_word(w, bits);
    }
  }
}

bool on_mesh(const Topology& topo, NodeId n, int chiplet) {
  return n >= 0 && n < topo.num_nodes() && topo.node(n).chiplet == chiplet;
}

bool is_endpoint(const Topology& topo, NodeId n) {
  return n >= 0 && n < topo.num_nodes() &&
         topo.node(n).endpoint != EndpointKind::none;
}

}  // namespace

/// Friend of every simulation class holding checkpointable state. Each
/// plane has one visit spelling its fields once for both archives, in
/// image order (the plane deduces const on save); validate() then
/// re-derives the cross-plane state of a loaded image.
class SnapshotAccess {
 public:
  static std::vector<std::uint8_t> save(const SimStepper& st);
  static void restore(const std::vector<std::uint8_t>& data, Simulator& sim,
                      SimStepper& st, SimWorkspace& ws);

 private:
  static std::string fingerprint(const Simulator& sim);

  template <class Ar, class St, class Sim, class Ws>
  static void visit(Ar& ar, St& st, Sim& sim, Ws& ws) {
    const Topology& topo = *sim.topo_;
    visit_stepper(ar, st, sim.knobs_);
    visit_streams(ar, sim);
    visit_packets(ar, ws.packets_, topo, sim.knobs_, st.loop_.now);
    visit_network(ar, ws.net_, ws.packets_.size());
    visit_nis(ar, ws.nis_, ws.packets_, topo, sim.knobs_.num_vcs);
    visit_rc(ar, ws.rc_units_, ws.packets_.size(), sim.knobs_.num_vcs);
    visit_surgeon(ar, ws.surgeon_, sim, ws.net_,
                  ws.packets_.distinct_routes());
    visit_worklists(ar, ws, st.loop_);
    visit_results(ar, ws.results_);
  }

  template <class Ar, class S>
  static void visit_stepper(Ar& ar, S& st, const SimKnobs& k) {
    auto& s = st.loop_;
    const bool lookahead = s.lookahead;  // start() derived it on load
    ar.io(s.measure_end, s.hard_end, s.now);
    ar.index(s.idle_cycles, 0, k.watchdog_cycles + 1, "watchdog counter");
    ar.io(s.lookahead, s.primed, s.deadlock, s.drained, st.done_);
    ar.io(s.counters.created, s.counters.created_measured,
          s.counters.dropped_unroutable, s.delivered_measured);
    if constexpr (Ar::kLoading) {
      expect(s.measure_end == k.warmup + k.measure &&
                 s.hard_end == s.measure_end + k.drain_max && s.now >= 0 &&
                 s.now <= s.hard_end && s.lookahead == lookahead,
             "loop bounds disagree with the configuration");
    }
  }

  template <class Ar, class Sim>
  static void visit_streams(Ar& ar, Sim& sim) {
    const auto stream = [&ar](auto& owner, const char* what) {
      std::vector<std::uint64_t> words;
      if constexpr (!Ar::kLoading) {
        owner.save_stream_state(words);
      }
      io_list(ar, words);
      if constexpr (Ar::kLoading) {
        std::size_t cursor = 0;
        try {
          owner.load_stream_state(words, cursor);
        } catch (const std::invalid_argument& e) {
          throw SnapshotError(std::string("invalid snapshot: ") + e.what());
        }
        expect(cursor == words.size(), what);
      }
    };
    stream(*sim.algorithm_, "algorithm stream state not fully consumed");
    stream(*sim.traffic_, "traffic stream state not fully consumed");
  }

  template <class Ar, class S>
  static void visit_packets(Ar& ar, S& packets, const Topology& topo,
                            const SimKnobs& k, Cycle now) {
    if constexpr (Ar::kLoading) {
      packets.clear();
    }
    const std::size_t routes = ar.count(packets.routes_.size(), 20);
    for (std::size_t i = 0; i < routes; ++i) {
      const auto id = static_cast<RouteId>(i);
      PacketRoute rt = Ar::kLoading ? PacketRoute{} : packets.routes_.get(id);
      ar.io(rt.src, rt.dst, rt.down_node, rt.up_exit, rt.initial_vcs,
            rt.rc_absorb, rt.rc_unit);
      if constexpr (Ar::kLoading) {
        // route() walks XY legs toward the intermediate routers (and
        // XyRouteTable::step serves same-mesh pairs only); an RC packet is
        // absorbed by the unit above its up VL.
        const bool up_ok = on_mesh(topo, rt.up_exit, kInterposer) &&
                           topo.node(rt.up_exit).vl != kInvalidVl;
        const VerticalLink* up =
            up_ok ? &topo.vl(topo.node(rt.up_exit).vl) : nullptr;
        expect(is_endpoint(topo, rt.src) && is_endpoint(topo, rt.dst) &&
                   (rt.down_node == kInvalidNode ||
                    (on_mesh(topo, rt.down_node, topo.node(rt.src).chiplet) &&
                     topo.node(rt.down_node).is_boundary)) &&
                   (rt.up_exit == kInvalidNode ||
                    (up && up->chiplet == topo.node(rt.dst).chiplet)) &&
                   rt.rc_absorb == (rt.rc_unit != kInvalidNode) &&
                   (rt.rc_unit == kInvalidNode ||
                    (up && rt.rc_unit == up->chiplet_node)) &&
                   (rt.initial_vcs & ~all_vcs_mask(k.num_vcs)) == 0,
               "route names a router off its path");
        // Interning in saved id order reproduces every RouteId (ids are
        // dense in first-appearance order).
        expect(packets.routes_.intern(rt) == id, "duplicate routes");
      }
    }
    const std::size_t n = ar.count(packets.hot_.size(), 8 + 24);
    if constexpr (Ar::kLoading) {
      packets.hot_.resize(n);
      packets.times_.resize(n);
    }
    for (auto& h : packets.hot_) {
      ar.index(h.route, 0, static_cast<std::int64_t>(routes), "packet route");
      ar.index(h.size, k.packet_size, k.packet_size + 1, "packet size");
      ar.io(h.app, h.measured);
    }
    for (auto& t : packets.times_) {
      ar.index(t.created, 0, now + 1, "packet creation cycle");
      ar.index(t.net_injected, -1, now + 1, "packet injection cycle");
      ar.index(t.ejected, -1, now + 1, "packet ejection cycle");
    }
  }

  template <class Ar, class S>
  static void visit_network(Ar& ar, S& net, std::size_t packets) {
    if (net.num_shards_ != 1 || net.lanes_.size() != 1) {
      throw SnapshotError("save_snapshot: stepped runs are serial");
    }
    // A pause is a cycle boundary, start() included, so every staged
    // outbox is empty on save (anything else means the caller paused
    // somewhere illegal) and in the freshly started run a load fills.
    const auto outboxes = [](auto& boxes) {
      for (auto& box : boxes) {
        if (!box.empty()) {
          throw SnapshotError("snapshot: staged network moves pending");
        }
      }
    };
    outboxes(net.staged_arrivals_);
    outboxes(net.staged_credits_);
    outboxes(net.staged_ejections_);
    outboxes(net.rc_departures_);
    outboxes(net.staged_rc_out_credits_);

    const Topology& topo = *net.topo_;
    const int vcs = net.num_vcs_;
    const int depth = net.buffer_depth_;
    ar.size(net.routers_.size(), "router count");
    for (NodeId node = 0; node < topo.num_nodes(); ++node) {
      auto& rs = net.routers_[static_cast<std::size_t>(node)];
      if constexpr (Ar::kLoading) {
        rs.flits = FlitStore{};
      }
      for (int lane = 0; lane < kNumLanes; ++lane) {
        // Only a configured VC of an input this router has holds flits.
        const Port port = static_cast<Port>(lane / kMaxVcs);
        const bool input = port == Port::local ||
                           (port == Port::rc && topo.node(node).is_boundary) ||
                           topo.in_channel(node, port) != kInvalidChannel;
        auto fill = static_cast<std::uint8_t>(rs.flits.size(lane));
        ar.index(fill, 0, input && lane % kMaxVcs < vcs ? depth + 1 : 1,
                 "lane fill");
        for (int off = 0; off < fill; ++off) {
          Flit f = Ar::kLoading ? Flit{} : rs.flits.peek(lane, off);
          io_flit(ar, f, packets);
          if constexpr (Ar::kLoading) {
            rs.flits.push(lane, f);
          }
        }
      }
      for (auto& in : rs.in) {
        ar.io(in.route_ready);
        ar.index(in.decision.out_port, 0, kNumPorts, "route port");
        ar.io(in.decision.vcs);
        ar.index(in.out_vc, -1, vcs, "held output VC");
      }
      for (auto& out : rs.out) {
        ar.index(out.owner_port, -1, kNumPorts, "output VC owner port");
        ar.index(out.owner_vc, -1, vcs, "output VC owner VC");
        ar.io(out.credits);  // validate() checks them against the lanes
      }
      const auto pointers = [&ar](auto& ptrs, int slots) {
        for (auto& ptr : ptrs) {
          ar.index(ptr, 0, slots, "arbiter pointer");
        }
      };
      pointers(rs.va_ptr, kNumPorts * vcs);
      pointers(rs.ovc_ptr, vcs);
      pointers(rs.sa_ptr, kNumPorts * vcs);
      ar.io(rs.occupancy, rs.owned);  // validate() re-derives both
    }
    io_plane(ar, net.channel_faulty_, "channel count");
    io_plane(ar, net.vl_next_free_, "VL channel count");
    for (auto* credits : {&net.local_credit_, &net.rc_in_credit_}) {
      ar.size(credits->size(), "credit plane size");
      for (auto& c : *credits) {
        std::int64_t wide = c;  // stored as i64
        ar.index(wide, 0, depth + 1, "credit");
        if constexpr (Ar::kLoading) {
          c = static_cast<int>(wide);
        }
      }
    }
    io_plane(ar, net.lanes_[0].active, "router worklist size");
    ar.io(net.lanes_[0].flits_buffered, net.lanes_[0].moves);
  }

  template <class Ar, class S>
  static void visit_nis(Ar& ar, S& nis, const PacketTable& packets,
                        const Topology& topo, int vcs) {
    const auto num_packets = static_cast<std::int64_t>(packets.size());
    ar.size(nis.size(), "NI count");
    for (auto& ni : nis) {
      ar.size(ni.node_, "NI endpoint");
      // prepare() rebuilt the counter-mode route stream's key from
      // (seed, node); only its draw count is run state (0 in serial mode).
      std::array<std::uint64_t, 4> rng = ni.rng_.state();
      std::uint64_t draws = ni.route_rng_.counter();
      ar.io(rng[0], rng[1], rng[2], rng[3], draws);
      // Only the unconsumed queue slice is observable; it loads at head 0.
      const std::size_t queued =
          ar.count(ni.queue_.size() - ni.queue_head_, 4);
      if constexpr (Ar::kLoading) {
        ni.rng_.set_state(rng);
        ni.route_rng_.set_counter(draws);
        ni.queue_.assign(queued, -1);
        ni.queue_head_ = 0;
      }
      for (std::size_t i = ni.queue_head_; i < ni.queue_.size(); ++i) {
        ar.index(ni.queue_[i], 0, num_packets, "queued packet");
      }
      ar.index(ni.active_, -1, num_packets, "active packet");
      ar.io(ni.active_size_, ni.active_initial_vcs_, ni.next_seq_);
      ar.index(ni.vc_, -1, vcs, "NI VC");
      ar.io(ni.perm_requested_, ni.vc_rr_);
      io_list(ar, ni.scratch_, 5, [&](auto& req) {
        ar.io(req.dst, req.app);
        if constexpr (Ar::kLoading) {
          expect(is_endpoint(topo, req.dst), "request to a non-endpoint");
        }
      });
    }
  }

  template <class Ar, class S>
  static void visit_rc(Ar& ar, S& rc, std::size_t packets, int vcs) {
    const auto num_packets = static_cast<std::int64_t>(packets);
    const std::int64_t nodes = rc.topo_->num_nodes();
    ar.size(rc.units_.size(), "RC unit count");
    for (auto& unit : rc.units_) {
      io_list(ar, unit.queue, 16, [&](auto& req) {
        ar.index(req.requester, 0, nodes, "RC requester");
        ar.index(req.packet, 0, num_packets, "RC request packet");
        ar.io(req.arrives);
      });
      ar.io(unit.reserved);
      ar.index(unit.granted_to, -1, nodes, "RC grantee");
      ar.index(unit.granted_packet, -1, num_packets, "RC granted packet");
      ar.io(unit.grant_arrives);
      io_list(ar, unit.buffer, 7, [&](auto& f) { io_flit(ar, f, packets); });
      ar.io(unit.absorbing_done);
      ar.index(unit.reinject_vc, 0, vcs, "RC re-injection VC");
    }
    ar.io(rc.progress_, rc.flits_held_, rc.busy_units_);
    if constexpr (Ar::kLoading) {
      std::uint64_t held = 0;
      int busy = 0;
      bool fits = true;
      for (const auto& unit : rc.units_) {
        held += unit.buffer.size();
        busy += RcUnitManager::at_rest(unit) ? 0 : 1;
        fits = fits && unit.buffer.size() <= std::size_t(rc.packet_size_);
      }
      expect(fits && held == rc.flits_held_ && busy == rc.busy_units_,
             "RC unit buffers or counters disagree with the units");
    }
  }

  template <class Ar, class S, class Sim>
  static void visit_surgeon(Ar& ar, S& s, Sim& sim, const Network& net,
                            std::size_t routes) {
    // reset() rebuilt order_ and ni_of_node_, and each event reassigns the
    // scratch: only the cursor, the fault set and the fault-window
    // metrics carry across a pause.
    ar.index(s.cursor_, 0, static_cast<std::int64_t>(s.order_.size()) + 1,
             "fault event cursor");
    const Topology& topo = *sim.topo_;
    VlFaultSet faults = s.faults_;
    io_fault_set(ar, faults, topo);
    ar.io(s.lost_, s.lost_measured_, s.first_fail_);
    io_list(ar, s.intervals_, 16,
            [&ar](auto& range) { ar.io(range.first, range.second); });
    io_list(ar, s.affected_);
    if constexpr (Ar::kLoading) {
      expect(s.affected_.size() <= routes, "fault set names a missing route");
      // Each VL channel is one channel: check the network's marks against
      // the loaded set.
      for (ChannelId c = 0; c < topo.num_channels(); ++c) {
        const VlChannelId vl = topo.channel(c).vl_channel;
        const bool faulty = vl >= 0 && faults.is_faulty(vl);
        expect(net.channel_faulty_[static_cast<std::size_t>(c)] == faulty,
               "channel fault marks disagree with the fault set");
      }
      s.faults_ = faults;
      // Events applied before the pause changed the fault set: rebuild the
      // algorithm's tables for it (set_faults() leaves the RNG alone; the
      // stream state loaded earlier completes the picture).
      if (faults != sim.faults_) {
        sim.algorithm_->set_faults(s.faults_);
      }
    }
  }

  template <class Ar, class S>
  static void visit_worklists(Ar& ar, S& ws, const LoopState& loop) {
    io_list(ar, ws.busy_);
    io_list(ar, ws.wake_);
    // A binary heap's vector layout is deterministic: it loads verbatim.
    const auto nis = static_cast<std::int64_t>(ws.nis_.size());
    io_list(ar, ws.events_, 16, [&](auto& event) {
      ar.io(event.first);
      ar.index(event.second, 0, nis, "event NI");
    });
    io_list(ar, ws.net_latencies_);
    io_list(ar, ws.total_latencies_);
    // An unprimed run (re)builds the masks on its first advance().
    if constexpr (Ar::kLoading) {
      const auto words = static_cast<std::size_t>((nis + 63) / 64);
      expect(!loop.primed || !loop.lookahead ||
                 (ws.busy_.size() == words && ws.wake_.size() == words &&
                  std::count(ws.wake_.begin(), ws.wake_.end(), 0) ==
                      static_cast<std::ptrdiff_t>(words) &&
                  (nis % 64 == 0 || (ws.busy_.back() >> (nis % 64)) == 0)),
             "NI worklist masks do not fit the NIs");
    }
  }

  template <class Ar, class S>
  static void visit_results(Ar& ar, S& res) {
    // Only the fields the phase loops mutate mid-run; finish() fills the
    // rest.
    ar.io(res.flit_hops, res.flits_ejected_in_window);
    ar.size(res.region_vc_flits.size(), "region count");
    for (auto& per_vc : res.region_vc_flits) {
      std::apply([&ar](auto&... f) { ar.io(f...); }, per_vc);
    }
    io_plane(ar, res.vl_channel_flits, "VL plane size");
  }

  static void validate(const Simulator& sim, const SimWorkspace& ws);
};

std::string SnapshotAccess::fingerprint(const Simulator& sim) {
  std::ostringstream out;
  const SimKnobs& k = sim.knobs_;
  const Topology& t = *sim.topo_;
  out << "topo=" << t.num_nodes() << "n/" << t.num_channels() << "c/"
      << t.num_vl_channels() << "vl/" << t.num_chiplets() << "chip/"
      << t.endpoints().size() << "ep"
      << " knobs=" << k.num_vcs << "v/" << k.buffer_depth << "b/"
      << k.packet_size << "p/" << k.vl_serialization << "s/w" << k.warmup
      << "/m" << k.measure << "/d" << k.drain_max << "/wd"
      << k.watchdog_cycles << "/seed" << k.seed << "/core"
      << static_cast<int>(k.core) << "/rng" << static_cast<int>(k.rng_mode)
      << " alg=" << sim.algorithm_->name() << "/"
      << sim.algorithm_->num_vcs() << " traffic=" << sim.traffic_->name()
      << " faults=" << fault_words(t) << "w";
  for (std::size_t w = 0; w < fault_words(t); ++w) {
    out << ":" << std::hex << sim.faults_.word(w) << std::dec;
  }
  out << " policy=" << static_cast<int>(sim.policy_) << " timeline=[";
  if (sim.timeline_ != nullptr) {
    for (const FaultEvent& ev : sim.timeline_->events()) {
      out << "(" << ev.cycle << "," << ev.channel << ","
          << static_cast<int>(ev.kind) << ")";
    }
  }
  out << "]";
  // shards is an execution-shape knob with bit-identical results by
  // contract, so it stays out of the fingerprint: a snapshot of a
  // sharded run restores onto the serial stepper.
  return out.str();
}

void SnapshotAccess::validate(const Simulator& sim, const SimWorkspace& ws) {
  const Topology& topo = *sim.topo_;
  const Network& net = ws.net_;
  const PacketTable& packets = ws.packets_;
  const int vcs = net.num_vcs_;
  const int depth = net.buffer_depth_;
  // Every buffered flit is one (packet, seq) of a packet in flight, on a
  // mesh its route crosses (route() serves no other).
  std::vector<std::uint64_t> census;  // packet << 16 | seq
  const auto count = [&](const Flit& f, NodeId at) {
    const PacketTimes& t = packets.times(f.packet);
    const std::uint16_t size = packets.hot(f.packet).size;
    const PacketRoute& rt = packets.route_of(f.packet);
    const int here = topo.node(at).chiplet;
    const int src = topo.node(rt.src).chiplet;
    const int dst = topo.node(rt.dst).chiplet;
    expect(t.net_injected >= 0 && t.ejected < 0 && f.seq < size &&
               f.kind == flit_kind(f.seq, size) &&
               (here == src || here == dst ||
                (here == kInterposer && src != dst)),
           "flit of a packet that is not in flight here");
    census.push_back(std::uint64_t(f.packet) << 16 | f.seq);
  };
  const std::vector<std::uint64_t>& active = net.lanes_[0].active;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const RouterState& r = net.routers_[static_cast<std::size_t>(n)];
    std::uint32_t owned = 0;
    for (int lane = 0; lane < kNumLanes; ++lane) {
      const int v = lane % kMaxVcs;
      const auto port = static_cast<Port>(lane / kMaxVcs);
      for (int off = 0; off < r.flits.size(lane); ++off) {
        count(r.flits.peek(lane, off), n);
      }
      const OutputVc& out = r.out[static_cast<std::size_t>(lane)];
      expect((out.owner_port < 0) == (out.owner_vc < 0),
             "half-owned output VC");
      owned |= out.owner_port >= 0 ? std::uint32_t{1} << lane : 0;
      // Credits mirror the slots they guard: the NI and RC-unit credits a
      // local or RC input lane, an output VC the input across its channel.
      // The RC output pool (VC 0) holds up to a packet; ejection never
      // runs out; every other output VC stays at zero (the adaptive
      // routers' credit view sums all of a port's VCs).
      if (v < vcs && (port == Port::local || port == Port::rc)) {
        const auto& plane =
            port == Port::local ? net.local_credit_ : net.rc_in_credit_;
        expect(plane[net.index(n, v)] == depth - r.flits.size(lane),
               "NI or RC credits disagree with their lane");
      }
      const ChannelId ch = topo.out_channel(n, port);
      int lo = 0;
      int hi = 0;
      if (v >= vcs) {
      } else if (port == Port::local) {
        lo = hi = 0x3fff;
      } else if (port == Port::rc) {
        hi = v == 0 && topo.node(n).is_boundary ? ws.rc_units_.packet_size_
                                                : 0;
      } else if (ch != kInvalidChannel) {
        const Channel& c = topo.channel(ch);
        lo = hi = depth - net.routers_[static_cast<std::size_t>(c.dst)]
                              .flits.size(FlitStore::lane_of(
                                  port_index(c.dst_port), v));
      }
      expect(out.credits >= lo && out.credits <= hi,
             "output credits disagree with the lane downstream");
    }
    expect(r.occupancy == r.flits.occupied_mask() && r.owned == owned &&
               (r.occupancy == 0 ||
                ((active[static_cast<std::size_t>(n) / 64] >> (n % 64)) & 1)),
           "router masks disagree with its lanes");
  }
  expect(census.size() == net.lanes_[0].flits_buffered &&
             (topo.num_nodes() % 64 == 0 ||
              (active.back() >> (topo.num_nodes() % 64)) == 0),
         "router worklist or flit counter disagrees with the lanes");
  for (const auto& unit : ws.rc_units_.units_) {
    for (const Flit& f : unit.buffer) {
      count(f, unit.node);
    }
  }
  // Every packet an NI holds is injected at its router.
  for (const NetworkInterface& ni : ws.nis_) {
    const auto own = [&](PacketId id) {
      return packets.route_of(id).src == ni.node_;
    };
    expect((ni.active_ < 0 || own(ni.active_)) &&
               std::all_of(ni.queue_.begin(), ni.queue_.end(), own),
           "NI holds another source's packet");
  }
  // A packet's flits are a gap-free run ending at the last one its NI
  // has injected.
  std::sort(census.begin(), census.end());
  for (std::size_t i = 0; i < census.size(); ++i) {
    if (i + 1 < census.size() && census[i + 1] >> 16 == census[i] >> 16) {
      expect(census[i + 1] == census[i] + 1,
             "packet flits are duplicated or have gaps");
      continue;
    }
    const auto id = static_cast<PacketId>(census[i] >> 16);
    const NetworkInterface& ni = ws.nis_[static_cast<std::size_t>(
        ws.surgeon_.ni_of_node_[static_cast<std::size_t>(
            packets.route_of(id).src)])];
    const int last = ni.active_ == id ? ni.next_seq_ : packets.hot(id).size;
    expect(static_cast<int>(census[i] & 0xffff) == last - 1,
           "packet flits end before the last injected one");
  }
}

std::vector<std::uint8_t> SnapshotAccess::save(const SimStepper& st) {
  if (st.sim_ == nullptr || st.ws_ == nullptr) {
    throw SnapshotError("save_snapshot: stepper not started");
  }
  if (st.finished_) {
    throw SnapshotError("save_snapshot: run already finished");
  }
  const Simulator& sim = *st.sim_;
  std::string fp = fingerprint(sim);
  std::vector<std::uint8_t> payload;
  Saver w(payload);
  io_list(w, fp);
  visit(w, st, sim, std::as_const(*st.ws_));

  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  out.reserve(kHeaderBytes + payload.size());
  Saver frame(out);
  const std::uint64_t len = payload.size();
  const std::uint64_t sum = fnv1a(payload.data(), payload.size());
  frame.io(kSnapshotVersion, len, sum);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void SnapshotAccess::restore(const std::vector<std::uint8_t>& data,
                             Simulator& sim, SimStepper& st,
                             SimWorkspace& ws) {
  if (data.size() < kHeaderBytes) {
    throw SnapshotError("truncated snapshot: " + std::to_string(data.size()) +
                        " bytes is smaller than the header");
  }
  if (std::memcmp(data.data(), kMagic, 8) != 0) {
    throw SnapshotError("not a DeFT snapshot (bad magic)");
  }
  Loader header(data.data() + 8, kHeaderBytes - 8);
  std::uint32_t version = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
  header.io(version, payload_len, checksum);
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  if (payload_len != data.size() - kHeaderBytes) {
    throw SnapshotError("truncated snapshot: header promises " +
                        std::to_string(payload_len) + " payload bytes, " +
                        std::to_string(data.size() - kHeaderBytes) +
                        " present");
  }
  const std::uint8_t* payload = data.data() + kHeaderBytes;
  if (fnv1a(payload, payload_len) != checksum) {
    throw SnapshotError("snapshot checksum mismatch (corrupt image)");
  }

  Loader r(payload, payload_len);
  std::string saved_fp;
  io_list(r, saved_fp);
  const std::string expected_fp = fingerprint(sim);
  if (saved_fp != expected_fp) {
    throw SnapshotError(
        "snapshot configuration mismatch:\n  snapshot: " + saved_fp +
        "\n  simulator: " + expected_fp);
  }

  // Run the normal prologue (consumes the run permit, resets every
  // workspace plane), then overwrite with the saved state.
  st.start(sim, ws);
  visit(r, st, sim, ws);
  if (!r.exhausted()) {
    throw SnapshotError("snapshot holds trailing bytes past its payload");
  }
  validate(sim, ws);
}

std::vector<std::uint8_t> save_snapshot(const SimStepper& stepper) {
  return SnapshotAccess::save(stepper);
}

void restore_snapshot(const std::vector<std::uint8_t>& data, Simulator& sim,
                      SimStepper& stepper, SimWorkspace& ws) {
  SnapshotAccess::restore(data, sim, stepper, ws);
}

void write_snapshot_file(const std::filesystem::path& path,
                         const std::vector<std::uint8_t>& data) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw SnapshotError("cannot create " + tmp.string() + ": " +
                        std::strerror(errno));
  }
  // Drops the temp file and reports `what` with the current errno.
  const auto fail = [&tmp](int open_fd, const std::string& what) {
    const std::string err = std::strerror(errno);
    if (open_fd >= 0) {
      ::close(open_fd);
    }
    ::unlink(tmp.c_str());
    throw SnapshotError("cannot " + what + ": " + err);
  };
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno != EINTR) {
      fail(fd, "write " + tmp.string());
    }
    written += n < 0 ? 0 : static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    fail(fd, "fsync " + tmp.string());
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail(-1, "rename " + tmp.string() + " to " + path.string());
  }
  // Durability of the rename itself: fsync the containing directory.
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::vector<std::uint8_t> read_snapshot_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("cannot read snapshot " + path.string());
  }
  std::vector<std::uint8_t> data;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    throw SnapshotError("cannot size snapshot " + path.string());
  }
  data.resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!in) {
    throw SnapshotError("cannot read snapshot " + path.string());
  }
  return data;
}

}  // namespace deft
