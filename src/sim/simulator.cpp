#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <functional>
#include <mutex>

namespace deft {

namespace {

/// Where a PhaseSink's statistics land. Serial runs (and the sharded
/// core's serial RC drain) bind the workspace's sample vectors, the
/// SimResults planes and the LoopState's delivered count; each shard
/// binds its ShardRun slice and no RC unit manager, because RC absorption
/// is serial-only - the network routes it through the RC departure drain.
struct SinkTargets {
  const Topology* topo;
  PacketTable* packets;
  RcUnitManager* rc_units;
  std::vector<std::uint32_t>* net_latencies;
  std::vector<std::uint32_t>* total_latencies;
  std::vector<std::array<std::uint64_t, kMaxVcsStats>>* region_vc_flits;
  std::vector<std::uint64_t>* vl_channel_flits;
  std::uint64_t* flits_ejected_in_window;
  std::uint64_t* delivered_measured;
};

/// The compile-time StatsSink of every cycle loop. With InWindow false
/// (warmup and drain) the traversal statistics and the in-window ejection
/// counter compile away; the functional parts - RC absorption, delivery
/// bookkeeping, latency capture for measured packets draining after the
/// window - run in every phase.
template <bool InWindow>
struct PhaseSink : SinkTargets {
  void traverse(ChannelId c, int vc) {
    if constexpr (InWindow) {
      const Channel& ch = topo->channel(c);
      const int chiplet = topo->node(ch.src).chiplet;
      const int region =
          chiplet == kInterposer ? topo->num_chiplets() : chiplet;
      ++(*region_vc_flits)[static_cast<std::size_t>(region)]
                          [static_cast<std::size_t>(vc)];
      if (ch.vl_channel >= 0) {
        ++(*vl_channel_flits)[static_cast<std::size_t>(ch.vl_channel)];
      }
    } else {
      (void)c;
      (void)vc;
    }
  }

  void rc_absorb(NodeId node, const Flit& flit, Cycle now) {
    check(rc_units != nullptr,
          "Simulator: RC absorption reached a shard sink");
    rc_units->absorb(node, flit, now, *packets);
  }

  void eject(NodeId node, const Flit& flit, Cycle now) {
    if constexpr (InWindow) {
      ++*flits_ejected_in_window;
    }
    if (flit.is_tail()) {  // kind stamped at injection
      // Tail ejection touches the hot plane (route id + measured byte)
      // and, for measured packets, the cold timestamp plane - the only
      // per-packet table accesses outside injection.
      const PacketHot& hot = packets->hot(flit.packet);
      check(node == packets->route_of(flit.packet).dst,
            "Simulator: flit ejected at a wrong node");
      PacketTimes& times = packets->times(flit.packet);
      times.ejected = now;
      if (hot.measured) {
        ++*delivered_measured;
        net_latencies->push_back(
            static_cast<std::uint32_t>(now - times.net_injected));
        total_latencies->push_back(
            static_cast<std::uint32_t>(now - times.created));
      }
    }
  }
};

using EventHeap = std::vector<std::pair<Cycle, std::size_t>>;

}  // namespace

/// Everything a cycle loop touches: the simulator's configuration, the
/// workspace planes and the run's LoopState, bound once per advance()
/// (serial) or per run (sharded). The one friend of Simulator and
/// SimWorkspace among the loops; the loop functions below see only this.
struct LoopCtx {
  LoopCtx(Simulator& sim, SimWorkspace& ws, LoopState& loop)
      : knobs(sim.knobs_),
        traffic(*sim.traffic_),
        algorithm(*sim.algorithm_),
        packets(ws.packets_),
        net(ws.net_),
        rc_units(ws.rc_units_),
        nis(ws.nis_),
        surgeon(ws.surgeon_),
        results(ws.results_),
        busy(ws.busy_),
        wake(ws.wake_),
        events(ws.events_),
        shards(ws.shard_runs_),
        partition(ws.partition_),
        s(loop),
        sink{sim.topo_,
             &ws.packets_,
             &ws.rc_units_,
             &ws.net_latencies_,
             &ws.total_latencies_,
             &ws.results_.region_vc_flits,
             &ws.results_.vl_channel_flits,
             &ws.results_.flits_ejected_in_window,
             &loop.delivered_measured} {}

  const SimKnobs& knobs;
  TrafficGenerator& traffic;
  RoutingAlgorithm& algorithm;
  PacketTable& packets;
  Network& net;
  RcUnitManager& rc_units;
  std::vector<NetworkInterface>& nis;
  FaultSurgeon& surgeon;
  SimResults& results;
  // Serial pending-NI worklist: `busy` mirrors NetworkInterface::busy();
  // `wake` marks NIs whose scheduled injection fires this cycle; `events`
  // is a min-heap ordering the pre-drawn injections by (cycle, NI index)
  // so same-cycle wakeups run in NI order - the order the full scan
  // visits them. Each ShardRun carries the same three for its shard.
  std::vector<std::uint64_t>& busy;
  std::vector<std::uint64_t>& wake;
  EventHeap& events;
  std::vector<ShardRun>& shards;
  const Partition& partition;
  LoopState& s;
  SinkTargets sink;  ///< the serial binding
};

namespace {

/// Dynamic fault events apply at the cycle boundary, before the cycle's
/// packet creation - one serial point in every loop, so surgery is
/// shard-invariant.
void apply_faults(LoopCtx& ctx, Cycle now) {
  if (ctx.surgeon.pending(now)) {
    ctx.surgeon.apply_due(now, ctx.net, ctx.algorithm, ctx.packets, ctx.nis,
                          ctx.rc_units);
  }
}

/// Arms NI `i`'s next pre-drawn injection at or after `from` in `events`,
/// unless it falls past the run.
void schedule(LoopCtx& ctx, EventHeap& events, std::size_t i, Cycle from) {
  const Cycle c = ctx.nis[i].schedule_next(ctx.traffic, from, ctx.s.hard_end);
  if (c < ctx.s.hard_end) {
    events.emplace_back(c, i);
    std::push_heap(events.begin(), events.end(), std::greater<>{});
  }
}

/// Pops the events due at `cycle` into the wake set - and, for a shard,
/// into its pending materialization list (heap order yields ascending NI
/// index).
void draw(EventHeap& events, std::vector<std::uint64_t>& wake, Cycle cycle,
          std::vector<std::size_t>* pending) {
  while (!events.empty() && events.front().first == cycle) {
    std::pop_heap(events.begin(), events.end(), std::greater<>{});
    const std::size_t i = events.back().second;
    events.pop_back();
    wake[i / 64] |= std::uint64_t{1} << (i % 64);
    if (pending != nullptr) {
      pending->push_back(i);
    }
  }
}

/// The pending-NI worklist walk of cycle `now`: visits, in ascending index
/// order, every NI that is busy or whose scheduled injection fires this
/// cycle (running `on_wake(i)` first for the latter), lets each busy NI
/// inject, and refreshes the busy mask. A shard passes `staged` to
/// collect its RC permission requests for serial delivery.
template <class OnWake>
void walk_worklist(LoopCtx& ctx, std::vector<std::uint64_t>& busy,
                   std::vector<std::uint64_t>& wake, Cycle now,
                   std::vector<RcPermissionRequest>* staged, OnWake on_wake) {
  for (std::size_t w = 0; w < busy.size(); ++w) {
    const std::uint64_t wake_word = wake[w];
    wake[w] = 0;
    std::uint64_t word = busy[w] | wake_word;
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const std::size_t i = w * 64 + static_cast<std::size_t>(b);
      NetworkInterface& ni = ctx.nis[i];
      if ((wake_word >> b) & 1) {
        on_wake(i);
      }
      if (ni.busy()) {
        ni.try_inject(now, ctx.net, ctx.packets, ctx.rc_units, staged, i);
      }
      if (ni.busy()) {
        busy[w] |= std::uint64_t{1} << b;
      } else {
        busy[w] &= ~(std::uint64_t{1} << b);
      }
    }
  }
}

/// Polls every NI: draw this cycle's packets, then inject if busy (a
/// no-op for idle NIs). Serial runs without the worklist.
void poll_nis(LoopCtx& ctx, Cycle now, bool in_window) {
  for (NetworkInterface& ni : ctx.nis) {
    ni.generate(now, ctx.traffic, ctx.algorithm, ctx.packets,
                ctx.knobs.packet_size, in_window, ctx.s.counters);
    if (ni.busy()) {
      ni.try_inject(now, ctx.net, ctx.packets, ctx.rc_units);
    }
  }
}

/// End of cycle `s.now`, shared by every cycle loop: counts the cycle's
/// flit hops, runs the deadlock watchdog (pending work with no forward
/// progress for watchdog_cycles) and the drain check (once the window
/// closes, every measured packet delivered or lost - lost packets can
/// never drain). Returns false when the run ends here; a deadlocked run
/// stops on the stalled cycle, any other run moves past it.
bool end_cycle(LoopCtx& ctx) {
  LoopState& s = ctx.s;
  const std::uint64_t moves = ctx.net.moves_last_cycle();
  ctx.results.flit_hops += moves;
  if (moves + ctx.rc_units.take_progress() > 0) {
    s.idle_cycles = 0;
  } else if (ctx.net.flits_buffered() + ctx.rc_units.flits_held() > 0 &&
             ++s.idle_cycles >= ctx.knobs.watchdog_cycles) {
    s.deadlock = true;
    return false;
  }
  ++s.now;
  if (s.now >= s.measure_end &&
      s.delivered_measured + ctx.surgeon.lost_measured() ==
          s.counters.created_measured) {
    s.drained = true;
    return false;
  }
  return true;
}

/// Runs cycles [s.now, stop) of the active-set core inside one phase;
/// returns early when the run ends.
template <bool InWindow>
void run_phase(LoopCtx& ctx, Cycle stop) {
  LoopState& s = ctx.s;
  PhaseSink<InWindow> sink{ctx.sink};
  while (s.now < stop) {
    const Cycle now = s.now;
    apply_faults(ctx, now);
    if (!s.lookahead) {
      poll_nis(ctx, now, InWindow);
    } else {
      draw(ctx.events, ctx.wake, now, nullptr);
      walk_worklist(ctx, ctx.busy, ctx.wake, now, nullptr,
                    [&ctx, now](std::size_t i) {
                      ctx.nis[i].commit_scheduled(
                          now, ctx.algorithm, ctx.packets,
                          ctx.knobs.packet_size, InWindow, ctx.s.counters);
                      schedule(ctx, ctx.events, i, now + 1);
                    });
    }
    ctx.rc_units.tick(now, ctx.net, ctx.packets);
    ctx.net.step(now, sink);
    ctx.net.apply(now, sink);
    if (!end_cycle(ctx)) {
      return;
    }
  }
}

/// The reference core: the original single loop that polls every NI and
/// recomputes the window flag every cycle, driving the network's full
/// router scan. Kept as the executable specification the equivalence
/// tests compare the active-set core to.
void run_reference(LoopCtx& ctx, Cycle cap) {
  LoopState& s = ctx.s;
  const Cycle stop = std::min(s.hard_end, cap);
  while (s.now < stop) {
    const Cycle now = s.now;
    const bool in_window = now >= ctx.knobs.warmup && now < s.measure_end;
    apply_faults(ctx, now);
    poll_nis(ctx, now, in_window);
    ctx.rc_units.tick(now, ctx.net, ctx.packets);
    if (in_window) {
      PhaseSink<true> sink{ctx.sink};
      ctx.net.step(now, sink);
      ctx.net.apply(now, sink);
    } else {
      PhaseSink<false> sink{ctx.sink};
      ctx.net.step(now, sink);
      ctx.net.apply(now, sink);
    }
    if (!end_cycle(ctx)) {
      return;
    }
  }
}

/// Fills the run's SimResults from its final LoopState - the last step of
/// both the serial stepper and the sharded driver.
const SimResults& finalize(LoopCtx& ctx) {
  const LoopState& s = ctx.s;
  SimResults& results = ctx.results;
  results.cycles_run = s.now;
  results.deadlock_detected = s.deadlock;
  results.outcome = s.deadlock ? RunOutcome::deadlocked : RunOutcome::completed;
  results.drained = s.drained;
  results.packets_created = s.counters.created;
  results.packets_created_measured = s.counters.created_measured;
  results.packets_delivered_measured = s.delivered_measured;
  results.packets_dropped_unroutable = s.counters.dropped_unroutable;
  results.network_latency =
      LatencySummary::from_samples(*ctx.sink.net_latencies);
  results.total_latency =
      LatencySummary::from_samples(*ctx.sink.total_latencies);
  ctx.surgeon.finalize(results, ctx.packets);
  return results;
}

// ---------------------------------------------------------------------------
// The sharded (partitioned) core. Each cycle runs as two parallel phases
// with a barrier after each:
//
//   front (per shard): scheduled wake-ups re-arm their next event, busy
//     NIs inject (staging arrivals into the shard's own inbox and RC
//     permission requests into the shard's staging list), then
//     step_shard() routes/arbitrates the shard's routers into the
//     per-consumer outboxes.
//   back (per shard): commit_shard() drains every inbox addressed to the
//     shard (arrivals, credits, RC output credits, local ejections into
//     the shard's private accumulators), then pre-draws the next cycle's
//     wake set from the shard's event heap.
//   completion (serial, inside the second barrier): RC absorptions drain,
//     end_cycle() runs the watchdog and drain checks on the summed
//     counters, and - when the run continues - the next cycle is
//     prepared: staged RC requests are delivered and pending injections
//     materialized in ascending NI order (preserving the routing
//     algorithm's shared RNG stream and the RC queue order of the serial
//     loop), and the RC units tick.
//
// Why this is bit-identical to serial: step() never reads another
// router's state, commits are order-independent within a cycle (one
// arrival per buffer lane, additive credits, order-insensitive stat
// merges), and every order-sensitive operation - packet creation, RC
// request delivery, grants, watchdog decisions - happens in the serial
// completion step in serial order. Deferring RC request delivery to the
// cycle boundary is exact because the permission network's latency keeps
// same-cycle requests invisible to same-cycle grant decisions (see
// RcPermissionRequest).

/// State shared by every shard worker; plain fields are published across
/// threads by the two synchronization points per cycle.
struct ShardedState {
  explicit ShardedState(LoopCtx& c) : ctx(c) {}

  LoopCtx& ctx;
  /// SimKnobs::rng_mode == counter: per-NI route streams make route
  /// preparation order-independent, so shard_back() prepares next-cycle
  /// injections in parallel instead of begin_cycle() doing it serially.
  bool counter_mode = false;
  bool in_window = false;
  bool stop = false;

  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  void record_failure() {
    {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) {
        error = std::current_exception();
      }
    }
    failed.store(true, std::memory_order_relaxed);
  }

  /// Serial start-of-cycle work for cycle `now`: fold the shards' RC
  /// busy-unit deltas, materialize pending injections in ascending NI
  /// order, then tick the RC units. Mirrors the serial loop's per-NI
  /// order of commit_scheduled() calls; the staged RC requests themselves
  /// were already delivered - in the serial loop's per-unit order - by the
  /// shards' back phases (see shard_back()).
  void begin_cycle() {
    std::vector<ShardRun>& shards = ctx.shards;
    const Cycle now = ctx.s.now;
    const int num_shards = static_cast<int>(shards.size());
    int busy_delta = 0;
    for (ShardRun& sh : shards) {
      busy_delta += sh.rc_busy_delta;
      sh.rc_busy_delta = 0;
    }
    ctx.rc_units.add_busy_units(busy_delta);
    // Fault events apply after the staged RC requests are delivered and
    // before pending injections materialize - the same relative point the
    // serial loop reaches at the top of its cycle body.
    apply_faults(ctx, now);
    // K-way merge by NI index over the shards' (already ascending)
    // pending lists; shard counts are small, so a linear min scan
    // suffices.
    std::size_t pend_cursor[kMaxSimShards] = {};
    for (;;) {
      int best = -1;
      std::size_t best_ni = 0;
      for (int s = 0; s < num_shards; ++s) {
        const auto& pend = shards[static_cast<std::size_t>(s)].pending;
        if (pend_cursor[s] < pend.size() &&
            (best < 0 || pend[pend_cursor[s]] < best_ni)) {
          best = s;
          best_ni = pend[pend_cursor[s]];
        }
      }
      if (best < 0) {
        break;
      }
      const std::size_t i =
          shards[static_cast<std::size_t>(best)].pending[pend_cursor[best]++];
      ctx.nis[i].commit_scheduled(now, ctx.algorithm, ctx.packets,
                                  ctx.knobs.packet_size, in_window,
                                  ctx.s.counters);
    }
    for (ShardRun& sh : shards) {
      sh.rc_requests.clear();
      sh.pending.clear();
    }
    ctx.rc_units.tick(now, ctx.net, ctx.packets);
  }
};

/// Shard `sh`'s sink: its private measurement slice, no RC absorption.
template <bool InWindow>
PhaseSink<InWindow> shard_sink(const LoopCtx& ctx, ShardRun& sh) {
  return {{ctx.sink.topo, &ctx.packets, nullptr, &sh.net_latencies,
           &sh.total_latencies, &sh.region_vc_flits, &sh.vl_channel_flits,
           &sh.flits_ejected_in_window, &sh.delivered_measured}};
}

/// Front phase for one shard: scheduled wake-ups re-arm (the injection
/// itself was materialized in the serial completion step), busy NIs
/// inject, the shard's routers step.
template <bool InWindow>
void shard_front(ShardedState& st, int s) {
  LoopCtx& ctx = st.ctx;
  ShardRun& sh = ctx.shards[static_cast<std::size_t>(s)];
  const Cycle now = ctx.s.now;
  walk_worklist(ctx, sh.busy, sh.wake, now, &sh.rc_requests,
                [&ctx, &sh, now](std::size_t i) {
                  schedule(ctx, sh.events, i, now + 1);
                });
  PhaseSink<InWindow> sink = shard_sink<InWindow>(ctx, sh);
  ctx.net.step_shard(s, now, sink);
}

/// Back phase for one shard: commit the shard's inboxes, deliver the
/// staged RC permission requests whose units this shard owns, pre-draw
/// the next cycle's wake set, and - in counter mode - prepare the routes
/// of the newly drawn injections.
template <bool InWindow>
void shard_back(ShardedState& st, int s) {
  LoopCtx& ctx = st.ctx;
  ShardRun& sh = ctx.shards[static_cast<std::size_t>(s)];
  const Cycle now = ctx.s.now;
  PhaseSink<InWindow> sink = shard_sink<InWindow>(ctx, sh);
  ctx.net.commit_shard(s, now, sink);

  // Distributed RC delivery: every shard scans all staged-request lists
  // (written during the front phase, frozen by the first barrier) and
  // delivers, in ascending NI order, exactly the requests targeting units
  // on its own nodes. Restricting the serial loop's global NI order to
  // one unit's requests preserves that unit's queue order, and no two
  // shards ever touch the same unit - the partition keys ownership by
  // node. The busy-unit transitions accumulate locally and fold in
  // serially (RcUnitManager::add_busy_units) at the next begin_cycle().
  const int num_shards = static_cast<int>(ctx.shards.size());
  std::size_t cursor[kMaxSimShards] = {};
  int busy_delta = 0;
  for (;;) {
    int best = -1;
    std::size_t best_ni = 0;
    for (int p = 0; p < num_shards; ++p) {
      const auto& reqs = ctx.shards[static_cast<std::size_t>(p)].rc_requests;
      std::size_t& c = cursor[p];
      while (c < reqs.size() &&
             ctx.partition.shard_of(reqs[c].unit_node) != s) {
        ++c;  // lazily skip requests another shard owns
      }
      if (c < reqs.size() && (best < 0 || reqs[c].ni < best_ni)) {
        best = p;
        best_ni = reqs[c].ni;
      }
    }
    if (best < 0) {
      break;
    }
    const RcPermissionRequest& r =
        ctx.shards[static_cast<std::size_t>(best)].rc_requests[cursor[best]++];
    busy_delta += ctx.rc_units.request_parallel(r.unit_node, r.requester,
                                                r.packet, r.now);
  }
  sh.rc_busy_delta += busy_delta;

  const std::size_t drawn_from = sh.pending.size();
  draw(sh.events, sh.wake, now + 1, &sh.pending);
  // Counter mode: prepare the next cycle's routes here, in parallel -
  // each NI draws from its private stream, so the result is independent
  // of which shard/order runs it. Deferred to the serial commit path
  // whenever a fault event fires at the commit cycle: the routes must
  // see the post-event fault set, and the surgeon's reroute pass must
  // consume each NI's stream first. The event cursor only advances at
  // serial points, so pending() is safe to read concurrently.
  if (st.counter_mode && !ctx.surgeon.pending(now + 1)) {
    for (std::size_t k = drawn_from; k < sh.pending.size(); ++k) {
      ctx.nis[sh.pending[k]].prepare_scheduled(ctx.algorithm);
    }
  }
}

/// End-of-cycle serial step (the second barrier's completion): drains RC
/// absorptions, applies end_cycle() to the summed counters, and prepares
/// the next cycle.
void sharded_cycle_end(ShardedState& st) {
  if (st.failed.load(std::memory_order_relaxed)) {
    st.stop = true;
    return;
  }
  LoopCtx& ctx = st.ctx;
  try {
    PhaseSink<false> rc_sink{ctx.sink};
    ctx.net.drain_rc_departures(ctx.s.now, rc_sink);
    ctx.s.delivered_measured = 0;
    for (const ShardRun& sh : ctx.shards) {
      ctx.s.delivered_measured += sh.delivered_measured;
    }
    if (!end_cycle(ctx) || ctx.s.now >= ctx.s.hard_end) {
      st.stop = true;
      return;
    }
    st.in_window =
        ctx.s.now >= ctx.knobs.warmup && ctx.s.now < ctx.s.measure_end;
    st.begin_cycle();
  } catch (...) {
    st.record_failure();
    st.stop = true;
  }
}

/// One shard's front or back phase for the current cycle, unless a
/// worker already failed.
template <bool Front>
void shard_phase(ShardedState& st, int w) {
  if (st.failed.load(std::memory_order_relaxed)) {
    return;
  }
  try {
    if constexpr (Front) {
      st.in_window ? shard_front<true>(st, w) : shard_front<false>(st, w);
    } else {
      st.in_window ? shard_back<true>(st, w) : shard_back<false>(st, w);
    }
  } catch (...) {
    st.record_failure();
  }
}

/// Runs the cycle loop across one worker per shard, two std::barrier
/// rendezvous per cycle. The caller has already performed cycle 0's
/// prologue (initial event scheduling, the cycle-0 draw/materialization,
/// the first RC tick).
void run_sharded(ShardedState& st, WorkerPool& pool) {
  const int num_shards = static_cast<int>(st.ctx.shards.size());
  const auto completion = [&st]() noexcept { sharded_cycle_end(st); };
  std::barrier barrier_a(num_shards);
  std::barrier<std::decay_t<decltype(completion)>> barrier_b(num_shards,
                                                             completion);
  pool.run(num_shards, [&st, &barrier_a, &barrier_b](int w) {
    while (!st.stop) {
      shard_phase<true>(st, w);
      barrier_a.arrive_and_wait();
      shard_phase<false>(st, w);
      barrier_b.arrive_and_wait();  // completion: sharded_cycle_end
    }
  });
}

/// Resets the workspace-owned results in place: scalar fields zeroed,
/// vector fields assigned to this run's dimensions - never replaced, so a
/// reused workspace keeps their capacity.
void reset_results(SimResults& results, const Topology& topo,
                   Cycle measure_cycles) {
  results.network_latency = LatencySummary{};
  results.total_latency = LatencySummary{};
  results.packets_created = 0;
  results.packets_created_measured = 0;
  results.packets_delivered_measured = 0;
  results.packets_dropped_unroutable = 0;
  results.flits_ejected_in_window = 0;
  results.flit_hops = 0;
  results.cycles_run = 0;
  results.measure_cycles = measure_cycles;
  results.deadlock_detected = false;
  results.drained = false;
  results.outcome = RunOutcome::completed;
  results.packets_lost = 0;
  results.packets_lost_measured = 0;
  results.fault_window_created = 0;
  results.fault_window_delivered = 0;
  results.reconvergence_latency = -1;
  results.region_vc_flits.assign(
      static_cast<std::size_t>(topo.num_chiplets()) + 1, {});
  results.vl_channel_flits.assign(
      static_cast<std::size_t>(topo.num_vl_channels()), 0);
}

}  // namespace

const char* rng_mode_name(RngMode m) {
  switch (m) {
    case RngMode::serial: return "serial";
    case RngMode::counter: return "counter";
  }
  return "?";
}

Simulator::Simulator(const Topology& topo, RoutingAlgorithm& algorithm,
                     TrafficGenerator& traffic, SimKnobs knobs,
                     VlFaultSet faults, const FaultTimeline* timeline,
                     InFlightPolicy policy)
    : topo_(&topo),
      algorithm_(&algorithm),
      traffic_(&traffic),
      knobs_(knobs),
      faults_(faults),
      timeline_(timeline),
      policy_(policy) {
  require(knobs_.packet_size >= 1, "Simulator: bad packet size");
  require(knobs_.warmup >= 0 && knobs_.measure > 0 && knobs_.drain_max >= 0,
          "Simulator: bad phase lengths");
  require(knobs_.shards >= 1 && knobs_.shards <= kMaxSimShards,
          "Simulator: bad shard count");
  if (timeline_ != nullptr) {
    timeline_->validate(*topo_, faults_);
  }
}

SimResults Simulator::run() {
  SimWorkspace ws;
  return run(ws);  // copied out before the private workspace dies
}

void Simulator::prepare(SimWorkspace& ws, const Partition* partition,
                        LoopState& loop) {
  require(!ran_, "Simulator::run may only be called once");
  ran_ = true;
  ws.packets_.clear();
  ws.net_.reset(*topo_, *algorithm_, ws.packets_, knobs_.num_vcs,
                knobs_.buffer_depth, faults_, knobs_.vl_serialization,
                knobs_.core, partition);
  ws.rc_units_.reset(*topo_, knobs_.packet_size);
  ws.rc_units_.publish_initial_credits(ws.net_);

  Rng root(knobs_.seed);
  const std::vector<NodeId>& endpoints = topo_->endpoints();
  ws.nis_.resize(endpoints.size());
  const bool counter = knobs_.rng_mode == RngMode::counter;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const NodeId n = endpoints[i];
    // In counter mode each NI additionally owns the route stream keyed by
    // (seed, node) - a pure function of the pair, so identical for every
    // shard count including the serial stepper.
    ws.nis_[i].reset(n, root.fork(static_cast<std::uint64_t>(n)),
                     CounterRng(knobs_.seed, static_cast<std::uint64_t>(n)),
                     counter);
  }
  ws.surgeon_.reset(*topo_, timeline_, policy_, faults_, ws.nis_);

  ws.net_latencies_.clear();
  ws.total_latencies_.clear();
  ws.events_.clear();
  reset_results(ws.results_, *topo_, knobs_.measure);

  loop = LoopState{};
  loop.measure_end = knobs_.warmup + knobs_.measure;
  loop.hard_end = loop.measure_end + knobs_.drain_max;
}

const SimResults& Simulator::run(SimWorkspace& ws) {
  // Sharded execution needs the active-set core (the full scan is the
  // serial reference) and a lookahead-capable generator: lookahead is the
  // generator's declaration that sources draw independently, which is
  // exactly what the parallel NI phase requires. Everything else runs
  // serially through the trivial partition.
  bool sharded = knobs_.core == SimCore::active_set && knobs_.shards > 1 &&
                 traffic_->supports_lookahead();
  if (sharded) {
    ws.partition_.build(*topo_, knobs_.shards);
    sharded = ws.partition_.num_shards() > 1;
  }

  if (!sharded) {
    // Serial path: the resumable stepper, run to completion in a single
    // advance - what makes a stepped or snapshot-resumed run
    // bit-identical to this one by construction.
    SimStepper stepper;
    stepper.start(*this, ws);
    stepper.advance();
    return stepper.finish();
  }

  LoopState loop;
  prepare(ws, &ws.partition_, loop);
  LoopCtx ctx(*this, ws, loop);
  const int num_shards = ws.partition_.num_shards();
  ws.shard_runs_.resize(static_cast<std::size_t>(num_shards));
  const std::size_t ni_words = (ws.nis_.size() + 63) / 64;
  for (ShardRun& sh : ws.shard_runs_) {
    sh.busy.assign(ni_words, 0);
    sh.wake.assign(ni_words, 0);
    sh.events.clear();
    sh.pending.clear();
    sh.rc_requests.clear();
    sh.rc_busy_delta = 0;
    sh.net_latencies.clear();
    sh.total_latencies.clear();
    sh.region_vc_flits.assign(
        static_cast<std::size_t>(topo_->num_chiplets()) + 1, {});
    sh.vl_channel_flits.assign(
        static_cast<std::size_t>(topo_->num_vl_channels()), 0);
    sh.flits_ejected_in_window = 0;
    sh.delivered_measured = 0;
  }
  if (!ws.pool_ || ws.pool_->threads() < num_shards - 1) {
    ws.pool_ = std::make_unique<WorkerPool>(num_shards - 1);
  }

  ShardedState st(ctx);
  st.counter_mode = knobs_.rng_mode == RngMode::counter;

  // Cycle-0 prologue (serial): arm every NI's first scheduled event in
  // its owner shard's heap, pre-draw cycle 0's wake set, materialize its
  // injections and run the first RC tick - the same work the completion
  // step performs at every later cycle boundary.
  const std::vector<NodeId>& endpoints = topo_->endpoints();
  for (std::size_t i = 0; i < ws.nis_.size(); ++i) {
    const int s = ws.partition_.shard_of(endpoints[i]);
    schedule(ctx, ws.shard_runs_[static_cast<std::size_t>(s)].events, i, 0);
  }
  for (ShardRun& sh : ws.shard_runs_) {
    draw(sh.events, sh.wake, 0, &sh.pending);
  }
  st.in_window = knobs_.warmup <= 0;
  st.begin_cycle();

  run_sharded(st, *ws.pool_);
  if (st.error) {
    std::rethrow_exception(st.error);
  }

  // Merge the per-shard measurement slices (their delivered counts were
  // summed into the LoopState at every cycle end). Every counter is
  // additive and the latency summaries sort their samples, so the merge
  // order cannot influence the results.
  SimResults& results = ws.results_;
  for (const ShardRun& sh : ws.shard_runs_) {
    results.flits_ejected_in_window += sh.flits_ejected_in_window;
    for (std::size_t r = 0; r < results.region_vc_flits.size(); ++r) {
      for (std::size_t v = 0; v < results.region_vc_flits[r].size(); ++v) {
        results.region_vc_flits[r][v] += sh.region_vc_flits[r][v];
      }
    }
    for (std::size_t c = 0; c < results.vl_channel_flits.size(); ++c) {
      results.vl_channel_flits[c] += sh.vl_channel_flits[c];
    }
    ws.net_latencies_.insert(ws.net_latencies_.end(), sh.net_latencies.begin(),
                             sh.net_latencies.end());
    ws.total_latencies_.insert(ws.total_latencies_.end(),
                               sh.total_latencies.begin(),
                               sh.total_latencies.end());
  }
  return finalize(ctx);
}

// ------------------------------------------------------------- SimStepper
//
// The stepper is the serial run loop with its LoopState hoisted into a
// member: every advance() binds a LoopCtx to it and runs the phase chain
// up to `cap`. Because run_phase/run_reference derive the phase from the
// cycle cursor alone, pausing and resuming at any cycle boundary cannot
// change what any cycle executes.

void SimStepper::start(Simulator& sim, SimWorkspace& ws) {
  sim.prepare(ws, nullptr, loop_);
  sim_ = &sim;
  ws_ = &ws;
  loop_.lookahead = sim.knobs_.core == SimCore::active_set &&
                    sim.traffic_->supports_lookahead();
  done_ = finished_ = false;
}

bool SimStepper::advance(Cycle cap) {
  require(sim_ != nullptr, "SimStepper::advance before start");
  LoopState& s = loop_;
  if (done_ || s.now >= cap) {
    return done_;
  }
  LoopCtx ctx(*sim_, *ws_, s);
  if (!s.primed) {
    s.primed = true;
    if (s.lookahead) {
      const std::size_t words = (ctx.nis.size() + 63) / 64;
      ctx.busy.assign(words, 0);
      ctx.wake.assign(words, 0);
      for (std::size_t i = 0; i < ctx.nis.size(); ++i) {
        schedule(ctx, ctx.events, i, 0);
      }
    }
  }
  if (ctx.knobs.core == SimCore::full_scan) {
    run_reference(ctx, cap);
  } else {
    // Re-entered by cycle cursor: each iteration runs the phase `s.now`
    // falls in, so a capped run resumes mid-phase exactly where it
    // stopped.
    const Cycle warmup = ctx.knobs.warmup;
    while (!s.deadlock && !s.drained && s.now < s.hard_end && s.now < cap) {
      if (s.now < warmup) {
        run_phase<false>(ctx, std::min(warmup, cap));
      } else if (s.now < s.measure_end) {
        run_phase<true>(ctx, std::min(s.measure_end, cap));
      } else {
        run_phase<false>(ctx, std::min(s.hard_end, cap));
      }
    }
  }
  done_ = s.deadlock || s.drained || s.now >= s.hard_end;
  return done_;
}

const SimResults& SimStepper::finish() {
  require(sim_ != nullptr && done_, "SimStepper::finish before the run ended");
  if (!finished_) {
    finished_ = true;
    LoopCtx ctx(*sim_, *ws_, loop_);
    finalize(ctx);
  }
  return ws_->results_;
}

}  // namespace deft
