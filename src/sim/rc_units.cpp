#include "sim/rc_units.hpp"

namespace deft {

void RcUnitManager::reset(const Topology& topo, int packet_size) {
  require(packet_size >= 1, "RcUnitManager: bad packet size");
  progress_ = 0;
  flits_held_ = 0;
  busy_units_ = 0;
  topo_ = &topo;
  packet_size_ = packet_size;
  // The node/unit bindings are rebuilt unconditionally (a pointer-identity
  // fast path would be fooled by a new Topology allocated at a recycled
  // address). The rebuild is allocation-free whenever the topology shape
  // repeats: assign() and resize() reuse capacity, and a unit left at rest
  // (the state every well-formed run ends in) clears empty queues.
  unit_of_node_.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
  const std::vector<VerticalLink>& vls = topo.vls();
  if (units_.size() != vls.size()) {
    units_.resize(vls.size());
  }
  for (std::size_t i = 0; i < vls.size(); ++i) {
    Unit& unit = units_[i];
    unit.node = vls[i].chiplet_node;
    unit_of_node_[static_cast<std::size_t>(unit.node)] =
        static_cast<int>(i);
    unit.queue.clear();
    unit.reserved = false;
    unit.granted_to = kInvalidNode;
    unit.granted_packet = -1;
    unit.grant_arrives = 0;
    unit.buffer.clear();
    unit.absorbing_done = false;
    unit.reinject_vc = 0;
  }
}

int RcUnitManager::permission_latency(NodeId a, NodeId b) const {
  // The permission network is modelled as hop-count-delayed signalling:
  // Manhattan distance on the global grid plus two cycles for the vertical
  // crossings of the control path.
  return manhattan(topo_->node(a).global, topo_->node(b).global) + 2;
}

RcUnitManager::Unit& RcUnitManager::unit_at(NodeId node) {
  const int u = unit_of_node_[static_cast<std::size_t>(node)];
  require(u >= 0, "RcUnitManager: node has no RC unit");
  return units_[static_cast<std::size_t>(u)];
}

const RcUnitManager::Unit& RcUnitManager::unit_at(NodeId node) const {
  const int u = unit_of_node_[static_cast<std::size_t>(node)];
  require(u >= 0, "RcUnitManager: node has no RC unit");
  return units_[static_cast<std::size_t>(u)];
}

void RcUnitManager::request(NodeId unit_node, NodeId requester,
                            PacketId packet, Cycle now) {
  Unit& unit = unit_at(unit_node);
  if (at_rest(unit)) {
    ++busy_units_;
  }
  unit.queue.push_back(
      {requester, packet, now + permission_latency(requester, unit_node)});
}

int RcUnitManager::request_parallel(NodeId unit_node, NodeId requester,
                                    PacketId packet, Cycle now) {
  Unit& unit = unit_at(unit_node);
  const int delta = at_rest(unit) ? 1 : 0;
  unit.queue.push_back(
      {requester, packet, now + permission_latency(requester, unit_node)});
  return delta;
}

bool RcUnitManager::grant_ready(NodeId unit_node, NodeId requester,
                                PacketId packet, Cycle now) const {
  const Unit& unit = unit_at(unit_node);
  return unit.reserved && unit.granted_to == requester &&
         unit.granted_packet == packet && now >= unit.grant_arrives;
}

void RcUnitManager::absorb(NodeId unit_node, const Flit& flit, Cycle now,
                           const PacketTable& packets) {
  Unit& unit = unit_at(unit_node);
  check(unit.reserved && unit.granted_packet == flit.packet,
        "RcUnitManager: absorbing a flit without a reservation");
  check(static_cast<int>(unit.buffer.size()) < packet_size_,
        "RcUnitManager: RC buffer overflow");
  unit.buffer.push_back(flit);
  ++flits_held_;
  if (flit.is_tail()) {  // kind stamped when the flit entered the network
    unit.absorbing_done = true;
  }
  (void)now;
  (void)packets;
}

void RcUnitManager::publish_initial_credits(Network& net) const {
  for (const Unit& unit : units_) {
    net.add_initial_rc_out_credits(unit.node, packet_size_);
  }
}

void RcUnitManager::tick(Cycle now, Network& net,
                         const PacketTable& packets) {
  (void)packets;
  if (busy_units_ == 0) {
    return;  // nothing queued, reserved or buffered anywhere
  }
  for (Unit& unit : units_) {
    // Re-inject absorbed flits into the chiplet through the RC input port.
    if (unit.absorbing_done && !unit.buffer.empty()) {
      if (net.rc_in_free(unit.node, unit.reinject_vc) > 0) {
        net.inject_rc(unit.node, unit.reinject_vc, unit.buffer.front());
        unit.buffer.pop_front();
        --flits_held_;
        ++progress_;
        if (unit.buffer.empty()) {
          // Packet fully re-injected: free the buffer, release the
          // reservation, restore the router's RC output credits.
          unit.absorbing_done = false;
          unit.reserved = false;
          unit.granted_to = kInvalidNode;
          unit.granted_packet = -1;
          unit.reinject_vc = (unit.reinject_vc + 1) % net.num_vcs();
          net.add_rc_out_credits(unit.node, packet_size_);
          if (unit.queue.empty()) {
            --busy_units_;  // back at rest
          }
        }
      }
    }
    // Issue the next grant once the unit is idle.
    if (!unit.reserved && !unit.queue.empty() &&
        unit.queue.front().arrives <= now) {
      const Request req = unit.queue.front();
      unit.queue.pop_front();
      unit.reserved = true;
      unit.granted_to = req.requester;
      unit.granted_packet = req.packet;
      unit.grant_arrives = now + permission_latency(unit.node, req.requester);
      ++progress_;
    }
  }
}

}  // namespace deft
