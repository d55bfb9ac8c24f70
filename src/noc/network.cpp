#include "noc/network.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace ndc::noc {

sim::Cycle ResultReturnLatency(const Mesh& mesh, const NetworkParams& np, sim::NodeId from,
                               sim::NodeId to) {
  if (from == sim::kNoNode || to == sim::kNoNode) return np.router_pipeline;
  int hops = mesh.Distance(from, to);
  sim::Cycle ser = static_cast<sim::Cycle>((8 + np.link_bytes - 1) / np.link_bytes);
  return np.router_pipeline + static_cast<sim::Cycle>(hops) * (np.router_pipeline + ser);
}

Network::Network(Mesh mesh, sim::EventQueue& eq, NetworkParams params)
    : mesh_(mesh), eq_(eq), params_(params), routes_(mesh) {
  link_busy_until_.assign(static_cast<std::size_t>(mesh_.num_link_slots()), 0);
  link_hold_count_.assign(static_cast<std::size_t>(mesh_.num_link_slots()), 0);
}

Network::Flight* Network::AcquireFlight() {
  if (free_flights_.empty()) {
    flight_arena_.emplace_back();
    return &flight_arena_.back();
  }
  Flight* f = free_flights_.back();
  free_flights_.pop_back();
  return f;
}

void Network::ReleaseFlight(Flight* f) {
  f->deliver = nullptr;  // drop captured state now, keep the slot
  free_flights_.push_back(f);
}

std::uint64_t Network::Send(Packet p, DeliverFn on_deliver) {
  p.id = ++next_seq_;
  p.hop = 0;
  ++packets_;
  bytes_ += static_cast<std::uint64_t>(p.size_bytes);
  std::uint64_t id = p.id;
  if (p.route == kXyRoute) p.route = routes_.Xy(p.src, p.dst);
  Flight* f = AcquireFlight();
  f->packet = std::move(p);
  f->deliver = std::move(on_deliver);
  // Local delivery (same node) still pays one router pipeline transit.
  eq_.ScheduleAfter(0, [this, f] { ProcessHop(f, /*run_hook=*/true); });
  return id;
}

void Network::ProcessHop(Flight* f, bool run_hook) {
  sim::Cycle now = eq_.now();
  Packet& p = f->packet;
  std::span<const sim::LinkId> route = routes_.Links(p.route);
  if (p.hop >= route.size()) {
    eq_.ScheduleAfter(params_.router_pipeline, [this, f] {
      ++delivered_;
      if (f->deliver) {
        f->deliver(f->packet, 0);
      } else {
        assert(deliver_hook_ && "a packet without a DeliverFn needs a delivery hook");
        deliver_hook_(f->packet);
      }
      ReleaseFlight(f);
    });
    return;
  }
  sim::LinkId link = route[p.hop];
  if (run_hook && hop_hook_) {
    switch (hop_hook_(p, link, now)) {
      case HopAction::kContinue:
        break;
      case HopAction::kHold:
        ++holds_;
        ++link_hold_count_[static_cast<std::size_t>(link)];
        f->held_link = link;
        held_.push_back(f);
        return;
      case HopAction::kSquash:
        ++squashes_;
        ReleaseFlight(f);
        return;
    }
  }
  Traverse(f, link);
}

void Network::Traverse(Flight* f, sim::LinkId link) {
  Packet& p = f->packet;
  sim::Cycle ready = eq_.now() + params_.router_pipeline;
  // Buffer pressure: each packet held in this link's buffer (an NDC operand
  // waiting for its partner) reduces the slots available to passing
  // traffic, delaying it proportionally.
  int held_here = link_hold_count_[static_cast<std::size_t>(link)];
  if (held_here > 0) {
    ++hol_blocked_;
    ready += static_cast<sim::Cycle>(held_here) * kHoldPenalty;
  }
  sim::Cycle depart = std::max(ready, link_busy_until_[static_cast<std::size_t>(link)]);
  sim::Cycle ser = SerializationCycles(p.size_bytes);
  link_busy_until_[static_cast<std::size_t>(link)] = depart + ser;
  link_busy_cycles_ += ser;
  contention_cycles_ += depart - ready;
  sim::Cycle arrive = depart + ser;
  p.hop++;
  eq_.ScheduleAt(arrive, [this, f] { ProcessHop(f, /*run_hook=*/true); });
}

std::size_t Network::FindHeld(std::uint64_t packet_id) const {
  std::size_t i = 0;
  while (i < held_.size() && held_[i]->packet.id != packet_id) ++i;
  return i;
}

Network::Flight* Network::Unhold(std::size_t i) {
  Flight* f = held_[i];
  held_[i] = held_.back();
  held_.pop_back();
  --link_hold_count_[static_cast<std::size_t>(f->held_link)];
  return f;
}

void Network::Release(std::uint64_t packet_id) {
  std::size_t i = FindHeld(packet_id);
  if (i == held_.size()) return;
  ++releases_;
  Flight* f = Unhold(i);
  Traverse(f, f->held_link);
}

void Network::Squash(std::uint64_t packet_id) {
  std::size_t i = FindHeld(packet_id);
  if (i == held_.size()) return;
  ++squashes_;
  ReleaseFlight(Unhold(i));
}

sim::StatSet Network::stats() const {
  sim::StatSet s;
  s.Add("noc.packets", packets_);
  s.Add("noc.bytes", bytes_);
  s.Add("noc.holds", holds_);
  s.Add("noc.squashes", squashes_);
  s.Add("noc.releases", releases_);
  s.Add("noc.hol_blocked", hol_blocked_);
  s.Add("noc.link_busy_cycles", link_busy_cycles_);
  s.Add("noc.contention_cycles", contention_cycles_);
  return s;
}

}  // namespace ndc::noc
