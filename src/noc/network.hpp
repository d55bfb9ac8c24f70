#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "noc/geometry.hpp"
#include "noc/routing.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace ndc::noc {

/// Timing/structural parameters of the on-chip network (Table 1 defaults:
/// 16-byte links, 3-cycle router pipeline, X-Y routing).
struct NetworkParams {
  sim::Cycle router_pipeline = 3;  ///< per-hop router latency
  int link_bytes = 16;             ///< link width (bytes transferred per cycle)

  friend bool operator==(const NetworkParams&, const NetworkParams&) = default;
};

/// Return-path latency estimate for an 8-byte NDC result from `from` to
/// `to` on an uncontended mesh: one router pipeline, plus a router pipeline
/// and the serialization per hop. The oracle, the compiler's cost model and
/// Figure 3 all charge this.
sim::Cycle ResultReturnLatency(const Mesh& mesh, const NetworkParams& np, sim::NodeId from,
                               sim::NodeId to);

/// A message traversing the NoC. `route` is fixed at injection time: an id
/// in the network's RouteTable (the compiler may have selected a
/// non-default minimal route), or kXyRoute for the hardware default X-Y
/// route. `tag`, `kind`, `obs_token` and `payload` are plain data the
/// network carries unchanged to the receiver.
struct Packet {
  std::uint64_t id = 0;       ///< assigned by Network::Send
  sim::NodeId src = 0;
  sim::NodeId dst = 0;
  int size_bytes = 8;
  RouteId route = kXyRoute;   ///< links from src to dst
  std::size_t hop = 0;        ///< index of the next link to traverse
  std::uint64_t tag = 0;      ///< opaque user tag (e.g. memory request id)
  int kind = 0;               ///< opaque user kind
  std::uint64_t obs_token = 0;  ///< request-trace token (0 = untraced)
  sim::Payload payload;         ///< opaque user payload
};

/// What a hop hook tells the network to do with a packet that just arrived
/// at a router.
enum class HopAction {
  kContinue,  ///< traverse the next link normally
  kHold,      ///< park the packet in this router's link buffer (NDC wait)
  kSquash,    ///< consume the packet here (NDC computed; data no longer travels)
};

/// Cycle-approximate mesh network with per-link serialization and
/// contention (busy-until per link), a 3-cycle router pipeline per hop, and
/// a per-hop hook that lets the NDC engine observe, hold, or squash packets
/// at link buffers.
class Network {
 public:
  using DeliverFn = std::function<void(const Packet&, sim::Cycle)>;
  /// The one receiver of every packet sent without a DeliverFn of its own.
  using DeliverHook = std::function<void(const Packet&)>;
  /// Called when `packet` is at the router about to traverse `link`.
  using HopHook = std::function<HopAction(Packet&, sim::LinkId, sim::Cycle)>;

  Network(Mesh mesh, sim::EventQueue& eq, NetworkParams params = {});

  /// The routes this network's packets take; senders pick non-default
  /// routes from it.
  RouteTable& routes() { return routes_; }

  /// Injects a packet. If `p.route` is kXyRoute, the default X-Y route is
  /// used; otherwise it must be an id from routes(). On arrival the packet
  /// goes to `on_deliver` if one is given, else to the delivery hook.
  /// Returns the packet id.
  std::uint64_t Send(Packet p, DeliverFn on_deliver = {});

  /// Resumes a packet previously held by the hop hook. No-op if the id is
  /// unknown (e.g. already squashed).
  void Release(std::uint64_t packet_id);

  /// Consumes a held packet (its data was absorbed by an NDC computation).
  void Squash(std::uint64_t packet_id);

  bool IsHeld(std::uint64_t packet_id) const { return FindHeld(packet_id) != held_.size(); }

  void set_hop_hook(HopHook hook) { hop_hook_ = std::move(hook); }

  /// Installs the receiver of packets sent without a DeliverFn.
  void set_deliver_hook(DeliverHook hook) { deliver_hook_ = std::move(hook); }

  /// Packets handed to their receiver so far (conservation checks:
  /// packets == delivered + squashed). Plain accessor, not a stats() key.
  std::uint64_t delivered_count() const { return delivered_; }
  std::uint64_t sent_count() const { return packets_; }
  std::uint64_t squashed_count() const { return squashes_; }

  /// Serialization latency of a packet on one link.
  sim::Cycle SerializationCycles(int size_bytes) const {
    return static_cast<sim::Cycle>((size_bytes + params_.link_bytes - 1) / params_.link_bytes);
  }

  /// Counters by name ("noc.packets", "noc.bytes", ...). The per-event
  /// path bumps plain integers; names are built only here.
  sim::StatSet stats() const;

 private:
  /// Pooled per-packet in-flight state: the packet, only when the sender
  /// passed one its own DeliverFn (packets for the delivery hook carry
  /// none), and the link whose buffer holds it while an NDC wait parks it.
  /// Hop events capture only {this, Flight*}, which fits a SmallCallback's
  /// inline buffer, so a hop allocates nothing. Flights are recycled through
  /// a free list.
  struct Flight {
    Packet packet;
    DeliverFn deliver;
    sim::LinkId held_link = sim::kNoLink;  ///< meaningful while in held_
  };

  Flight* AcquireFlight();
  void ReleaseFlight(Flight* f);
  void ProcessHop(Flight* f, bool run_hook);
  void Traverse(Flight* f, sim::LinkId link);
  /// Index in held_ of the held flight carrying `packet_id`, or
  /// held_.size() when no held packet has that id.
  std::size_t FindHeld(std::uint64_t packet_id) const;
  /// Removes held_[i] from the held set and its link buffer.
  Flight* Unhold(std::size_t i);

  /// Extra cycles a passing packet pays per held packet in a link buffer.
  static constexpr sim::Cycle kHoldPenalty = 16;

  Mesh mesh_;
  sim::EventQueue& eq_;
  NetworkParams params_;
  RouteTable routes_;
  HopHook hop_hook_;
  DeliverHook deliver_hook_;
  std::vector<sim::Cycle> link_busy_until_;
  // Held packets occupy link-buffer slots; passing traffic pays a
  // per-held-packet delay (buffer pressure).
  std::vector<int> link_hold_count_;
  // The flights parked in link buffers, in no order. Each is an operand of
  // an offloaded NDC instance waiting at a link, and the cores' offload
  // tables bound those, so a scan finds one by packet id.
  std::vector<Flight*> held_;
  std::deque<Flight> flight_arena_;  ///< stable storage for pooled flights
  std::vector<Flight*> free_flights_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delivered_ = 0;  ///< accessor-only; never a stats() key
  std::uint64_t packets_ = 0, bytes_ = 0, holds_ = 0, squashes_ = 0, releases_ = 0,
                hol_blocked_ = 0, link_busy_cycles_ = 0, contention_cycles_ = 0;
};

}  // namespace ndc::noc
