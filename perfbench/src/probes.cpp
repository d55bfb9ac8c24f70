// Substrate probes: each layer of the event substrate driven alone through
// its public API, with the rest of the machine absent.
//
//  - sim::EventQueue: self-rescheduling chains of short-delay events, the
//    shape of the simulator's hot path.
//  - noc::Network::Send: a closed loop of packets in flight on the Table-1
//    mesh between random nodes; each delivery injects the next packet.
//  - mem::MemCtrl::EnqueueRead: a closed loop of random reads keeping the
//    controller's bank queues busy; each completion enqueues the next read.
//
// Each probe warms up off the clock, then reports the median of several
// timed repeats, and allocations per operation from the allocation counter.

#include <functional>
#include <vector>

#include "alloc_count.hpp"
#include "arch/config.hpp"
#include "mem/memctrl.hpp"
#include "noc/network.hpp"
#include "report.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

using namespace ndc;

constexpr int kRepeats = 5;
constexpr std::uint64_t kQueueEvents = 2'000'000;
constexpr std::uint64_t kPackets = 200'000;
constexpr std::uint64_t kReads = 200'000;

struct ProbeResult {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

/// Runs `batch(ops)` once to warm up, then kRepeats timed times; `batch`
/// returns the operations it completed.
template <typename Batch>
ProbeResult Probe(std::uint64_t ops, Batch batch) {
  batch(ops / 10);
  std::vector<double> ns;
  std::uint64_t allocs = 0, done = 0;
  SetAllocCounting(true);
  for (int i = 0; i < kRepeats; ++i) {
    std::uint64_t a0 = ThreadAllocs();
    auto t = Clock::now();
    std::uint64_t n = batch(ops);
    ns.push_back(SecondsSince(t) * 1e9 / static_cast<double>(n));
    allocs += ThreadAllocs() - a0;
    done += n;
  }
  SetAllocCounting(false);
  return {Median(ns), static_cast<double>(allocs) / static_cast<double>(done)};
}

struct ChainEvent {
  sim::EventQueue* q;
  std::uint64_t* remaining;
  sim::Cycle delay;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    q->ScheduleAfter(delay, ChainEvent{q, remaining, delay});
  }
};

ProbeResult QueueProbe() {
  sim::EventQueue q;
  std::uint64_t remaining = 0;
  return Probe(kQueueEvents, [&](std::uint64_t events) {
    std::uint64_t e0 = q.executed();
    remaining = events;
    for (sim::Cycle c = 0; c < 64; ++c) {
      q.ScheduleAfter(1 + c % 13, ChainEvent{&q, &remaining, 1 + c % 13});
    }
    q.RunUntilEmpty();
    return q.executed() - e0;
  });
}

/// Closed-loop NoC traffic; the delivery callback captures one pointer, so
/// copying it into the network allocates nothing of the probe's own.
struct NocLoop {
  noc::Network* net;
  sim::Rng rng;
  int nodes;
  std::uint64_t remaining = 0, delivered = 0;

  void Inject() {
    noc::Packet p;
    p.src = static_cast<sim::NodeId>(rng.NextBelow(static_cast<std::uint64_t>(nodes)));
    p.dst = static_cast<sim::NodeId>(rng.NextBelow(static_cast<std::uint64_t>(nodes)));
    p.size_bytes = 8 + static_cast<int>(rng.NextBelow(4)) * 8;
    net->Send(std::move(p), [this](const noc::Packet&, sim::Cycle) {
      ++delivered;
      if (remaining == 0) return;
      --remaining;
      Inject();
    });
  }
};

ProbeResult NocProbe(std::uint64_t seed) {
  arch::ArchConfig cfg;
  sim::EventQueue eq;
  noc::Network net(noc::Mesh(cfg.mesh_width, cfg.mesh_height), eq, cfg.noc);
  NocLoop loop{&net, sim::Rng(seed), cfg.num_nodes()};
  return Probe(kPackets, [&](std::uint64_t packets) {
    loop.delivered = 0;
    loop.remaining = packets - 64;
    for (int i = 0; i < 64; ++i) loop.Inject();
    eq.RunUntilEmpty();
    return loop.delivered;
  });
}

/// Closed-loop reads against one memory controller.
struct McLoop {
  mem::MemCtrl* mc;
  sim::Rng rng;
  std::uint64_t remaining = 0, completed = 0, next_tag = 1;

  void Enqueue() {
    mc->EnqueueRead(next_tag++, rng.NextBelow(1u << 28) * 64,
                    [this](std::uint64_t, sim::Cycle) {
                      ++completed;
                      if (remaining == 0) return;
                      --remaining;
                      Enqueue();
                    });
  }
};

ProbeResult MemProbe(std::uint64_t seed) {
  arch::ArchConfig cfg;
  mem::AddressMap amap = cfg.MakeAddressMap();
  sim::EventQueue eq;
  mem::MemCtrl mc(0, amap, cfg.dram, eq);
  McLoop loop{&mc, sim::Rng(seed)};
  return Probe(kReads, [&](std::uint64_t reads) {
    loop.completed = 0;
    loop.remaining = reads - 128;
    for (int i = 0; i < 128; ++i) loop.Enqueue();
    eq.RunUntilEmpty();
    return loop.completed;
  });
}

}  // namespace

void RunSubstrateProbes(const Options& opt, Report& report) {
  ProbeResult q = QueueProbe();
  report.Metric("sim.queue_ns_per_event", q.ns_per_op, "ns");
  ProbeResult n = NocProbe(opt.seed);
  report.Metric("noc.ns_per_packet", n.ns_per_op, "ns");
  report.Metric("noc.allocs_per_packet", n.allocs_per_op, "allocs/packet");
  ProbeResult m = MemProbe(opt.seed);
  report.Metric("mem.ns_per_read", m.ns_per_op, "ns");
  report.Metric("mem.allocs_per_read", m.allocs_per_op, "allocs/read");
}

}  // namespace perfbench
