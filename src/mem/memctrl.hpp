#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/address_map.hpp"
#include "mem/dram.hpp"
#include "obs/request_trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace ndc::mem {

/// A memory controller with an FR-FCFS (first-ready, first-come-first-serve)
/// read queue over a set of DRAM banks (Table 1: FR-FCFS scheduling, 4 KB
/// interleaving). The machine sends it reads only: stores and L2 evictions
/// cost no DRAM traffic (DESIGN.md §5b).
///
/// FR-FCFS: when a bank frees up, the oldest request that hits the currently
/// open row of its bank is scheduled first; if no queued request is a row
/// hit, the oldest request overall is scheduled.
///
/// Requests are kept in per-bank FIFO vectors (a request only ever competes
/// with requests for its own bank, so per-bank order is all FR-FCFS needs),
/// making the FR-FCFS pick O(that bank's queue). A read carries plain data
/// (tag, payload, request-trace token); its completion goes to the one done
/// hook unless the caller passed a DoneFn of its own.
class MemCtrl {
 public:
  /// Per-read completion callback: (request tag, data-ready cycle).
  using DoneFn = std::function<void(std::uint64_t, sim::Cycle)>;
  /// Completion handler of every read enqueued without a DoneFn: (tag, addr,
  /// payload, obs_token). The data-ready cycle is the queue's now().
  using DoneHook =
      std::function<void(std::uint64_t tag, sim::Addr, const sim::Payload&, std::uint64_t)>;

  MemCtrl(sim::McId id, const AddressMap& amap, const DramParams& dram_params,
          sim::EventQueue& eq);


  /// Enqueues a read of `addr`; when the data is at the controller (before
  /// any NoC response hop) the done hook receives (tag, addr, payload,
  /// obs_token). `obs_token` identifies the originating traced request
  /// (0 = untraced).
  void EnqueueRead(std::uint64_t tag, sim::Addr addr, const sim::Payload& payload,
                   std::uint64_t obs_token = 0);

  /// Enqueues a read whose completion goes to `done` instead of the done
  /// hook.
  void EnqueueRead(std::uint64_t tag, sim::Addr addr, DoneFn done,
                   std::uint64_t obs_token = 0);

  /// Installs the completion handler of reads enqueued without a DoneFn.
  void set_done_hook(DoneHook h) { on_done_ = std::move(h); }

  /// Conservation accessors (mc_reads == mc_reads_done at end of run).
  /// `reads_done_count` is a plain accessor, not a stats() key.
  std::uint64_t reads_count() const { return reads_; }
  std::uint64_t reads_done_count() const { return reads_done_; }

  /// Traced reads stamp FR-FCFS issue and DRAM-ready on `tracer` (may be null).
  void set_tracer(obs::RequestTracer* tracer) { tracer_ = tracer; }

  /// Counters by name ("mc.reads", "mc.row_hits", ...).
  sim::StatSet stats() const;

 private:
  struct Request {
    std::uint64_t tag = 0;
    sim::Addr addr = 0;
    int bank = 0;
    std::uint64_t row = 0;
    sim::Cycle enqueued_at = 0;
    std::uint64_t obs_token = 0;
    sim::Payload payload;
    DoneFn done;  ///< empty unless the caller passed its own
  };

  void Enqueue(Request r);
  void TrySchedule();
  void IssueTo(int bank_idx, Request req);
  void Complete(int bank_idx);

  sim::McId id_;
  const AddressMap* amap_;
  sim::EventQueue* eq_;
  std::vector<DramBank> banks_;
  std::vector<bool> bank_in_flight_;
  std::vector<std::vector<Request>> bank_queues_;  ///< FIFO per bank
  std::vector<Request> in_service_;                ///< one slot per bank
  DoneHook on_done_;
  obs::RequestTracer* tracer_ = nullptr;
  std::uint64_t reads_ = 0, row_hits_ = 0, row_misses_ = 0, queue_wait_cycles_ = 0;
  std::uint64_t reads_done_ = 0;  ///< accessor-only; never a stats() key
};

}  // namespace ndc::mem
