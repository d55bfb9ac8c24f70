#include "mem/memctrl.hpp"

#include <string>

namespace ndc::mem {

MemCtrl::MemCtrl(sim::McId id, const AddressMap& amap, const DramParams& dram_params,
                 sim::EventQueue& eq)
    : id_(id), amap_(&amap), eq_(&eq) {
  banks_.reserve(static_cast<std::size_t>(amap.banks_per_mc));
  for (int i = 0; i < amap.banks_per_mc; ++i) banks_.emplace_back(dram_params);
  bank_in_flight_.assign(banks_.size(), false);
  bank_queues_.resize(banks_.size());
  in_service_.resize(banks_.size());
}

void MemCtrl::EnqueueRead(std::uint64_t tag, sim::Addr addr, const sim::Payload& payload,
                          std::uint64_t obs_token) {
  Request r;
  r.tag = tag;
  r.addr = addr;
  r.obs_token = obs_token;
  r.payload = payload;
  Enqueue(std::move(r));
}

void MemCtrl::EnqueueRead(std::uint64_t tag, sim::Addr addr, DoneFn done,
                          std::uint64_t obs_token) {
  Request r;
  r.tag = tag;
  r.addr = addr;
  r.obs_token = obs_token;
  r.done = std::move(done);
  Enqueue(std::move(r));
}

void MemCtrl::Enqueue(Request r) {
  r.bank = amap_->DramBank(r.addr);
  r.row = amap_->DramRow(r.addr);
  r.enqueued_at = eq_->now();
  ++reads_;
  bank_queues_[static_cast<std::size_t>(r.bank)].push_back(std::move(r));
  TrySchedule();
}

void MemCtrl::TrySchedule() {
  // For each idle bank, pick per FR-FCFS: oldest row-hit request for that
  // bank, else the oldest request for that bank. One pass suffices: issuing
  // never frees a bank, so a second pass could not make more progress.
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    if (bank_in_flight_[b]) continue;
    std::vector<Request>& q = bank_queues_[b];
    if (q.empty()) continue;
    std::size_t pick = 0;  // oldest overall is the fallback
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (banks_[b].IsRowOpen(q[i].row)) {
        pick = i;  // first (oldest) row hit wins
        break;
      }
    }
    Request req = std::move(q[pick]);
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    IssueTo(static_cast<int>(b), std::move(req));
  }
}

void MemCtrl::IssueTo(int bank_idx, Request req) {
  auto b = static_cast<std::size_t>(bank_idx);
  bank_in_flight_[b] = true;
  bool row_hit = banks_[b].IsRowOpen(req.row);
  ++(row_hit ? row_hits_ : row_misses_);
  sim::Cycle done_at = banks_[b].Access(eq_->now(), req.row);
  queue_wait_cycles_ += eq_->now() - req.enqueued_at;
  if (tracer_ != nullptr && req.obs_token != 0) {
    tracer_->Stamp(req.obs_token, obs::Stage::kMcIssue, eq_->now());
  }
  in_service_[b] = std::move(req);
  eq_->ScheduleAt(done_at, [this, bank_idx] { Complete(bank_idx); });
}

void MemCtrl::Complete(int bank_idx) {
  auto b = static_cast<std::size_t>(bank_idx);
  // Move the request out and free the bank first: the done callback may
  // re-enter EnqueueRead and issue straight to this bank's slot.
  Request req = std::move(in_service_[b]);
  bank_in_flight_[b] = false;
  if (tracer_ != nullptr && req.obs_token != 0) {
    tracer_->Stamp(req.obs_token, obs::Stage::kDramReady, eq_->now());
  }
  ++reads_done_;
  if (req.done) {
    req.done(req.tag, eq_->now());
  } else if (on_done_) {
    on_done_(req.tag, req.addr, req.payload, req.obs_token);
  }
  TrySchedule();
}

sim::StatSet MemCtrl::stats() const {
  sim::StatSet s;
  s.Add("mc.reads", reads_);
  s.Add("mc.row_hits", row_hits_);
  s.Add("mc.row_misses", row_misses_);
  s.Add("mc.queue_wait_cycles", queue_wait_cycles_);
  return s;
}

}  // namespace ndc::mem
