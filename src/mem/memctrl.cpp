#include "mem/memctrl.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace ndc::mem {

MemCtrl::MemCtrl(sim::McId id, const AddressMap& amap, const DramParams& dram_params,
                 sim::EventQueue& eq)
    : id_(id), amap_(&amap), eq_(&eq) {
  banks_.reserve(static_cast<std::size_t>(amap.banks_per_mc));
  for (int i = 0; i < amap.banks_per_mc; ++i) banks_.emplace_back(dram_params);
  bank_queues_.resize(banks_.size());
  in_service_.assign(banks_.size(), kNil);
  bank_wake_until_.assign(banks_.size(), 0);
}

void MemCtrl::RegisterMetrics(obs::Registry& reg) {
  if constexpr (!obs::kObsEnabled) return;
  const std::string prefix = "mc." + std::to_string(id_) + "/";
  m_reads_ = reg.counter(prefix + "reads");
  m_row_hits_ = reg.counter(prefix + "row_hits");
  m_queue_wait_ = reg.histogram(prefix + "queue_wait_cycles");
  m_queue_wait_total_ = reg.counter(prefix + "queue_wait_total");
}

bool MemCtrl::HasPendingAddr(sim::Addr addr) const {
  return std::any_of(pool_.begin(), pool_.end(), [addr](const Request& r) {
    return r.live && !r.is_write && r.addr == addr;
  });
}

std::uint32_t MemCtrl::Acquire(std::uint64_t tag, sim::Addr addr, bool is_write) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Request& r = pool_[slot];
  r.tag = tag;
  r.addr = addr;
  r.bank = amap_->DramBank(addr);
  r.row = amap_->DramRow(addr);
  r.is_write = is_write;
  r.live = true;
  r.next = kNil;
  r.enqueued_at = eq_->now();
  r.obs_token = 0;
  return slot;
}

void MemCtrl::EnqueueRead(std::uint64_t tag, sim::Addr addr, DoneFn done,
                          std::uint64_t obs_token) {
  assert(tag != kWriteSentinelTag && "kWriteSentinelTag is reserved for writes");
  std::uint32_t slot = Acquire(tag, addr, /*is_write=*/false);
  pool_[slot].done = std::move(done);
  pool_[slot].obs_token = obs_token;
  reads_.Add();
  if constexpr (obs::kObsEnabled) {
    if (m_reads_ != nullptr) m_reads_->Add();
  }
  if (on_enqueue_) on_enqueue_(tag, addr, eq_->now());
  Admit(slot);
}

void MemCtrl::EnqueueWrite(sim::Addr addr) {
  std::uint32_t slot = Acquire(kWriteSentinelTag, addr, /*is_write=*/true);
  writes_.Add();
  if (on_enqueue_) on_enqueue_(kWriteSentinelTag, addr, eq_->now());
  Admit(slot);
}

void MemCtrl::Admit(std::uint32_t slot) {
  // Queue-pressure faults delay the request's entry into the transaction
  // queue; the request is already visible upstream (HasPendingAddr and the
  // enqueue hook saw it arrive), so NDC meeting checks are unaffected.
  if (pressure_) {
    sim::Cycle extra = pressure_(eq_->now());
    if (extra > 0) {
      pressure_events_.Add();
      pressure_delay_cycles_.Add(extra);
      eq_->ScheduleAfter(extra, [this, slot] { Enqueue(slot); });
      return;
    }
  }
  Enqueue(slot);
}

void MemCtrl::Enqueue(std::uint32_t slot) {
  BankQueue& q = bank_queues_[static_cast<std::size_t>(pool_[slot].bank)];
  pool_[slot].next = kNil;
  if (q.tail == kNil) {
    q.head = slot;
  } else {
    pool_[q.tail].next = slot;
  }
  q.tail = slot;
  ++queued_;
  TrySchedule();
}

void MemCtrl::TrySchedule() {
  // For each idle bank, pick per FR-FCFS: oldest row-hit request for that
  // bank, else the oldest request for that bank. One pass suffices: issuing
  // never frees a bank, so a second pass could not make more progress.
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    if (in_service_[b] != kNil) continue;
    BankQueue& q = bank_queues_[b];
    if (q.head == kNil) continue;
    BankFault::Effect effect = BankFault::Effect::kNone;
    sim::Cycle nack_backoff = 0;
    if (bank_fault_) {
      BankFault fault = bank_fault_(static_cast<int>(b), eq_->now());
      effect = fault.effect;
      if (effect == BankFault::Effect::kStall) {
        // The bank issues nothing until the stall window ends; schedule one
        // wake at the window end (not one per attempt) to resume it.
        bank_stall_events_.Add();
        if (bank_wake_until_[b] < fault.stall_until) {
          bank_wake_until_[b] = fault.stall_until;
          eq_->ScheduleAt(fault.stall_until, [this] { TrySchedule(); });
        }
        continue;
      }
      nack_backoff = fault.nack_backoff;
    }
    // The oldest overall is the fallback; the first (oldest) row hit wins.
    std::uint32_t pick = q.head, prev = kNil;
    for (std::uint32_t i = q.head, before = kNil; i != kNil; before = i, i = pool_[i].next) {
      if (banks_[b].IsRowOpen(pool_[i].row)) {
        pick = i;
        prev = before;
        break;
      }
    }
    if (prev == kNil) {
      q.head = pool_[pick].next;
    } else {
      pool_[prev].next = pool_[pick].next;
    }
    if (q.tail == pick) q.tail = prev;
    --queued_;
    if (effect == BankFault::Effect::kNack) {
      // The bank rejects the command; the request re-enters the queue after
      // the backoff with its original arrival time (its queue wait includes
      // the NACK detour) and without re-firing hooks, which already saw it
      // arrive. Nothing is lost: every NACK schedules exactly one retry.
      assert(nack_backoff > 0 && "a NACKed request needs a positive backoff");
      nacks_.Add();
      eq_->ScheduleAfter(nack_backoff, [this, pick] {
        nack_retries_.Add();
        Enqueue(pick);
      });
      continue;
    }
    IssueTo(static_cast<int>(b), pick);
  }
}

void MemCtrl::IssueTo(int bank_idx, std::uint32_t slot) {
  auto b = static_cast<std::size_t>(bank_idx);
  const Request& req = pool_[slot];
  in_service_[b] = slot;
  bool row_hit = banks_[b].IsRowOpen(req.row);
  (row_hit ? row_hits_ : row_misses_).Add();
  sim::Cycle done_at = banks_[b].Access(eq_->now(), req.row);
  queue_wait_cycles_.Add(eq_->now() - req.enqueued_at);
  if constexpr (obs::kObsEnabled) {
    if (m_row_hits_ != nullptr && row_hit) m_row_hits_->Add();
    if (m_queue_wait_ != nullptr) m_queue_wait_->Add(eq_->now() - req.enqueued_at);
    if (m_queue_wait_total_ != nullptr) {
      m_queue_wait_total_->Add(eq_->now() - req.enqueued_at);
    }
    if (sampler_ != nullptr) {
      sampler_->Note(obs::Signal::kDramAccess, eq_->now(), 1);
      sampler_->Note(obs::Signal::kMcQueueWait, eq_->now(), eq_->now() - req.enqueued_at);
    }
    if (tracer_ != nullptr && req.obs_token != 0) {
      tracer_->Stamp(req.obs_token, obs::Stage::kMcIssue, eq_->now());
      tracer_->NoteRowHit(req.obs_token, row_hit);
    }
  }
  eq_->ScheduleAt(done_at, [this, bank_idx] { Complete(bank_idx); });
}

void MemCtrl::Complete(int bank_idx) {
  auto b = static_cast<std::size_t>(bank_idx);
  // Free the bank and the slot before any callback runs: the done callback
  // may re-enter EnqueueRead, which may reuse the slot, grow the pool and
  // issue straight to this bank.
  std::uint32_t slot = in_service_[b];
  in_service_[b] = kNil;
  Request& r = pool_[slot];
  const std::uint64_t tag = r.tag;
  const sim::Addr addr = r.addr;
  const bool is_write = r.is_write;
  const std::uint64_t obs_token = r.obs_token;
  DoneFn done = std::move(r.done);
  r.live = false;
  free_slots_.push_back(slot);
  if (!is_write) {
    assert(tag != kWriteSentinelTag && "read completed with the write sentinel tag");
    if constexpr (obs::kObsEnabled) {
      if (tracer_ != nullptr && obs_token != 0) {
        tracer_->Stamp(obs_token, obs::Stage::kDramReady, eq_->now());
      }
    }
    ++reads_done_;
    if (on_ready_) on_ready_(tag, addr, eq_->now());
    if (done) done(tag, eq_->now());
  } else {
    assert(tag == kWriteSentinelTag && "write completed without the sentinel tag");
  }
  TrySchedule();
}

void MemCtrl::MaterializeStats() const {
  stats_.Clear();
  reads_.MaterializeInto(stats_, "mc.reads");
  writes_.MaterializeInto(stats_, "mc.writes");
  row_hits_.MaterializeInto(stats_, "mc.row_hits");
  row_misses_.MaterializeInto(stats_, "mc.row_misses");
  queue_wait_cycles_.MaterializeInto(stats_, "mc.queue_wait_cycles");
  nacks_.MaterializeInto(stats_, "mc.nacks");
  nack_retries_.MaterializeInto(stats_, "mc.nack_retries");
  bank_stall_events_.MaterializeInto(stats_, "mc.bank_stall_events");
  pressure_events_.MaterializeInto(stats_, "mc.pressure_events");
  pressure_delay_cycles_.MaterializeInto(stats_, "mc.pressure_delay_cycles");
}

void MemCtrl::Reset() {
  for (DramBank& b : banks_) b.Reset();
  pool_.clear();
  free_slots_.clear();
  std::fill(bank_queues_.begin(), bank_queues_.end(), BankQueue{});
  std::fill(in_service_.begin(), in_service_.end(), kNil);
  queued_ = 0;
  std::fill(bank_wake_until_.begin(), bank_wake_until_.end(), 0);
  reads_.Reset();
  writes_.Reset();
  row_hits_.Reset();
  row_misses_.Reset();
  queue_wait_cycles_.Reset();
  nacks_.Reset();
  nack_retries_.Reset();
  bank_stall_events_.Reset();
  pressure_events_.Reset();
  pressure_delay_cycles_.Reset();
  reads_done_ = 0;
  stats_.Clear();
}

}  // namespace ndc::mem
