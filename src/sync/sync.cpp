#include "sync/sync.hpp"

#include <utility>

namespace ndc::sync {

void SyncManager::Enqueue(sim::NodeId node, SyncRequest req) {
  used_ = true;
  ++stats_.ops;
  if (IsAtomicOp(req.op)) ++stats_.atomics_issued;
  req.enqueued_at = eq_.now();
  Engine& e = engines_[node];
  e.queue.push_back(std::move(req));
  if (!e.busy) {
    e.busy = true;
    ScheduleService(node);
  }
}

void SyncManager::ScheduleService(sim::NodeId node) {
  eq_.ScheduleAfter(params_.service_latency, [this, node] { Service(node); });
}

void SyncManager::Service(sim::NodeId node) {
  Engine& e = engines_[node];
  SyncRequest req = std::move(e.queue.front());
  e.queue.pop_front();
  sim::Cycle elapsed = eq_.now() - req.enqueued_at;
  sim::Cycle wait = elapsed > params_.service_latency ? elapsed - params_.service_latency : 0;
  stats_.queue_wait_cycles += wait;
  if (reg_ != nullptr) {
    // Resolve the path once per engine, not per op (two allocations each).
    if (e.queue_wait == nullptr) {
      e.queue_wait = reg_->histogram("sync/engine." + std::to_string(node) + "/queue_wait");
    }
    e.queue_wait->Add(wait);
  }
  Execute(std::move(req));
  if (e.queue.empty()) {
    e.busy = false;
  } else {
    ScheduleService(node);
  }
}

void SyncManager::Execute(SyncRequest&& req) {
  switch (req.op) {
    case SyncOp::kAtomicAdd:
      values_[req.addr] += req.arg;
      ++stats_.atomics_completed;
      Grant(req);
      break;
    case SyncOp::kAtomicCas:
      if (values_[req.addr] == req.arg) values_[req.addr] = req.arg2;
      ++stats_.atomics_completed;
      Grant(req);
      break;
    case SyncOp::kLockAcquire: {
      LockState& l = locks_[req.addr];
      std::uint64_t ticket = l.next_ticket++;
      if (ticket == l.now_serving) {
        ++stats_.lock_acquires;
        Grant(req);
      } else {
        l.waiters.push_back(std::move(req));  // engine-FIFO arrival == ticket order
      }
      break;
    }
    case SyncOp::kLockRelease: {
      LockState& l = locks_[req.addr];
      ++l.now_serving;
      ++stats_.lock_releases;
      // The release carries the critical section's RMW delta: applying it
      // at the engine keeps the cell's value path identical to the atomic
      // scheme's, so cross-scheme totals agree.
      if (req.arg != 0) values_[req.addr] += req.arg;
      Grant(req);
      if (!l.waiters.empty()) {
        SyncRequest next = std::move(l.waiters.front());
        l.waiters.pop_front();
        ++stats_.lock_acquires;
        Grant(next);
      }
      break;
    }
    case SyncOp::kBarrierArrive: {
      BarrierState& b = barriers_[req.addr];
      ++stats_.barrier_arrivals;
      b.waiting.push_back(std::move(req));
      if (static_cast<std::int64_t>(b.waiting.size()) >= b.waiting.back().arg) {
        for (const SyncRequest& w : b.waiting) {
          ++stats_.barrier_departures;
          Grant(w);
        }
        b.waiting.clear();  // barrier resets for its next generation
      }
      break;
    }
    case SyncOp::kPost: {
      ++stats_.posts;
      std::int64_t count = ++post_counts_[req.addr];
      Grant(req);
      auto it = wait_parked_.find(req.addr);
      if (it != wait_parked_.end()) {
        // Grant the satisfied waits in arrival order and keep the rest, in
        // order, in place.
        std::vector<SyncRequest>& parked = it->second;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < parked.size(); ++i) {
          if (parked[i].arg <= count) {
            Grant(parked[i]);
          } else {
            if (kept != i) parked[kept] = std::move(parked[i]);
            ++kept;
          }
        }
        parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(kept), parked.end());
      }
      break;
    }
    case SyncOp::kWait:
      ++stats_.waits;
      if (post_counts_[req.addr] >= req.arg) {
        Grant(req);
      } else {
        wait_parked_[req.addr].push_back(std::move(req));
      }
      break;
  }
}

void SyncManager::Grant(const SyncRequest& req) {
  stats_.stall_cycles += eq_.now() - req.issued_at;
  if constexpr (obs::kObsEnabled) {
    if (sampler_ != nullptr) {
      sampler_->Note(obs::Signal::kSyncStall, eq_.now(), eq_.now() - req.issued_at);
    }
  }
  req.grant(req, eq_.now());
}

void SyncManager::MaterializeInto(sim::StatSet& out) const {
  if (!used_) return;
  out.Add("sync.ops", stats_.ops);
  out.Add("sync.atomics_issued", stats_.atomics_issued);
  out.Add("sync.atomics_completed", stats_.atomics_completed);
  out.Add("sync.lock_acquires", stats_.lock_acquires);
  out.Add("sync.lock_releases", stats_.lock_releases);
  out.Add("sync.barrier_arrivals", stats_.barrier_arrivals);
  out.Add("sync.barrier_departures", stats_.barrier_departures);
  out.Add("sync.posts", stats_.posts);
  out.Add("sync.waits", stats_.waits);
  out.Add("sync.stall_cycles", stats_.stall_cycles);
  out.Add("sync.queue_wait_cycles", stats_.queue_wait_cycles);
}

}  // namespace ndc::sync
