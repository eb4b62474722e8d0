#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "sync/ops.hpp"

namespace ndc::sync {

/// Tuning knobs for the sync engines.
struct SyncParams {
  /// Cycles an engine spends servicing one request (its occupancy per op);
  /// back-to-back requests at one engine serialize at this rate.
  sim::Cycle service_latency = 2;
};

/// One synchronization request as seen by an engine. The transport owner
/// (ndc::Machine) fills `grant` with the response path back to the issuing
/// core; the engine calls it exactly once, when the request is granted.
/// Move-only: `grant` keeps its capture (up to kGrantBytes) inline.
struct SyncRequest {
  static constexpr std::size_t kGrantBytes = 24;

  SyncOp op = SyncOp::kAtomicAdd;
  sim::Addr addr = 0;        ///< synchronization object (lock/barrier/cell/slot)
  std::int64_t arg = 0;      ///< op-specific: add delta / expected / threshold
  std::int64_t arg2 = 0;     ///< kAtomicCas only: desired value
  sim::NodeId core = 0;      ///< issuing core
  std::uint32_t slot = 0;    ///< trace slot to complete on grant
  sim::Cycle issued_at = 0;  ///< cycle the core issued the op (stall accounting)
  sim::InlineFunction<void(const SyncRequest&, sim::Cycle), kGrantBytes> grant;

  sim::Cycle enqueued_at = 0;  ///< set by the engine on arrival
};

/// Aggregate engine counters (also the source of the conservation fields).
struct SyncStats {
  std::uint64_t ops = 0;
  std::uint64_t atomics_issued = 0;
  std::uint64_t atomics_completed = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_releases = 0;
  std::uint64_t barrier_arrivals = 0;
  std::uint64_t barrier_departures = 0;
  std::uint64_t posts = 0;
  std::uint64_t waits = 0;
  std::uint64_t stall_cycles = 0;       ///< sum over ops of grant - issue
  std::uint64_t queue_wait_cycles = 0;  ///< sum over ops of service - arrival
};

/// Deterministic event-driven synchronization engines, one per home node
/// (LLC slice / NDC node), in the mold of SynCron's per-memory-side sync
/// units. Requests arrive via Enqueue (after their NoC flight), queue FIFO
/// per engine, and are serviced one per `service_latency` cycles. Blocking
/// ops (lock acquire behind a holder, barrier arrival, wait before its
/// post) park inside the engine's object state and are granted — in
/// deterministic FIFO/ticket order — by the op that unblocks them.
///
/// The engines own the *values* of atomically-updated cells in a plain
/// ordered map: fetch-add/CAS and lock-guarded RMW deltas (carried on the
/// release) apply there, so two runs with the same seed produce identical
/// final value maps — the reproducibility contract the sync tests assert.
class SyncManager {
 public:
  SyncManager(sim::EventQueue& eq, SyncParams params) : eq_(eq), params_(params) {}

  SyncManager(const SyncManager&) = delete;
  SyncManager& operator=(const SyncManager&) = delete;

  /// Hands a request to the engine at `node`. Called by the transport when
  /// the request packet is delivered.
  void Enqueue(sim::NodeId node, SyncRequest req);

  /// Attach a metrics registry: per-engine queue-wait histograms are
  /// recorded under "sync/engine.<node>/queue_wait".
  void set_registry(obs::Registry* reg) { reg_ = reg; }

  /// Phase-window sampler for stall deltas noted at grant time (may be
  /// null). Passive: never changes grant order or timing.
  void set_sampler(obs::WindowSampler* sampler) { sampler_ = sampler; }

  /// True once any request was enqueued (keys stats out of sync-free runs).
  bool used() const { return used_; }

  const SyncStats& stats() const { return stats_; }

  /// Final values of every atomically-updated cell, keyed by address
  /// (deterministically ordered).
  const std::map<sim::Addr, std::int64_t>& values() const { return values_; }

  /// Adds "sync.*" counters to `out` — only when the subsystem was used,
  /// so sync-free runs keep their StatSet byte-identical.
  void MaterializeInto(sim::StatSet& out) const;

 private:
  /// A FIFO queue that, unlike std::deque, stops allocating once it has grown
  /// to its peak length: a ring over a power-of-two vector that doubles when
  /// full.
  template <typename T>
  class Fifo {
   public:
    bool empty() const { return size_ == 0; }
    T& front() { return buf_[head_]; }

    void push_back(T v) {
      if (size_ == buf_.size()) Grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
      ++size_;
    }

    void pop_front() {
      buf_[head_] = T{};  // drop what the element still holds
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }

   private:
    void Grow() {
      std::vector<T> next(std::max<std::size_t>(8, 2 * buf_.size()));
      for (std::size_t i = 0; i < size_; ++i) {
        next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
      }
      buf_.swap(next);
      head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct Engine {
    Fifo<SyncRequest> queue;
    bool busy = false;
    obs::Histogram* queue_wait = nullptr;  ///< resolved at its first service
  };
  struct LockState {
    std::uint64_t next_ticket = 0;
    std::uint64_t now_serving = 0;
    Fifo<SyncRequest> waiters;  ///< parked acquires, ticket order
  };
  struct BarrierState {
    std::vector<SyncRequest> waiting;
  };

  void ScheduleService(sim::NodeId node);
  void Service(sim::NodeId node);
  void Execute(SyncRequest&& req);
  void Grant(const SyncRequest& req);

  sim::EventQueue& eq_;
  SyncParams params_;
  std::map<sim::NodeId, Engine> engines_;
  std::map<sim::Addr, LockState> locks_;
  std::map<sim::Addr, BarrierState> barriers_;
  std::map<sim::Addr, std::int64_t> post_counts_;
  std::map<sim::Addr, std::vector<SyncRequest>> wait_parked_;
  std::map<sim::Addr, std::int64_t> values_;

  bool used_ = false;
  SyncStats stats_;
  obs::Registry* reg_ = nullptr;
  obs::WindowSampler* sampler_ = nullptr;
};

}  // namespace ndc::sync
