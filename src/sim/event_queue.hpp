#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace ndc::sim {

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same cycle execute in the order they were
/// scheduled (FIFO tie-break), which makes whole-machine simulations
/// bit-reproducible. This ordering contract is load-bearing: every figure's
/// stdout is goldened against it (tests/goldens/).
///
/// Every pending event is one 64-byte node — an invoke pointer, a `next`
/// index and up to kCaptureBytes of capture — drawn from a pool recycled
/// through a free list, so once the pool has grown scheduling allocates
/// nothing. The nodes are organised as a two-level calendar queue tuned for
/// the simulator's schedule profile (almost every event is `ScheduleAfter`
/// with a delay of a few to a few hundred cycles):
///
///  - a wheel of kWheelSize (256) per-cycle buckets covers every event
///    within [now, now + kWheelSize). A bucket is an intrusive FIFO list of
///    nodes (a head and a tail index), so insertion is one node write and a
///    tail link, and a four-word occupancy bitmap finds the next non-empty
///    cycle without a heap sift. The wheel is small on purpose: a run
///    retires about a dozen events per cycle, so a wheel of thousands of
///    buckets is evicted from cache before it wraps, while 256 buckets
///    (2 KB of indices) stay warm (DESIGN.md §10 has the measurements);
///  - events at or beyond now + kWheelSize go to an overflow min-heap of
///    (cycle, schedule sequence, node) keys. When the clock reaches a
///    cycle, its overflow nodes are spliced, in sequence order, ahead of
///    the bucket's own list. Overflow entries for a cycle are always older
///    (scheduled earlier) than any wheel entry for the same cycle — `now` is
///    monotonic, so once a cycle is inside the wheel window it can never be
///    scheduled into the overflow again — which is what keeps the FIFO
///    tie-break exact across the two levels.
///
/// Capture contract: a scheduled callable must be trivially copyable, at
/// most kCaptureBytes and at most kCaptureAlign-aligned (`Schedulable<F>`).
/// Draining an event is then a 64-byte copy of its node, a free-list push
/// and one indirect call — no relocate or destroy calls. A completion that
/// owns more state parks it elsewhere and schedules a pointer to it.
class EventQueue {
 public:
  static constexpr std::size_t kCaptureBytes = 48;
  static constexpr std::size_t kCaptureAlign = 16;

  /// True when a callable of type F can be scheduled: invocable as void(),
  /// trivially copyable and small enough to live in an event node.
  template <typename F, typename Fn = std::decay_t<F>>
  static constexpr bool Schedulable = std::is_invocable_r_v<void, Fn&> &&
                                      std::is_trivially_copyable_v<Fn> &&
                                      sizeof(Fn) <= kCaptureBytes &&
                                      alignof(Fn) <= kCaptureAlign;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to run at absolute cycle `when`.
  /// `when` must be >= now().
  template <typename F>
  void ScheduleAt(Cycle when, F&& cb) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "an event's capture must be trivially copyable");
    static_assert(sizeof(Fn) <= kCaptureBytes && alignof(Fn) <= kCaptureAlign,
                  "an event's capture must fit an event node");
    static_assert(Schedulable<Fn>, "an event must be callable as void()");
    assert(when >= now_ && "cannot schedule an event in the past");
    std::uint32_t n = AcquireNode();
    Node& node = nodes_[n];
    ::new (static_cast<void*>(node.capture)) Fn(std::forward<F>(cb));
    node.invoke = &InvokeImpl<Fn>;
    node.next = kNil;
    ++pending_;
    if (when - now_ < kWheelSize) {
      auto b = static_cast<std::size_t>(when) & kWheelMask;
      Bucket& bucket = wheel_[b];
      if (bucket.tail == kNil) {
        bucket.head = n;
        occupied_[b >> 6] |= 1ull << (b & 63);
      } else {
        nodes_[bucket.tail].next = n;
      }
      bucket.tail = n;
    } else {
      far_.push_back(FarKey{when, far_seq_++, n});
      std::push_heap(far_.begin(), far_.end(), FarLater{});
    }
  }

  /// Schedules `cb` to run `delay` cycles from now.
  template <typename F>
  void ScheduleAfter(Cycle delay, F&& cb) {
    ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  /// Runs events until the queue is empty or the next event lies beyond
  /// `limit` (events at exactly `limit` still run). Returns the number of
  /// events executed.
  ///
  /// Clock contract: after a bounded run (`limit` != kNeverCycle), now()
  /// == `limit` — the whole window [start, limit] has elapsed even when the
  /// last event fired earlier or no event fired at all (the clock never
  /// moves backwards, so a `limit` in the past leaves now() unchanged).
  /// After an unbounded run, now() is the cycle of the last executed event.
  std::uint64_t RunUntilEmpty(Cycle limit = kNeverCycle);

  /// Current simulated time.
  Cycle now() const { return now_; }

  /// Number of pending events.
  std::size_t pending() const { return pending_; }

  /// Total events executed so far.
  std::uint64_t executed() const { return executed_; }

 private:
  static constexpr int kWheelBits = 8;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One pending event: its capture, the thunk that invokes it, and the
  /// index of the next node in its bucket list or the free list.
  struct alignas(64) Node {
    alignas(kCaptureAlign) unsigned char capture[kCaptureBytes];
    void (*invoke)(void*);
    std::uint32_t next;
  };
  static_assert(sizeof(Node) == 64);

  /// A wheel bucket: an intrusive FIFO list of nodes (kNil when empty).
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// An overflow entry: its cycle, its schedule sequence (the FIFO
  /// tie-break among entries of one cycle) and its node.
  struct FarKey {
    Cycle when;
    std::uint64_t seq;
    std::uint32_t node;
  };
  /// Heap order: the earliest (cycle, sequence) on top.
  struct FarLater {
    bool operator()(const FarKey& x, const FarKey& y) const {
      return x.when != y.when ? x.when > y.when : x.seq > y.seq;
    }
  };

  template <typename Fn>
  static void InvokeImpl(void* p) {
    (*static_cast<Fn*>(p))();
  }

  std::uint32_t AcquireNode() {
    if (free_ == kNil) {
      nodes_.emplace_back();
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    std::uint32_t n = free_;
    free_ = nodes_[n].next;
    return n;
  }

  /// Cycle of the earliest pending event; kNeverCycle when empty.
  Cycle NextEventCycle() const;
  /// Advances now_ to cycle `c` and runs every event of it, including the
  /// ones its events schedule for `c`. Returns the number executed.
  std::uint64_t DrainCycle(Cycle c);

  std::vector<Node> nodes_;    ///< the node pool; lists link by index
  std::uint32_t free_ = kNil;  ///< head of the free-node list
  std::array<Bucket, kWheelSize> wheel_{};  ///< per-cycle FIFO lists
  std::array<std::uint64_t, kWheelSize / 64> occupied_{};  ///< wheel occupancy bitmap
  std::vector<FarKey> far_;   ///< min-heap of events beyond the wheel
  std::uint64_t far_seq_ = 0;

  Cycle now_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ndc::sim
