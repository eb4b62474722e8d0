#pragma once

// The pre-calendar-queue event queue: a binary heap of heap-allocating
// std::function callbacks with an explicit FIFO sequence number.
//
// Kept (header-only) as the reference implementation for two purposes:
//  - tests/sim_test.cpp proves the calendar queue executes randomized
//    schedules in exactly the same order as this queue (the bit-identical
//    figure-output guarantee rests on that equivalence);
//  - bench/bench_substrate.cpp measures the calendar queue's events/sec
//    against this queue and enforces the speedup floor in CI.
//
// Do not use it in new simulator code.

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace ndc::sim {

class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  void ScheduleAt(Cycle when, Callback cb) {
    heap_.push(Entry{when, next_seq_++, std::move(cb)});
  }

  void ScheduleAfter(Cycle delay, Callback cb) { ScheduleAt(now_ + delay, std::move(cb)); }

  /// Same clock contract as EventQueue::RunUntilEmpty: a bounded run
  /// leaves now() at `limit`.
  std::uint64_t RunUntilEmpty(Cycle limit = kNeverCycle) {
    std::uint64_t n = 0;
    while (!heap_.empty()) {
      if (heap_.top().when > limit) break;
      Step();
      ++n;
    }
    if (limit != kNeverCycle && limit > now_) now_ = limit;
    return n;
  }

  bool Step() {
    if (heap_.empty()) return false;
    Entry e = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    now_ = e.when;
    ++executed_;
    e.cb();
    return true;
  }

  Cycle now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    Cycle when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ndc::sim
