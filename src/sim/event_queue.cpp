#include "sim/event_queue.hpp"

namespace ndc::sim {

Cycle EventQueue::NextEventCycle() const {
  Cycle wheel_next = kNeverCycle;
  const std::size_t pos = static_cast<std::size_t>(now_) & kWheelMask;
  const std::size_t words = occupied_.size();
  for (std::size_t step = 0; step < words; ++step) {
    std::size_t w = ((pos >> 6) + step) % words;
    std::uint64_t word = occupied_[w];
    if (step == 0) word &= ~std::uint64_t{0} << (pos & 63);
    if (word != 0) {
      std::size_t idx = (w << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
      wheel_next = now_ + ((idx - pos) & kWheelMask);
      break;
    }
  }
  if (wheel_next == kNeverCycle && (pos & 63) != 0) {
    // Wrapped low bits of the starting word (cycles just under now_ + N).
    std::uint64_t word = occupied_[pos >> 6] & (~std::uint64_t{0} >> (64 - (pos & 63)));
    if (word != 0) {
      std::size_t idx = ((pos >> 6) << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
      wheel_next = now_ + ((idx - pos) & kWheelMask);
    }
  }
  if (!far_.empty() && far_.front().when < wheel_next) return far_.front().when;
  return wheel_next;
}

std::uint64_t EventQueue::DrainCycle(Cycle c) {
  assert(c != kNeverCycle && c >= now_);
  now_ = c;
  const std::size_t b = static_cast<std::size_t>(c) & kWheelMask;
  Bucket& bucket = wheel_[b];
  // Splice this cycle's overflow nodes, in schedule order, ahead of the
  // bucket's own (younger) entries.
  if (!far_.empty() && far_.front().when == c) {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    do {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      std::uint32_t n = far_.back().node;
      far_.pop_back();
      if (tail == kNil) {
        head = n;
      } else {
        nodes_[tail].next = n;
      }
      tail = n;
    } while (!far_.empty() && far_.front().when == c);
    nodes_[tail].next = bucket.head;
    if (bucket.tail == kNil) bucket.tail = tail;
    bucket.head = head;
    occupied_[b >> 6] |= 1ull << (b & 63);
  }
  // Events may append to this very bucket (ScheduleAt(now)) and grow the
  // pool, so each node is unlinked, copied out and freed before it runs.
  const std::uint64_t executed_before = executed_;
  while (bucket.head != kNil) {
    std::uint32_t i = bucket.head;
    Node node = nodes_[i];
    bucket.head = node.next;
    if (bucket.head == kNil) bucket.tail = kNil;
    nodes_[i].next = free_;
    free_ = i;
    --pending_;
    ++executed_;
    node.invoke(node.capture);
  }
  occupied_[b >> 6] &= ~(1ull << (b & 63));
  return executed_ - executed_before;
}

std::uint64_t EventQueue::RunUntilEmpty(Cycle limit) {
  std::uint64_t n = 0;
  while (pending_ != 0) {
    Cycle c = NextEventCycle();
    if (c > limit) break;
    n += DrainCycle(c);
  }
  if (limit != kNeverCycle && limit > now_) now_ = limit;
  return n;
}

}  // namespace ndc::sim
