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

void EventQueue::StartDrain(Cycle c) {
  assert(c != kNeverCycle && c >= now_);
  now_ = c;
  // Promote this cycle's overflow entries in schedule order.
  while (!far_.empty() && far_.front().when == c) {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    std::uint32_t slot = far_.back().slot;
    far_.pop_back();
    far_cur_.push_back(std::move(far_slots_[slot]));
    far_free_.push_back(slot);
  }
  far_idx_ = 0;
  cur_bucket_ = static_cast<std::size_t>(c) & kWheelMask;
  wheel_idx_ = 0;
  draining_ = true;
}

void EventQueue::ExecuteOne() {
  // Move the callback out before invoking it: the invocation may append to
  // the very bucket we are draining (ScheduleAt(now)) and reallocate it.
  SmallCallback cb;
  if (far_idx_ < far_cur_.size()) {
    cb = std::move(far_cur_[far_idx_++]);
  } else {
    cb = std::move(wheel_[cur_bucket_][wheel_idx_++]);
  }
  --pending_;
  ++executed_;
  cb();
  if (far_idx_ >= far_cur_.size() && wheel_idx_ >= wheel_[cur_bucket_].size()) {
    far_cur_.clear();
    far_idx_ = 0;
    wheel_[cur_bucket_].clear();  // keeps capacity for reuse
    wheel_idx_ = 0;
    occupied_[cur_bucket_ >> 6] &= ~(1ull << (cur_bucket_ & 63));
    draining_ = false;
  }
}

bool EventQueue::Step() {
  if (!draining_) {
    if (pending_ == 0) return false;
    StartDrain(NextEventCycle());
  }
  ExecuteOne();
  return true;
}

std::uint64_t EventQueue::RunUntilEmpty(Cycle limit) {
  std::uint64_t n = 0;
  for (;;) {
    if (!draining_) {
      if (pending_ == 0) break;
      Cycle c = NextEventCycle();
      if (c > limit) break;
      StartDrain(c);
    } else if (now_ > limit) {
      break;  // mid-drain entries (via Step) beyond the window stay pending
    }
    while (draining_) {
      ExecuteOne();
      ++n;
    }
  }
  if (limit != kNeverCycle && limit > now_) now_ = limit;
  return n;
}

}  // namespace ndc::sim
