#pragma once

// Fans independent simulation cells out across threads. Cells are coarse
// (milliseconds to seconds), so one shared atomic index counter is all the
// load balancing they need.

#include <cstddef>
#include <functional>

namespace ndc::harness {

/// Runs fn(0..n-1) and returns once every call has finished. With jobs <= 1
/// (or n <= 1) the calls run inline on the calling thread in index order.
/// Otherwise min(jobs, n) threads claim indices from one counter, highest
/// index first (on the Figure-4 sweep this peaks lower in memory than
/// claiming upward). Calls get no ordering guarantee across threads, so a
/// caller needing a deterministic result must write into a pre-sized output
/// indexed by i. If a call throws, no further indices are claimed and the
/// first exception is rethrown on the calling thread once every thread has
/// finished.
void ParallelFor(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ndc::harness
