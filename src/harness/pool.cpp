#include "harness/pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace ndc::harness {

void ParallelFor(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> claimed{0};
  auto worker = [&] {
    for (std::size_t k; (k = claimed.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fn(n - 1 - k);
    }
  };
  std::vector<std::thread> threads(std::min(static_cast<std::size_t>(jobs), n));
  for (std::thread& t : threads) t = std::thread(worker);
  for (std::thread& t : threads) t.join();
}

}  // namespace ndc::harness
