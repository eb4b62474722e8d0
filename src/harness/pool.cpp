#include "harness/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ndc::harness {

void ParallelFor(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> claimed{0};
  std::mutex error_mu;
  std::exception_ptr error;  // the first exception a call threw
  auto worker = [&] {
    for (std::size_t k; (k = claimed.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        fn(n - 1 - k);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr) error = std::current_exception();
        claimed.store(n, std::memory_order_relaxed);  // claim nothing more
      }
    }
  };
  std::vector<std::thread> threads(std::min(static_cast<std::size_t>(jobs), n));
  for (std::thread& t : threads) t = std::thread(worker);
  for (std::thread& t : threads) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace ndc::harness
