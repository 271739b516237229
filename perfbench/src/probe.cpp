#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPendingKeys = 8192;
constexpr int kHolds = 1'000'000;

/// Keeps the kernels' sums observable so the loops are not folded away.
volatile std::uint64_t g_sink = 0;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Pop the earliest key and push it back a random step later, kHolds times.
std::uint64_t hold_kernel(std::uint64_t seed) {
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::uint64_t state = seed;
  for (int i = 0; i < kPendingKeys; ++i) heap.push(splitmix64(state) >> 20);
  std::uint64_t sum = 0;
  for (int i = 0; i < kHolds; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    sum += t;
    heap.push(t + (splitmix64(state) >> 40));
  }
  return sum;
}

}  // namespace

double host_probe_s(std::size_t threads) {
  threads = std::max<std::size_t>(threads, 1);
  std::vector<double> took(threads);
  std::vector<std::uint64_t> sums(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&took, &sums, i] {
      const Clock::time_point t0 = Clock::now();
      sums[i] = hold_kernel(i + 1);
      took[i] = std::chrono::duration<double>(Clock::now() - t0).count();
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::uint64_t s : sums) g_sink = g_sink + s;
  std::sort(took.begin(), took.end());
  const std::size_t n = took.size();
  return n % 2 == 1 ? took[n / 2] : 0.5 * (took[n / 2 - 1] + took[n / 2]);
}

}  // namespace perfbench
