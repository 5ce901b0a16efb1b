#include "yardstick.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>

namespace perfbench {
namespace {

constexpr std::size_t kHeapKeys = 4096;                    // 32 KiB
constexpr std::size_t kTableSlots = 4096;                  // 32 KiB
constexpr std::size_t kChaseSlots = std::size_t{1} << 20;  // 4 MiB
constexpr int kHeapSteps = 10'000;
constexpr int kChaseSteps = 20'000;

std::uint64_t lcg(std::uint64_t* s) {
  *s = *s * 6364136223846793005ull + 1442695040888963407ull;
  return *s;
}

}  // namespace

Yardstick::Yardstick()
    : heap_(kHeapKeys), table_(kTableSlots, 0.0), next_(kChaseSlots) {
  // Keys start spread as widely as slice() spreads them (one increment),
  // so the heap's shape -- and a slice's cost -- is the same from the
  // first slice to the last.
  for (std::uint64_t& k : heap_) k = lcg(&state_) >> 48;
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  // Sattolo's shuffle: following next_ from any slot visits every slot.
  std::iota(next_.begin(), next_.end(), 0u);
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[lcg(&state_) % i]);
  }
}

double Yardstick::slice() {
  // Warm-up, untimed: read every buffer once, so a slice's time does not
  // depend on how much of the cache the workload's last call evicted.
  sink_ += std::accumulate(heap_.begin(), heap_.end(), std::uint64_t{0}) +
           std::accumulate(next_.begin(), next_.end(), std::uint64_t{0}) +
           static_cast<std::uint64_t>(
               std::accumulate(table_.begin(), table_.end(), 0.0));

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < kHeapSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::uint64_t key = heap_.back();
    double& cell = table_[(key ^ acc) & (kTableSlots - 1)];
    cell = 0.5 * cell + static_cast<double>(key & 0xffff) * 1e-3;
    heap_.back() = key + 1 + (lcg(&state_) >> 48);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    acc += key ^ static_cast<std::uint64_t>(cell);
  }
  for (int i = 0; i < kChaseSteps; ++i) cursor_ = next_[cursor_];
  sink_ += acc + cursor_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
