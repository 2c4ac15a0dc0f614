#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

void Report::fail(const std::string& why) {
  ++failed;
  correct = false;
  // Keep the log readable when many requests fail the same way.
  if (failed <= 20) notes.push_back("FAIL " + why);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
    const std::size_t beyond = v.size() - rank;
    if (beyond >= 10 || p == 50.0) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

namespace {
constexpr std::size_t kMapSlots = 1u << 15;  // power of two, twice the key range
constexpr int kKernelOps = 40000;
constexpr std::size_t kBlockWords = 320;
constexpr std::size_t kBlocks = kKernelOps / 64 + 1;
}  // namespace

KernelArena::KernelArena()
    : keys(kMapSlots), vals(kMapSlots), blocks(kBlocks * kBlockWords) {
  heap.reserve(kKernelOps);
}

double ref_kernel_ms(KernelArena& a) {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::uint64_t kEmpty = ~0ULL;
  std::fill(a.keys.begin(), a.keys.end(), kEmpty);
  a.heap.clear();
  std::uint64_t sink = 0;
  std::size_t block_top = 0;
  for (int i = 0; i < kKernelOps; ++i) {
    // Hash-map upsert with linear probing.
    const std::uint64_t k = next() % (kMapSlots / 2);
    std::size_t slot = (k * 0x9e3779b97f4a7c15ULL) >> 49;
    while (a.keys[slot] != kEmpty && a.keys[slot] != k) slot = (slot + 1) & (kMapSlots - 1);
    if (a.keys[slot] == kEmpty) {
      a.keys[slot] = k;
      a.vals[slot] = 0;
    }
    a.vals[slot] += static_cast<std::uint64_t>(i);
    // Binary heap push, and a pop every third step.
    a.heap.push_back(next());
    std::push_heap(a.heap.begin(), a.heap.end());
    if (i % 3 == 0) {
      sink += a.heap.front();
      std::pop_heap(a.heap.begin(), a.heap.end());
      a.heap.pop_back();
    }
    // Bump-allocate and fill a block, as an allocator hands out memory.
    if (i % 64 == 0) {
      const std::size_t words = 64 + k % 256;
      std::fill_n(a.blocks.begin() + static_cast<std::ptrdiff_t>(block_top), words,
                  static_cast<std::uint32_t>(k));
      block_top += kBlockWords;
    }
  }
  for (std::size_t s = 0; s < kMapSlots; ++s) {
    if (a.keys[s] != kEmpty) sink += a.keys[s] ^ a.vals[s];
  }
  for (std::size_t b = 0; b < block_top; b += kBlockWords) sink += a.blocks[b];
  const double ms = ms_since(t0);
  // Fold the result into the timing's dependency chain so the work stays.
  return sink == 42 ? ms + 1e-9 : ms;
}

double ref_kernel_all_ms(std::vector<KernelArena>& arenas, int reps) {
  std::vector<std::vector<double>> times(arenas.size());
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < arenas.size(); ++t) {
    times[t].reserve(static_cast<std::size_t>(reps));
    threads.emplace_back([&, t] {
      // Start together, so every kernel runs while all CPUs are busy.
      ready.fetch_add(1);
      while (ready.load() < arenas.size()) {
      }
      for (int r = 0; r < reps; ++r) times[t].push_back(ref_kernel_ms(arenas[t]));
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<double> all;
  for (const auto& v : times) all.insert(all.end(), v.begin(), v.end());
  return median(std::move(all));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace perfbench
