// Shared pieces of the benchmark harness: run options, the report the
// harness prints, sample statistics, and the host reference kernel.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string data_dir;  // perfbench/data: .sk inputs and expected.json
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // how many measurements the value summarises
};

/// What one run prints: the correctness verdict, the end-to-end metrics
/// (untraced runs) or per-layer metrics (traced runs), and human notes.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;

  /// Records a failed operation (counted, and the run is not correct).
  void fail(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
  void add_e2e(std::string name, double value, std::string unit, std::size_t n) {
    e2e.push_back({std::move(name), value, std::move(unit), n});
  }
  void add_layer(std::string name, double value, std::string unit, std::size_t n) {
    layer.push_back({std::move(name), value, std::move(unit), n});
  }
};

// Sample statistics.  Both take the samples by value (they sort a copy).
/// Median (mean of the middle two for an even count); 0 for an empty input.
[[nodiscard]] double median(std::vector<double> v);
/// Geometric mean of positive values; 0 for an empty input.
[[nodiscard]] double geomean(const std::vector<double>& v);

/// The highest of the percentiles 99.9, 99, 95, 90, 75, 50 that still has
/// at least ten samples beyond it, by nearest rank.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Fixed buffers for the host reference kernel, allocated once before any
/// planner work, so the kernel never calls malloc and the heap state the
/// planner leaves behind cannot reach its timings.
struct KernelArena {
  KernelArena();
  std::vector<std::uint64_t> keys;   // open-addressing hash map: keys
  std::vector<std::uint64_t> vals;   // ... and values
  std::vector<std::uint64_t> heap;   // binary heap, capacity reserved
  std::vector<std::uint32_t> blocks; // bump-allocated blocks
};

/// The host reference kernel: hash-map, binary-heap and block-fill work
/// that touches none of the planner's code and allocates nothing.
/// Returns its wall time in ms.
[[nodiscard]] double ref_kernel_ms(KernelArena& arena);

/// The same kernel on `arenas.size()` threads at once (one arena each),
/// `reps` times per thread.  Returns the median of the per-kernel wall
/// times: what one kernel takes while every CPU is busy.
[[nodiscard]] double ref_kernel_all_ms(std::vector<KernelArena>& arenas, int reps);

/// The benchmark's unit of speed: calibrated times are reported as if one
/// reference kernel took this many ms.  A unit definition; never tuned.
inline constexpr double kRefNominalMs = 2.5;

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Whole file as a string; throws on a missing file.
[[nodiscard]] std::string read_file(const std::string& path);

/// The deterministic work of one solve.  DESIGN §7 (seeded RNG, no wall
/// clock in planning) makes it repeat exactly for the same problem, so a
/// difference is a failure, never noise.
struct WorkCounters {
  double rg_expansions = 0;
  double slrg_sets = 0;
  double replay_calls = 0;
  double sim_rejections = 0;

  bool operator==(const WorkCounters&) const = default;
};

/// Two costs agree at the precision the Table 2 reproduction prints.
[[nodiscard]] inline bool same_cost(double a, double b) {
  return a - b < 5e-3 && b - a < 5e-3;
}

// Workload entry points.
void run_batch(const RunOptions& opt, Report& report);
void run_service(const RunOptions& opt, Report& report);

}  // namespace perfbench
