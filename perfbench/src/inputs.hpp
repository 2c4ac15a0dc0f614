// Benchmark inputs and their expected answers.
//
// Every input is a pure function of an index or a Table 2 row name, so the
// expected answers can be recorded once in data/expected.json:
//   * Table 2 rows: the costs EXPERIMENTS.md E4 reports (A = no plan);
//   * the service's repeated ("hit") .sk problems and the perturbed
//     ("miss") shapes: costs proven by the independent CP backend;
//   * the repair damage deltas: the engine's answer at record time (there is
//     no second repair implementation), re-checked on every run by
//     re-executing the shipped plan in the simulator;
//   * for every one of them, the work counters one solve produced.  They
//     must repeat exactly on every later solve, in every run.
// `perfbench_harness --record-expected <data dir>` regenerates the file.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/wire.hpp"

namespace perfbench {

struct Answer {
  std::optional<double> cost;  // nullopt = no plan exists
  WorkCounters work;
};

struct RepairAnswer {
  std::string outcome;
  double cost_lb = 0.0;
  bool repaired = false;
  WorkCounters work;
};

struct Expected {
  /// "Small/C" -> cost and the batch solve's counters (Tiny rows: cost only).
  std::map<std::string, Answer> table2;
  /// "tiny.sk" -> the repeated service problems.
  std::map<std::string, Answer> hit;
  /// By miss shape (miss_shape()).
  std::vector<Answer> miss;
  /// By repair-damage index.
  std::vector<RepairAnswer> repair;
  /// Counters of the cp slice, by cp_scenarios() index (costs: Tiny rows).
  std::vector<WorkCounters> cp;
};

[[nodiscard]] Expected load_expected(const std::string& data_dir);

/// The `scenario { ... }` section of Table 1's level scenario B..E, in the
/// .sk text format (T/I/Z cut points proportional to M's, as in
/// domains::media::scenario).
[[nodiscard]] std::string scenario_text(char name);

/// `problem_text` with its trailing scenario section replaced.
[[nodiscard]] std::string with_scenario(const std::string& problem_text, char name);

/// The cp slice's scenarios, solved on Tiny in mode cp.
[[nodiscard]] const std::string& cp_scenarios();

/// Number of perturbed shapes behind the miss slice.
inline constexpr std::size_t kMissShapes = 32;

/// Perturbed instance `i` (any index): shape i % kMissShapes, a copy of
/// data/small.sk (even shapes) or data/diamond.sk (odd shapes) with seeded
/// node CPUs and link bandwidths, and every node renamed "v<i>_<name>".
/// The rename keeps the structure and the answer of the shape but gives
/// each index its own fingerprint, so every miss request is compiled.
[[nodiscard]] std::string miss_variant_text(std::size_t i);
[[nodiscard]] inline std::size_t miss_shape(std::size_t i) { return i % kMissShapes; }

/// The repair slice's damage deltas against data/diamond.sk's plan.
struct DamageCase {
  std::string label;
  sekitei::service::wire::WireDamage damage;
};
[[nodiscard]] const std::vector<DamageCase>& repair_damages();

/// The repeated service problems (file names under the data dir).
[[nodiscard]] const std::vector<std::string>& hit_files();

// Record mode: what one solve of each input produces.
/// Small and Large A-E solved once each by the batch path (batch.cpp).
[[nodiscard]] std::map<std::string, Answer> record_table2();
/// Each hit file, miss shape, cp scenario and repair case sent once to a
/// fresh daemon (service.cpp); costs of hit and miss are the daemon's.
struct ServiceRecord {
  std::map<std::string, Answer> hit;
  std::vector<Answer> miss;
  std::vector<WorkCounters> cp;
  std::vector<RepairAnswer> repair;
};
[[nodiscard]] ServiceRecord record_service(const std::string& data_dir);

/// Regenerates <data_dir>/expected.json; returns a process exit code.
int record_expected(const std::string& data_dir);

}  // namespace perfbench
