// The run report, filled against the metric catalog BENCHMARK.json declares.
//
// A run with --trace 0 reports every end-to-end metric; a run with --trace 1
// reports every per-layer metric. The catalog is read from BENCHMARK.json at
// start-up, so the file is the only list of names and units. The report
// starts from the whole catalog, so a metric a workload does not exercise
// reads 0 and is marked as such in the human-readable lines; set() rejects
// names outside the catalog, so the output can never drift from the file.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace herobench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// BENCHMARK.json's name charset: a letter or digit, then letters, digits,
/// '_', '.' and '-', at most 64 characters.
bool valid_metric_name(std::string_view name);

/// Its unit charset: 1-16 letters, digits, '_', '/', '%', '.' and '-'.
bool valid_unit(std::string_view unit);

/// The metrics a BENCHMARK.json document declares for one mode, in file
/// order: "per_layer" when `traced`, else "end_to_end". Throws hero::Error
/// for a name or unit outside the charset, or a name used twice.
std::vector<MetricSpec> declared_metrics(const std::string& benchmark_json, bool traced);

class Report {
 public:
  explicit Report(const std::vector<MetricSpec>& catalog);

  /// Sets a catalog metric; throws hero::Error for a name outside the
  /// catalog or a non-finite value. `note` (sample counts, bases) goes to
  /// the human-readable line only.
  void set(std::string_view name, double value, std::string note = {});

  /// Whether the catalog holds `name`.
  bool declares(std::string_view name) const;

  /// Marks the run incorrect; the reason is printed and the exit code is 1.
  void fail(const std::string& reason);
  bool correct() const { return failures_.empty(); }

  /// Free-form context line printed before the metrics (budgets, phases).
  void info(std::string line);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Human-readable lines, then the result JSON as the last stdout line.
  /// Returns the process exit code: 0 when every output check passed.
  int print() const;

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Entry {
    MetricSpec spec;
    double value = 0.0;
    bool measured = false;
    std::string note;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> info_;
  std::vector<std::string> failures_;
};

}  // namespace herobench
