// Summary statistics, the JSON result document, and `--compare`.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dvs::bench {

/// Nearest-rank percentile (q in [0, 1]) of unsorted values; 0 for none.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the "exclusive" method); a single value is its own quartiles.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

/// Shortest decimal that reads back as the same double.
[[nodiscard]] std::string format_number(double v);

/// One metric of one workload, one value per run.
struct Series {
  std::string unit;
  std::vector<double> values;
};

/// One workload's results across its runs.
struct WorkloadResult {
  std::vector<std::string> failures;  // checks that failed, in any run
  std::vector<double> attempted;
  std::vector<double> failed;
  std::map<std::string, Series> metrics;
};

/// The result document: run metadata plus, per workload, every metric's
/// per-run values with their median and quartiles.
[[nodiscard]] std::string results_json(
    const std::map<std::string, std::string>& meta,
    const std::map<std::string, WorkloadResult>& workloads);

/// A parsed JSON value (only what --compare reads).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// The member `key`, or a null value when absent.
  [[nodiscard]] const Json& operator[](const std::string& key) const;
};

/// Parses a JSON document; throws std::runtime_error on malformed input.
[[nodiscard]] Json parse_json(const std::string& text);

/// Prints one row per workload comparing result documents `a` (base) and
/// `b` against BENCHMARK.json's end-to-end bounds. A change beyond a bound
/// is flagged; a metric whose quartile spread exceeds its bound is
/// "unresolved" unless every run of `b` beats every run of `a`. Returns the
/// number of regressions.
int compare(const Json& benchmark, const Json& a, const Json& b,
            std::ostream& out);

}  // namespace dvs::bench
