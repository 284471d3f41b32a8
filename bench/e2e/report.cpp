#include "report.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dvs::bench {

namespace {

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + format_number(v[i]);
  }
  return out + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Json document() {
    Json v = value();
    skip();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(i_));
  }
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      out += s_[i_++];
    }
    if (i_ == s_.size()) fail("unterminated string");
    ++i_;
    return out;
  }
  Json value() {
    skip();
    if (i_ == s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++i_;
      if (eat('}')) return v;
      do {
        skip();
        std::string key = string();
        expect(':');
        v.object[key] = value();
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      v.type = Json::Type::kArray;
      ++i_;
      if (eat(']')) return v;
      do {
        v.array.push_back(value());
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.type = Json::Type::kString;
      v.string = string();
    } else if (literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = Json::Type::kBool;
    } else if (literal("null")) {
      v.type = Json::Type::kNull;
    } else {
      v.type = Json::Type::kNumber;
      const char* begin = s_.data() + i_;
      const auto [end, ec] =
          std::from_chars(begin, s_.data() + s_.size(), v.number);
      if (ec != std::errc()) fail("bad number");
      i_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::vector<double> numbers(const Json& array) {
  std::vector<double> out;
  for (const Json& v : array.array) out.push_back(v.number);
  return out;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) return {0, 0, 0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long>(values.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

std::string results_json(
    const std::map<std::string, std::string>& meta,
    const std::map<std::string, WorkloadResult>& workloads) {
  std::string out = "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  out += "},\n  \"workloads\": {";
  first = true;
  for (const auto& [name, w] : workloads) {
    out += (first ? "\n    " : ",\n    ") + json_string(name) + ": {";
    first = false;
    out += "\"valid\": " + std::string(w.failures.empty() ? "true" : "false");
    out += ", \"failures\": [";
    for (std::size_t i = 0; i < w.failures.size(); ++i) {
      out += (i ? ", " : "") + json_string(w.failures[i]);
    }
    out += "], \"attempted\": " + json_array(w.attempted) +
           ", \"failed\": " + json_array(w.failed) + ", \"metrics\": {";
    bool first_metric = true;
    for (const auto& [metric, s] : w.metrics) {
      const std::array<double, 3> q = quartiles(s.values);
      out += (first_metric ? "\n      " : ",\n      ") + json_string(metric) +
             ": {\"unit\": " + json_string(s.unit) +
             ", \"values\": " + json_array(s.values) +
             ", \"q1\": " + format_number(q[0]) +
             ", \"median\": " + format_number(q[1]) +
             ", \"q3\": " + format_number(q[2]) + "}";
      first_metric = false;
    }
    out += "}}";
  }
  return out + "\n  }\n}\n";
}

const Json& Json::operator[](const std::string& key) const {
  static const Json kNull;
  const auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

Json parse_json(const std::string& text) { return Parser(text).document(); }

int compare(const Json& benchmark, const Json& a, const Json& b,
            std::ostream& out) {
  int regressions = 0;
  int unresolved = 0;
  for (const auto& [workload, wa] : a["workloads"].object) {
    const Json& wb = b["workloads"][workload];
    if (wb.type != Json::Type::kObject) continue;
    out << workload << ":";
    for (const Json& e : benchmark["end_to_end"].array) {
      const std::string name = e["name"].string;
      const Json& sa = wa["metrics"][name];
      const Json& sb = wb["metrics"][name];
      if (sa["values"].array.empty() || sb["values"].array.empty()) continue;
      const bool lower = e["better"].string == "lower";
      const double bound = e["bound"].number;
      const std::vector<double> va = numbers(sa["values"]);
      const std::vector<double> vb = numbers(sb["values"]);
      const std::array<double, 3> qa = quartiles(va);
      const std::array<double, 3> qb = quartiles(vb);
      const double ma = qa[1];
      const double mb = qb[1];
      const double change = ma != 0 ? (mb - ma) / std::fabs(ma) : 0;
      const double worse = lower ? change : -change;
      const auto spread = [](const std::array<double, 3>& q) {
        return q[1] != 0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0;
      };
      const bool b_beats_all =
          lower ? *std::max_element(vb.begin(), vb.end()) <
                      *std::min_element(va.begin(), va.end())
                : *std::min_element(vb.begin(), vb.end()) >
                      *std::max_element(va.begin(), va.end());
      std::string verdict = "same";
      if (spread(qa) > bound || spread(qb) > bound) {
        verdict = b_beats_all ? "improved" : "unresolved";
      } else if (worse > bound) {
        verdict = "REGRESSED";
      } else if (-worse > bound) {
        verdict = "improved";
      }
      regressions += verdict == "REGRESSED";
      unresolved += verdict == "unresolved";
      char cell[160];
      std::snprintf(cell, sizeof(cell), "  %s %.4g->%.4g (%+.1f%%, bound %.0f%%) %s;",
                    name.c_str(), ma, mb, 100 * change, 100 * bound,
                    verdict.c_str());
      out << cell;
    }
    out << "\n";
  }
  out << regressions << " regression(s), " << unresolved
      << " unresolved metric(s)\n";
  return regressions;
}

}  // namespace dvs::bench
