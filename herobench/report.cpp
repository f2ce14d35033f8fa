#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/check.hpp"
#include "common/json.hpp"

namespace herobench {

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::vector<MetricSpec> declared_metrics(const std::string& benchmark_json, bool traced) {
  const hero::common::JsonValue doc = hero::common::parse_json(benchmark_json);
  std::vector<MetricSpec> out;
  std::set<std::string> seen;
  for (const auto& m : doc.at(traced ? "per_layer" : "end_to_end").as_array()) {
    MetricSpec spec{m.at("name").as_string(), m.at("unit").as_string()};
    HERO_CHECK_MSG(valid_metric_name(spec.name), "bad metric name '" << spec.name << "'");
    HERO_CHECK_MSG(valid_unit(spec.unit), "bad unit '" << spec.unit << "' of " << spec.name);
    HERO_CHECK_MSG(seen.insert(spec.name).second, "metric " << spec.name << " declared twice");
    out.push_back(std::move(spec));
  }
  return out;
}

Report::Report(const std::vector<MetricSpec>& catalog) {
  for (const MetricSpec& spec : catalog) entries_.push_back(Entry{spec, 0.0, false, {}});
}

void Report::set(std::string_view name, double value, std::string note) {
  HERO_CHECK_MSG(std::isfinite(value), "metric " << name << " is not finite: " << value);
  for (Entry& e : entries_) {
    if (e.spec.name == name) {
      e.value = value;
      e.measured = true;
      e.note = std::move(note);
      return;
    }
  }
  HERO_CHECK_MSG(false, "metric " << name << " is not in this mode's catalog");
}

bool Report::declares(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.spec.name == name; });
}

void Report::fail(const std::string& reason) { failures_.push_back(reason); }

void Report::info(std::string line) { info_.push_back(std::move(line)); }

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    out += (i == 0 ? "\"" : ", \"") + e.spec.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

int Report::print() const {
  for (const std::string& line : info_) std::printf("%s\n", line.c_str());
  for (const Entry& e : entries_) {
    std::printf("  %-40s %14.6g %-8s %s\n", e.spec.name.c_str(), e.value, e.spec.unit.c_str(),
                e.measured ? e.note.c_str() : "(not exercised by this workload)");
  }
  for (const std::string& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", json().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace herobench
