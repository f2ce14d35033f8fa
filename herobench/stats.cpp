#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace herobench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // ceil(p * n / 100) in exact arithmetic for the integral percentiles the
  // benchmark uses; the epsilon keeps 90 * 100 / 100 from rounding up to 91.
  const double k = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(k, 1.0)), 1, n);
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.p = p;
  out.n = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0).value; }

std::unordered_map<std::uint64_t, std::int64_t> self_time_ns(
    const std::vector<hero::obs::SpanRecord>& records) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const hero::obs::SpanRecord& r : records) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::unordered_map<std::uint64_t, std::int64_t> self;
  self.reserve(records.size());
  for (const hero::obs::SpanRecord& r : records) {
    std::int64_t covered = 0;
    if (auto it = children.find(r.id); it != children.end()) {
      auto& spans = it->second;
      std::sort(spans.begin(), spans.end());
      std::int64_t run_start = 0;
      std::int64_t run_end = 0;
      bool open = false;
      for (const auto& [start, end] : spans) {
        const std::int64_t s = std::max(start, r.start_ns);
        const std::int64_t e = std::min(end, r.end_ns);
        if (e <= s) continue;
        if (open && s <= run_end) {
          run_end = std::max(run_end, e);
          continue;
        }
        if (open) covered += run_end - run_start;
        run_start = s;
        run_end = e;
        open = true;
      }
      if (open) covered += run_end - run_start;
    }
    self[r.id] = (r.end_ns - r.start_ns) - covered;
  }
  return self;
}

}  // namespace herobench
