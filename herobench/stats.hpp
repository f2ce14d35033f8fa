// Exact order statistics and span arithmetic for the benchmark's reports.
//
// Every end-to-end timing keeps ALL of its samples and reads percentiles by
// nearest rank, so a reported p90 is a sample that was actually observed and
// the number of samples behind it is known exactly. The library's own
// percentile sources (common::Reservoir's 512-sample retention, the obs
// registry's 2x-bucket histograms, net::Client::latency_us()) are never used
// for a reported number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace herobench {

/// 1-based nearest rank of the p-th percentile (p in (0, 100]) among n >= 1
/// samples: the smallest k with k >= p/100 * n.
std::size_t nearest_rank(std::size_t n, double p);

/// One percentile read off a sample set.
struct Percentile {
  double p = 0.0;           ///< requested percentile, e.g. 90
  double value = 0.0;       ///< the sample at nearest_rank(n, p)
  std::size_t n = 0;        ///< sample count
  std::size_t beyond = 0;   ///< samples ranked after it: n - nearest_rank(n, p)
};

/// Percentile of an unsorted sample set (copied and sorted). n == 0 gives an
/// all-zero result.
Percentile percentile(std::vector<double> samples, double p);

/// Median by nearest rank (0 for an empty set).
double median(std::vector<double> samples);

/// Self time of every record: its duration minus the part of its interval
/// covered by its children (records whose `parent` is its id), with
/// overlapping children counted once. Keyed by span id.
std::unordered_map<std::uint64_t, std::int64_t> self_time_ns(
    const std::vector<hero::obs::SpanRecord>& records);

}  // namespace herobench
