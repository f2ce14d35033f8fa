// Tests of the benchmark's own helpers: exact percentiles with beyond
// counts, self time over nested spans, GEMM shape names, and the metric
// catalog loader (name and unit charset, duplicates).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/json.hpp"

namespace herobench {
namespace {

TEST(Percentile, NearestRankAndBeyondCounts) {
  EXPECT_EQ(nearest_rank(100, 90.0), 90u);
  EXPECT_EQ(nearest_rank(124, 90.0), 112u);
  EXPECT_EQ(nearest_rank(1000, 99.0), 990u);
  EXPECT_EQ(nearest_rank(4, 50.0), 2u);
  EXPECT_EQ(nearest_rank(1, 99.0), 1u);

  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) samples.push_back(i);  // unsorted input
  const Percentile p90 = percentile(samples, 90.0);
  EXPECT_EQ(p90.value, 180.0);
  EXPECT_EQ(p90.n, 200u);
  EXPECT_EQ(p90.beyond, 20u);
  EXPECT_EQ(percentile(samples, 50.0).value, 100.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);

  const Percentile empty = percentile({}, 99.0);
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.beyond, 0u);
}

TEST(Percentile, OperationFloorLeavesTenBeyondEveryDecile) {
  EXPECT_GE(kMinOps - nearest_rank(kMinOps, 90.0), 10u);
}

TEST(FastestRate, TakesTheFastestOperation) {
  Measured m;
  m.latency_ms = {12.0, 8.0, 10.0, 9.5};
  set_fastest_rate(m, 32, "images");
  EXPECT_DOUBLE_EQ(m.throughput_per_s, 32 * 1e3 / 8.0);
  EXPECT_NE(m.throughput_note.find("fastest of 4"), std::string::npos) << m.throughput_note;
  Measured none;
  EXPECT_THROW(set_fastest_rate(none, 1, "x"), hero::Error);
}

hero::obs::SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
                           std::int64_t end) {
  hero::obs::SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.start_ns = start;
  r.end_ns = end;
  return r;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<hero::obs::SpanRecord> records = {
      span(1, 0, 0, 100),
      span(2, 1, 10, 30),
      span(3, 1, 20, 50),   // overlaps span 2: counted once
      span(4, 1, 60, 70),
      span(5, 4, 61, 69),   // grandchild: only its parent loses the time
      span(6, 1, 95, 120),  // runs past the parent: clipped to it
  };
  const auto self = self_time_ns(records);
  EXPECT_EQ(self.at(1), 100 - (40 + 10 + 5));
  EXPECT_EQ(self.at(2), 20);
  EXPECT_EQ(self.at(4), 2);
  EXPECT_EQ(self.at(5), 8);
  EXPECT_EQ(self.at(6), 25);
}

TEST(Gemm, ParsesShapeNames) {
  const Gemm g = Gemm::parse("1024x72x16");
  EXPECT_EQ(g.m, 1024);
  EXPECT_EQ(g.k, 72);
  EXPECT_EQ(g.n, 16);
  EXPECT_DOUBLE_EQ(g.flops(), 2.0 * 1024 * 72 * 16);
  EXPECT_THROW(Gemm::parse("1024x72"), hero::Error);
}

TEST(MetricNames, CharsetRules) {
  EXPECT_TRUE(valid_metric_name("tensor.matmul_gflops.4096x72x16"));
  EXPECT_TRUE(valid_metric_name("9lives-ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("GFLOP/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("per second"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricNames, LoaderReadsTheModeAndRejectsBadEntries) {
  const std::string doc =
      R"({"end_to_end": [{"name": "setup_s", "unit": "s", "bound": 0.25},)"
      R"( {"name": "latency_ms_p90", "unit": "ms"}],)"
      R"( "per_layer": [{"name": "tensor.matmul_gflops.8x8x8", "unit": "GFLOP/s"}]})";
  const std::vector<MetricSpec> e2e = declared_metrics(doc, /*traced=*/false);
  ASSERT_EQ(e2e.size(), 2u);
  EXPECT_EQ(e2e[1].name, "latency_ms_p90");
  EXPECT_EQ(e2e[1].unit, "ms");
  EXPECT_EQ(declared_metrics(doc, /*traced=*/true).at(0).unit, "GFLOP/s");
  for (const char* bad : {
           R"({"end_to_end": [{"name": "has space", "unit": "s"}]})",
           R"({"end_to_end": [{"name": "a", "unit": "per second"}]})",
           R"({"end_to_end": [{"name": "a", "unit": "s"}, {"name": "a", "unit": "ms"}]})",
           R"({"per_layer": []})",
       }) {
    EXPECT_THROW(declared_metrics(bad, /*traced=*/false), hero::Error) << bad;
  }
}

TEST(Report, StartsFromTheWholeCatalogAndRejectsUnknownNames) {
  Report report({{"setup_s", "s"}, {"latency_ms_p90", "ms"}});
  report.set("latency_ms_p90", 1.25);
  EXPECT_TRUE(report.declares("setup_s"));
  EXPECT_FALSE(report.declares("train.forward_ms"));
  EXPECT_THROW(report.set("train.forward_ms", 1.0), hero::Error);
  EXPECT_THROW(report.set("latency_ms_p90", std::nan("")), hero::Error);
  const hero::common::JsonValue doc = hero::common::parse_json(report.json());
  EXPECT_TRUE(doc.at("correct").as_bool());
  EXPECT_EQ(doc.at("metrics").as_object().size(), 2u);
  EXPECT_EQ(doc.at("metrics").at("latency_ms_p90").at("value").as_number(), 1.25);
  EXPECT_EQ(doc.at("metrics").at("setup_s").at("value").as_number(), 0.0);
  report.fail("bad output");
  EXPECT_FALSE(hero::common::parse_json(report.json()).at("correct").as_bool());
}

}  // namespace
}  // namespace herobench
