// Shared plumbing of the three workloads: run options, clocks, set-up
// timing, peak memory, the span collector of the traced run, and the
// end-to-end report every workload fills the same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/compile.hpp"
#include "ir/executor.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "tensor/conv_ops.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace herobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of one measured phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string out_dir = ".";  ///< Chrome traces and the loss-digest records
  std::vector<MetricSpec> catalog;  ///< this mode's metrics, from BENCHMARK.json

  /// Length of one measured phase. A traced run measures the phase twice,
  /// untraced then traced, each for half of --seconds but at most 5 s: the
  /// per-layer numbers need no more, and a traced serve_tcp second records
  /// ~150k spans.
  double phase_seconds() const { return trace ? std::min(seconds / 2, 5.0) : seconds; }
};

Report run_train_hero(const Options& options);
Report run_predict_conv(const Options& options);
Report run_serve_tcp(const Options& options);

/// Heap allocations so far (the binary's counting operator new).
std::size_t allocations();

inline double seconds_since(hero::obs::Clock::time_point t0) {
  return static_cast<double>(hero::obs::ns_between(t0, hero::obs::now())) * 1e-9;
}

/// Restarts the process's peak resident set (Linux VmHWM) at its current
/// size, after returning the free memory set-up left in malloc's arenas.
/// Called between set-up and the measured phase: torn-down set-up repeats
/// leave a per-thread arena garbage whose size varies run to run (it moved
/// serve_tcp's lifetime peak by 7%), and is not memory the workload needs.
void restart_peak_rss();

/// Peak resident set since restart_peak_rss(), MiB.
double peak_rss_mb();

/// Set-ups per run; setup_s is their median. A set-up is short (10-200 ms)
/// and exposed to every swing of the host's speed, so it is sampled more
/// than once; nine cost under 2 s.
inline constexpr int kSetups = 9;

/// Runs `setup` `reps` times and returns the median wall time in seconds.
/// Each call must build everything the measured phase needs from scratch
/// (the last call's products are what the workload then measures).
template <class F>
double median_setup_s(int reps, F&& setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = hero::obs::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// Kernel-pool threads (caller included) of train_hero and predict_conv.
/// On the reference 4-vCPU VM a 4-thread pool made the host steal 5-17% of
/// CPU time and spread step-time deciles over 2x within a run; at 2 threads
/// steal stayed under 2% and training ran as fast.
inline constexpr int kKernelThreads = 2;

/// Untimed steady-state running between set-up and the first measured
/// phase. On the reference VM the first second under load runs up to 2x
/// slower than the rest (the host ramps the vCPUs up), which is neither
/// set-up work nor the program's steady speed.
inline constexpr double kSettleS = 1.0;

/// Calls `step` until kSettleS has passed.
template <class F>
void settle(F&& step) {
  const auto t0 = hero::obs::now();
  while (seconds_since(t0) < kSettleS) step();
}

/// What one measured phase produced, read by report_end_to_end().
///
/// The reference VM's host is shared, and its speed is not the program's:
/// a fixed compute loop pinned to one vCPU takes 1.0x-1.7x its best time
/// from one 100 ms slice to the next, and whole runs of one binary land
/// anywhere in between (predict_conv's mean call time moved 18-31 ms over
/// 17 single-thread runs). So throughput_per_s is the rate of the phase's
/// fastest stretch: one train step, one predict call, or, where requests
/// overlap (serve_tcp), the busiest one-second window: the program's speed
/// when the host leaves it alone. In the same runs it spread less than the
/// whole-phase mean and the work per process-CPU second (IQR/median over 5
/// runs: train_hero 0.04 against 0.12 per CPU second; over 10 runs of
/// serve_tcp: 0.11 against 0.13 for the mean). A run that falls wholly in a
/// busy spell of the host still reads slow. The per-operation times are
/// kept and printed as deciles.
struct Measured {
  double throughput_per_s = 0.0;
  std::vector<double> latency_ms;  ///< every operation's wall time; may be empty
  std::string throughput_note;     ///< what one unit of throughput is
};

/// Measured phases run at least this many operations, so the fastest one
/// is taken from a sample, and every printed decile has 10+ samples beyond.
inline constexpr std::size_t kMinOps = 100;

/// Sets throughput_per_s (and its note) from the fastest of m.latency_ms,
/// `work_per_op` units of `work` per operation.
void set_fastest_rate(Measured& m, double work_per_op, const char* work);

/// Fills every end-to-end metric and prints the latency deciles with their
/// sample counts.
void report_end_to_end(Report& report, double setup_s, const Measured& m);

/// obs.overhead.throughput_per_s: traced minus untraced throughput.
void report_overhead(Report& report, const Measured& untraced, const Measured& traced);

/// Owns the traced run's sink. install() makes it the process default so
/// the program's own spans (net.*, serve.*, deploy.predict, IR nodes,
/// pool.job) record into it; the benchmark's own spans around public calls
/// record into sink() directly, installed or not. collect() drains the rings
/// into records() — call it often enough that no ring wraps (dropped() must
/// stay 0 for the per-layer numbers to count).
class SpanCollector {
 public:
  SpanCollector() : sink_(hero::obs::TraceSink::Config{8192, 32}) {}
  ~SpanCollector() { uninstall(); }
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  hero::obs::TraceSink* sink() { return &sink_; }
  void install() { hero::obs::set_trace_sink(&sink_); }
  void uninstall() {
    if (hero::obs::trace_sink() == &sink_) hero::obs::set_trace_sink(nullptr);
  }
  /// Cheap enough to run every 50 ms beside a loaded server: the drained
  /// batch is kept as is and flattened by records().
  void collect() { chunks_.push_back(sink_.drain_sorted()); }
  /// Every record collected so far, in collection order.
  const std::vector<hero::obs::SpanRecord>& records() {
    for (const auto& chunk : chunks_) records_.insert(records_.end(), chunk.begin(), chunk.end());
    chunks_.clear();
    return records_;
  }
  std::int64_t dropped() const { return sink_.dropped(); }

  /// Collects, then writes every record as a Chrome trace to
  /// <out_dir>/<workload>.trace.json and reports obs.spans / obs.dropped.
  /// Fails the report when spans were dropped.
  void finish(Report& report, const Options& options);

 private:
  hero::obs::TraceSink sink_;
  std::vector<std::vector<hero::obs::SpanRecord>> chunks_;
  std::vector<hero::obs::SpanRecord> records_;
};

/// One GEMM shape [m, k] x [k, n], named "MxKxN" in the metric catalog.
struct Gemm {
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  double flops() const { return 2.0 * static_cast<double>(m) * k * n; }
  /// Computed bytes moved per call: both operands read, the result written.
  double bytes() const { return 4.0 * (static_cast<double>(m) * k + k * n + m * n); }
  static Gemm parse(const std::string& name);  ///< from "MxKxN"
};

/// The im2col geometries of a compiled graph at one input shape, read off
/// ir::infer_shapes.
std::vector<hero::Conv2dGeom> im2col_geoms(const hero::ir::Compiled& compiled,
                                           const hero::Shape& input);

/// Sets tensor.matmul_gflops.<shape> for each named shape: matmul_into on
/// seeded operands, median of benchmark spans "tensor.matmul".
void report_matmul(Report& report, SpanCollector& spans,
                   const std::vector<std::string>& shapes, std::uint64_t seed);

/// tensor.im2col_gbps (and tensor.col2im_gbps when `col2im`) on the geometry
/// with the most patch elements; bytes are input plus patch matrix.
void report_im2col(Report& report, SpanCollector& spans,
                   const std::vector<hero::Conv2dGeom>& geoms, bool col2im,
                   std::uint64_t seed);

/// ir.op_ns.<kind>: self time per `calls` of every IR node span, summed by
/// op kind; a kind missing from the catalog is printed instead.
void report_ir_ops(Report& report, const std::vector<hero::obs::SpanRecord>& records,
                   std::size_t calls);

/// pool.jobs_per_call and pool.job_us_p50 over the pool.job spans that lie
/// inside the spans named `call` on the same thread.
void report_pool(Report& report, const std::vector<hero::obs::SpanRecord>& records,
                 const char* call);

/// Durations (in `unit_ns` units) of every collected record named `name`.
std::vector<double> span_durations(const std::vector<hero::obs::SpanRecord>& records,
                                   const char* name, double unit_ns);

/// Duration of one fn() call in `unit_ns` units, inside a benchmark span
/// `name` recorded into the collector's sink.
template <class F>
double timed_call(SpanCollector& spans, const char* name, double unit_ns, F&& fn) {
  hero::obs::Span span(spans.sink(), name, "bench");
  const std::int64_t t0 = hero::obs::now_ns();
  fn();
  return static_cast<double>(hero::obs::now_ns() - t0) / unit_ns;
}

/// Median of `reps` timed_call()s; drains the rings afterwards, so one call
/// site may record up to a ring's capacity of spans.
template <class F>
double timed_median(SpanCollector& spans, const char* name, int reps, double unit_ns,
                    F&& fn) {
  std::vector<double> d;
  for (int r = 0; r < reps; ++r) d.push_back(timed_call(spans, name, unit_ns, fn));
  spans.collect();
  return median(d);
}

/// timed_median() of two calls interleaved call by call, so drift in the
/// machine's speed hits both alike; returns {median of a, median of b}.
template <class A, class B>
std::pair<double, double> paired_medians(SpanCollector& spans, const char* name_a,
                                         const char* name_b, int reps, double unit_ns, A&& a,
                                         B&& b) {
  std::vector<double> da;
  std::vector<double> db;
  for (int r = 0; r < reps; ++r) {
    da.push_back(timed_call(spans, name_a, unit_ns, a));
    db.push_back(timed_call(spans, name_b, unit_ns, b));
  }
  spans.collect();
  return {median(da), median(db)};
}

}  // namespace herobench
