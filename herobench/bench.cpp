#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "common/check.hpp"
#include "tensor/tensor.hpp"

namespace herobench {

namespace {

/// The Chrome trace keeps the earliest spans up to this count: a traced
/// serve_tcp run records over a million, and the metrics use all of them.
constexpr std::size_t kMaxChromeSpans = 200'000;

std::string counts(const Percentile& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(p%g of n=%zu, %zu beyond)", p.p, p.n, p.beyond);
  return buf;
}

}  // namespace

void set_fastest_rate(Measured& m, double work_per_op, const char* work) {
  HERO_CHECK_MSG(!m.latency_ms.empty(), "no operations measured");
  const double fastest_ms = *std::min_element(m.latency_ms.begin(), m.latency_ms.end());
  m.throughput_per_s = work_per_op * 1e3 / fastest_ms;
  char note[128];
  std::snprintf(note, sizeof note, "(%g %s / fastest of %zu operations, %.4g ms)", work_per_op,
                work, m.latency_ms.size(), fastest_ms);
  m.throughput_note = note;
}

void report_end_to_end(Report& report, double setup_s, const Measured& m) {
  report.set("setup_s", setup_s, "(median of the run's set-ups)");
  report.set("peak_rss_mb", peak_rss_mb(), "(VmHWM over settle + measured phase)");
  report.set("throughput_per_s", m.throughput_per_s, m.throughput_note);
  if (m.latency_ms.empty()) return;
  std::string deciles = "per-operation wall time deciles (ms):";
  for (int d = 1; d <= 9; ++d) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4g", percentile(m.latency_ms, 10.0 * d).value);
    deciles += buf;
  }
  report.info(deciles + " " + counts(percentile(m.latency_ms, 90.0)));
}

void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // "5" resets VmHWM to VmRSS
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  HERO_CHECK_MSG(false, "no VmHWM line in /proc/self/status");
  return 0.0;
}

void report_overhead(Report& report, const Measured& untraced, const Measured& traced) {
  const auto note = [](double u) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "(untraced %.6g)", u);
    return std::string(buf);
  };
  report.set("obs.overhead.throughput_per_s",
             traced.throughput_per_s - untraced.throughput_per_s,
             note(untraced.throughput_per_s));
}

void SpanCollector::finish(Report& report, const Options& options) {
  uninstall();
  collect();
  records();
  std::sort(records_.begin(), records_.end(),
            [](const hero::obs::SpanRecord& a, const hero::obs::SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
            });
  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/" + options.workload + ".trace.json";
  const std::size_t written = std::min(records_.size(), kMaxChromeSpans);
  hero::obs::write_chrome_trace(
      path, std::vector<hero::obs::SpanRecord>(records_.begin(),
                                               records_.begin() + static_cast<std::ptrdiff_t>(written)));
  report.info("chrome trace: " + path + " (earliest " + std::to_string(written) + " of " +
              std::to_string(records_.size()) + " spans)");
  report.set("obs.spans", static_cast<double>(records_.size()));
  report.set("obs.dropped", static_cast<double>(dropped()));
  if (dropped() != 0) {
    report.fail(std::to_string(dropped()) + " spans dropped: the per-layer numbers do not count");
  }
}

Gemm Gemm::parse(const std::string& name) {
  Gemm g;
  HERO_CHECK_MSG(std::sscanf(name.c_str(), "%ldx%ldx%ld", &g.m, &g.k, &g.n) == 3,
                 "bad GEMM shape name " << name);
  return g;
}

std::vector<hero::Conv2dGeom> im2col_geoms(const hero::ir::Compiled& compiled,
                                           const hero::Shape& input) {
  const hero::ir::Graph& graph = compiled.graph;
  const hero::ir::ShapeInfo shapes = hero::ir::infer_shapes(graph, input);
  std::vector<hero::Conv2dGeom> out;
  for (const hero::ir::NodeId id : graph.schedule()) {
    if (graph.node(id).op == hero::ir::OpKind::kIm2col) {
      out.push_back(shapes.node_geom[static_cast<std::size_t>(id)]);
    }
  }
  return out;
}

void report_matmul(Report& report, SpanCollector& spans,
                   const std::vector<std::string>& shapes, std::uint64_t seed) {
  hero::Rng rng(seed);
  for (const std::string& shape : shapes) {
    const Gemm g = Gemm::parse(shape);
    const hero::Tensor a = hero::Tensor::randn({g.m, g.k}, rng);
    const hero::Tensor b = hero::Tensor::randn({g.k, g.n}, rng);
    hero::Tensor out({g.m, g.n});
    hero::matmul_into(a, b, out);  // warm: pages touched, pool awake
    // Enough calls for a stable median: ~0.2 s of kernel time, 5..200 calls.
    const auto t0 = hero::obs::now();
    hero::matmul_into(a, b, out);
    const double once = std::max(seconds_since(t0), 1e-6);
    const int reps = std::clamp(static_cast<int>(0.2 / once), 5, 200);
    const double ns = timed_median(spans, "tensor.matmul", reps, 1.0,
                                   [&] { hero::matmul_into(a, b, out); });
    char note[128];
    std::snprintf(note, sizeof note, "(%.3g MFLOP, %.3g KiB per call, median of %d)",
                  g.flops() * 1e-6, g.bytes() / 1024.0, reps);
    report.set("tensor.matmul_gflops." + shape, g.flops() / ns, note);
  }
}

void report_im2col(Report& report, SpanCollector& spans,
                   const std::vector<hero::Conv2dGeom>& geoms, bool col2im, std::uint64_t seed) {
  HERO_CHECK_MSG(!geoms.empty(), "graph has no im2col node");
  const auto patch_elems = [](const hero::Conv2dGeom& g) {
    return g.batch * g.out_h() * g.out_w() * g.channels * g.kernel_h * g.kernel_w;
  };
  const hero::Conv2dGeom g = *std::max_element(
      geoms.begin(), geoms.end(),
      [&](const hero::Conv2dGeom& a, const hero::Conv2dGeom& b) {
        return patch_elems(a) < patch_elems(b);
      });
  hero::Rng rng(seed);
  const hero::Tensor input = hero::Tensor::randn({g.batch, g.channels, g.in_h, g.in_w}, rng);
  const hero::Tensor cols = hero::im2col(input, g);
  const double bytes = 4.0 * static_cast<double>(input.numel() + cols.numel());
  char note[128];
  std::snprintf(note, sizeof note, "(input %ldx%ldx%ldx%ld, k%ld s%ld, %.3g KiB per call)",
                g.batch, g.channels, g.in_h, g.in_w, g.kernel_h, g.stride, bytes / 1024.0);
  report.set("tensor.im2col_gbps",
             bytes / timed_median(spans, "tensor.im2col", 50, 1.0,
                                  [&] { (void)hero::im2col(input, g); }),
             note);
  if (col2im) {
    report.set("tensor.col2im_gbps",
               bytes / timed_median(spans, "tensor.col2im", 50, 1.0,
                                    [&] { (void)hero::col2im(cols, g); }),
               note);
  }
}

void report_ir_ops(Report& report, const std::vector<hero::obs::SpanRecord>& records,
                   std::size_t calls) {
  const auto self = self_time_ns(records);
  std::map<std::string, double> ns_by_kind;
  for (const hero::obs::SpanRecord& r : records) {
    if (std::string_view(r.category) == "ir") ns_by_kind[r.name] += static_cast<double>(self.at(r.id));
  }
  for (const auto& [kind, ns] : ns_by_kind) {
    const std::string name = "ir.op_ns." + kind;
    if (!report.declares(name)) {
      report.info("IR op kind '" + kind + "' has no ir.op_ns metric: " + std::to_string(ns) +
                  " ns over all calls");
      continue;
    }
    report.set(name, ns / static_cast<double>(std::max<std::size_t>(calls, 1)),
               "(self time per call over " + std::to_string(calls) + " calls)");
  }
}

void report_pool(Report& report, const std::vector<hero::obs::SpanRecord>& records,
                 const char* call) {
  // Calls per thread, sorted by start, for an interval lookup per job.
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> calls;
  std::size_t call_count = 0;
  for (const hero::obs::SpanRecord& r : records) {
    if (std::string_view(call) == r.name) {
      calls[r.tid].emplace_back(r.start_ns, r.end_ns);
      ++call_count;
    }
  }
  for (auto& [tid, spans] : calls) std::sort(spans.begin(), spans.end());
  std::vector<double> job_us;
  for (const hero::obs::SpanRecord& r : records) {
    if (std::string_view("pool.job") != r.name) continue;
    auto it = calls.find(r.tid);
    if (it == calls.end()) continue;
    const auto& spans = it->second;
    auto next = std::upper_bound(spans.begin(), spans.end(),
                                 std::make_pair(r.start_ns, INT64_MAX));
    if (next == spans.begin()) continue;
    --next;
    if (r.start_ns >= next->first && r.end_ns <= next->second) {
      job_us.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    }
  }
  const std::string note = "(" + std::to_string(job_us.size()) + " pool.job spans inside " +
                           std::to_string(call_count) + " " + call + " spans)";
  report.set("pool.jobs_per_call",
             static_cast<double>(job_us.size()) /
                 static_cast<double>(std::max<std::size_t>(call_count, 1)),
             note);
  report.set("pool.job_us_p50", median(job_us), note);
}

std::vector<double> span_durations(const std::vector<hero::obs::SpanRecord>& records,
                                   const char* name, double unit_ns) {
  std::vector<double> d;
  const std::string_view wanted(name);
  for (const hero::obs::SpanRecord& r : records) {
    if (wanted == r.name) d.push_back(static_cast<double>(r.end_ns - r.start_ns) / unit_ns);
  }
  return d;
}

}  // namespace herobench
