// predict_conv: one caller in a closed loop calling
// deploy::InferenceSession::predict at batch 32 on a uniform 4-bit HPKG
// artifact of the canonical micro_mobilenet.
//
// The edge-deployment path. The IR executor and its kernels (matmul,
// depthwise, im2col, fused BN/activation epilogues) do most of the work;
// tensor is used forward-only through the IR backend, where train_hero uses
// it through autograd, so a kernel change that helps one and hurts the
// other shows. Nothing contends with the single caller.
//   throughput_per_s  32 images / the fastest predict() call
//   setup_s           artifact parse, session build (IR compile), planning
//                     of the batch-32 context by a first call
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "deploy/inference.hpp"
#include "nn/models.hpp"
#include "quant/planner.hpp"

namespace herobench {

namespace {

using namespace hero;

constexpr std::int64_t kRows = 32;
constexpr std::int64_t kBatches = 16;  ///< distinct input batches, cycled

/// The three largest-FLOP GEMMs of the micro_mobilenet graph at batch 32,
/// read off ir::infer_shapes. Pinned, so the series stays comparable across
/// builds.
const std::vector<std::string> kMatmulShapes = {"2048x10x40", "2048x40x10", "512x20x80"};

struct Inputs {
  std::string artifact_bytes;  ///< serialized HPKG
  std::vector<Tensor> batches;
};

Inputs make_inputs(std::uint64_t seed) {
  const data::Benchmark bench = data::make_benchmark("c10", 256, kRows * kBatches, seed);
  Rng rng(seed + 7);
  const auto model =
      nn::make_model("micro_mobilenet", bench.spec.channels, bench.train.classes, rng);
  const std::string spec =
      nn::canonical_model_spec("micro_mobilenet", bench.spec.channels, bench.train.classes);
  const quant::QuantPlan plan = quant::plan_quantization(*model, "uniform:sym:bits=4");
  std::ostringstream out;
  deploy::save_artifact(out, deploy::pack_model(*model, plan, spec, "uniform:sym:bits=4"));
  Inputs in;
  in.artifact_bytes = out.str();
  for (std::int64_t b = 0; b < kBatches; ++b) {
    in.batches.push_back(bench.test.features.narrow(0, b * kRows, kRows));
  }
  return in;
}

std::unique_ptr<deploy::InferenceSession> load_session(const Inputs& in) {
  std::istringstream bytes(in.artifact_bytes);
  return std::make_unique<deploy::InferenceSession>(deploy::load_artifact(bytes));
}

/// The measured closed loop. With a collector, each call runs with the
/// process sink installed (deploy.predict + per-node + pool.job spans) and
/// the rings are drained between calls, outside the timed intervals.
Measured measure_calls(deploy::InferenceSession& session, const Inputs& in,
                       const Options& options, SpanCollector* collector) {
  Measured m;
  const auto t0 = obs::now();
  for (std::size_t i = 0;
       seconds_since(t0) < options.phase_seconds() || m.latency_ms.size() < kMinOps; ++i) {
    const Tensor& x = in.batches[i % in.batches.size()];
    const std::int64_t c0 = obs::now_ns();
    (void)session.predict(x);
    m.latency_ms.push_back(static_cast<double>(obs::now_ns() - c0) / 1e6);
    if (collector != nullptr && i % 16 == 15) collector->collect();
  }
  set_fastest_rate(m, kRows, "images");
  return m;
}

/// deploy.predict_us.b32 against ir.run_us.b32 on an executor built from
/// the same compiled graph: the gap is the session's per-call overhead.
/// Both run untraced; the benchmark's spans wrap them.
void probe_session(Report& report, SpanCollector& spans, const Inputs& in,
                   deploy::InferenceSession& session) {
  report.set("deploy.load_ms",
             timed_median(spans, "deploy.load", 5, 1e6, [&] { (void)load_session(in); }),
             "(HPKG parse + session build + IR compile)");
  ir::Executor executor(*session.compiled());
  const Tensor& x = in.batches[0];
  (void)executor.run(x);
  const auto [predict_us, run_us] = paired_medians(
      spans, "deploy.predict_probe", "ir.run_probe", 200, 1e3,
      [&] { (void)session.predict(x, obs::SpanContext{}); }, [&] { (void)executor.run(x); });
  report.set("deploy.predict_us.b32", predict_us);
  report.set("ir.run_us.b32", run_us);
  report_matmul(report, spans, kMatmulShapes, 7);
  report_im2col(report, spans, im2col_geoms(*session.compiled(), x.shape()), /*col2im=*/false,
                7);
}

}  // namespace

Report run_predict_conv(const Options& options) {
  runtime::set_num_threads(kKernelThreads);
  Report report(options.catalog);
  report.info("predict_conv: micro_mobilenet u4 HPKG, batch " + std::to_string(kRows) +
              ", one closed-loop caller; threads: kernel pool " +
              std::to_string(runtime::num_threads()) + " (caller included), nproc " +
              std::to_string(std::thread::hardware_concurrency()));
  const Inputs in = make_inputs(options.seed);
  std::unique_ptr<deploy::InferenceSession> session;
  const double setup_s = median_setup_s(kSetups, [&] {
    runtime::warm_up();
    session = load_session(in);
    (void)session->predict(in.batches[0]);  // plans the batch-32 context
  });

  // The output check: one untimed call, bit-identical to the module replay.
  if (!bitwise_equal(session->predict(in.batches[1]), session->predict_reference(in.batches[1]))) {
    report.fail("predict() is not bit-identical to predict_reference()");
  }
  restart_peak_rss();
  std::size_t settle_calls = 0;
  settle([&] { (void)session->predict(in.batches[settle_calls++ % in.batches.size()]); });

  if (!options.trace) {
    const Measured m = measure_calls(*session, in, options, nullptr);
    report.attempted = static_cast<std::int64_t>(m.latency_ms.size());
    report_end_to_end(report, setup_s, m);
    return report;
  }

  const Measured untraced = measure_calls(*session, in, options, nullptr);
  SpanCollector collector;
  collector.install();
  const Measured traced = measure_calls(*session, in, options, &collector);
  collector.uninstall();
  collector.collect();
  report.attempted = static_cast<std::int64_t>(traced.latency_ms.size());
  report_overhead(report, untraced, traced);
  report_ir_ops(report, collector.records(), traced.latency_ms.size());
  report_pool(report, collector.records(), "deploy.predict");
  const ir::ArenaStats arena = session->arena_stats();
  report.set("ir.arena_bytes", static_cast<double>(arena.total_bytes));
  report.set("ir.contexts", static_cast<double>(arena.contexts));
  probe_session(report, collector, in, *session);
  collector.finish(report, options);
  return report;
}

}  // namespace herobench
