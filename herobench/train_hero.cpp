// train_hero: core::Trainer::fit with HERO (exact HVP, the c10 default h) on
// the canonical micro_resnet over the c10 analog at batch 64.
//
// HERO's step is the paper's cost: a clean gradient, a perturbed gradient
// built with create_graph, a double-backprop Hessian term, and the update.
// autograd, nn, hessian, optim, core, data and the tensor kernels do all of
// the work; serve, net and ir none.
//
// Measured phase: fits of kEpochsPerFit epochs, each on a fresh model built
// from the seed, repeated until --seconds have passed and kMinOps steps were
// timed. Every fit must produce the same loss sequence (same seed, same
// data, deterministic kernels); its digest is also kept in
// <out>/train_hero.seed<N>.losses with a hash of the binary, and compared by
// later runs of that seed by the same binary.
//   throughput_per_s  64 samples / the fastest step (on_step-to-on_step
//                     within an epoch)
//   setup_s           data, model, method, pool threads, one warm-up step
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "common/parse.hpp"
#include "common/thread_pool.hpp"
#include "core/experiments.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "hessian/hvp.hpp"
#include "nn/models.hpp"
#include "optim/registry.hpp"

namespace herobench {

namespace {

using namespace hero;

constexpr std::int64_t kTrainN = 2048;
constexpr std::int64_t kTestN = 512;
constexpr std::int64_t kBatch = 64;
constexpr int kEpochsPerFit = 2;
constexpr int kPhaseReps = 5;

/// The three largest-FLOP GEMMs of a micro_resnet step at batch 64: the
/// forward product 1024x108x12 (read off ir::infer_shapes of the same
/// architecture) and its two backward products, dA = dC·Bᵀ (MxNxK) and
/// dB = Aᵀ·dC (KxMxN). Pinned, so the series stays comparable across builds.
const std::vector<std::string> kMatmulShapes = {"1024x108x12", "1024x12x108", "108x1024x12"};

std::shared_ptr<nn::Module> fresh_model(const data::Benchmark& bench, std::uint64_t seed) {
  Rng rng(seed + 7);
  return nn::make_model("micro_resnet", bench.spec.channels, bench.train.classes, rng);
}

std::string method_spec(const std::string& name, const std::string& extra = "") {
  if (name == "sgd") return "sgd";
  return "hero:h=" + format_float_exact(core::default_h("c10")) + extra;
}

data::Batch first_batch(const data::Benchmark& bench) {
  return {bench.train.features.narrow(0, 0, kBatch), bench.train.labels.narrow(0, 0, kBatch)};
}

struct Inputs {
  data::Benchmark bench;
  std::unique_ptr<optim::TrainingMethod> method;
};

/// What a user pays once per training run before the first timed step.
Inputs set_up(std::uint64_t seed) {
  Inputs in;
  in.bench = data::make_benchmark("c10", kTrainN, kTestN, seed);
  in.method = optim::MethodRegistry::instance().create_from_spec(method_spec("hero"));
  runtime::warm_up();
  const auto model = fresh_model(in.bench, seed);
  const data::Batch batch = first_batch(in.bench);  // the context keeps a pointer
  optim::StepContext ctx(*model);
  ctx.begin_step(batch);
  in.method->step(ctx);  // materializes the context's scratch slots
  return in;
}

struct FitLog {
  Measured measured;
  std::int64_t steps = 0;
  std::int64_t nonfinite = 0;
  int fits = 0;
  std::uint64_t digest = 0;  ///< FNV-1a of the first fit's loss bits
  int digest_mismatches = 0;
};

std::uint64_t loss_digest(const std::vector<float>& losses) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const float loss : losses) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &loss, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The measured phase. With a collector, each step interval is also
/// recorded as a benchmark span "train.step" and the rings are drained
/// between steps, outside the timed intervals.
FitLog measure_fits(const Inputs& in, const Options& options, SpanCollector* collector) {
  FitLog log;
  std::vector<double>& step_ms = log.measured.latency_ms;
  const auto t0 = obs::now();
  while (log.fits == 0 || seconds_since(t0) < options.phase_seconds() ||
         step_ms.size() < kMinOps) {
    const auto model = fresh_model(in.bench, options.seed);
    core::TrainerConfig config;
    config.epochs = kEpochsPerFit;
    config.batch_size = kBatch;
    config.seed = options.seed;
    core::Trainer trainer(*model, *in.method, config);
    std::vector<float> losses;
    std::int64_t last_ns = 0;
    int last_epoch = -1;
    trainer.on_step([&](const core::StepEvent& e) {
      const std::int64_t now_ns = obs::now_ns();
      if (e.epoch == last_epoch) {
        step_ms.push_back(static_cast<double>(now_ns - last_ns) / 1e6);
        if (collector != nullptr) {
          obs::SpanRecord rec;
          rec.name = "train.step";
          rec.category = "bench";
          rec.id = collector->sink()->next_span_id();
          rec.tid = obs::current_tid();
          rec.start_ns = last_ns;
          rec.end_ns = now_ns;
          rec.arg = e.step;
          collector->sink()->record(rec);
          collector->collect();
        }
      }
      losses.push_back(e.result.loss);
      if (!std::isfinite(e.result.loss)) log.nonfinite += 1;
      last_epoch = e.epoch;
      last_ns = obs::now_ns();
    });
    trainer.fit(in.bench.train, in.bench.test);
    const std::uint64_t digest = loss_digest(losses);
    if (log.fits == 0) log.digest = digest;
    if (digest != log.digest) log.digest_mismatches += 1;
    log.steps += static_cast<std::int64_t>(losses.size());
    log.fits += 1;
  }
  set_fastest_rate(log.measured, kBatch, "samples");
  return log;
}

/// Identity of the running binary: a hash of its bytes, read in chunks.
std::uint64_t build_id() {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  std::string chunk(1 << 20, '\0');
  std::uint64_t h = 1469598103934665603ULL;
  while (exe.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) || exe.gcount() > 0) {
    h = (h ^ std::hash<std::string_view>{}(
                 std::string_view(chunk.data(), static_cast<std::size_t>(exe.gcount())))) *
        1099511628211ULL;
  }
  return h;
}

/// Compares the run's loss digest with the one an earlier run of this seed
/// by the same binary recorded in the output directory. A record from
/// another build (or none) is replaced: a change to the training numerics is
/// compared only against runs of itself.
void check_loss_record(Report& report, const Options& options, const FitLog& log) {
  std::filesystem::create_directories(options.out_dir);
  const std::string path =
      options.out_dir + "/train_hero.seed" + std::to_string(options.seed) + ".losses";
  char build[32];
  std::snprintf(build, sizeof build, "build %016" PRIx64, build_id());
  char line[64];
  std::snprintf(line, sizeof line, "%016" PRIx64 " %d", log.digest,
                static_cast<int>(log.steps / log.fits));
  std::ifstream in(path);
  std::string recorded_build;
  std::string recorded;
  if (std::getline(in, recorded_build) && recorded_build == build && std::getline(in, recorded)) {
    if (recorded != line) {
      report.fail("loss sequence differs from an earlier run of seed " +
                  std::to_string(options.seed) + " by this binary: " + line + " vs " + recorded);
    }
    return;
  }
  std::ofstream(path) << build << "\n" << line << "\n";
}

void check_fits(Report& report, const FitLog& log) {
  report.attempted = log.steps;
  report.failed = log.nonfinite;
  if (log.nonfinite != 0) report.fail(std::to_string(log.nonfinite) + " non-finite losses");
  if (log.digest_mismatches != 0) {
    report.fail(std::to_string(log.digest_mismatches) +
                " fits diverged from the first fit's loss sequence");
  }
  char line[128];
  std::snprintf(line, sizeof line, "loss digest %016" PRIx64 " over %d identical fits",
                log.digest, log.fits);
  report.info(line);
}

/// Per-layer probes: each training phase timed by calling its public
/// function on one fixed batch, inside a benchmark span.
void probe_phases(Report& report, SpanCollector& spans, const Inputs& in,
                  std::uint64_t seed) {
  const data::Batch batch = first_batch(in.bench);
  const auto model = fresh_model(in.bench, seed);
  std::vector<ag::Variable> params;
  for (nn::Parameter* p : model->parameters()) params.push_back(p->var);
  const auto loss_fn = [&] { return optim::batch_loss(*model, batch); };

  report.set("train.forward_ms", timed_median(spans, "train.forward", kPhaseReps, 1e6, loss_fn));
  std::vector<double> backward;
  for (int r = 0; r < kPhaseReps; ++r) {
    const ag::Variable loss = loss_fn();  // untimed: a fresh graph per backward
    backward.push_back(
        timed_call(spans, "train.backward", 1e6, [&] { (void)ag::grad(loss, params); }));
  }
  report.set("train.backward_ms", median(backward));
  const hessian::ParamVector v = hessian::gradient(loss_fn, params);
  report.set("train.hvp_exact_ms", timed_median(spans, "train.hvp_exact", kPhaseReps, 1e6, [&] {
               (void)hessian::hvp_exact(loss_fn, params, v);
             }));
  const float fd_eps = core::HeroConfig{}.fd_eps;
  report.set("train.hvp_fd_ms", timed_median(spans, "train.hvp_fd", kPhaseReps, 1e6, [&] {
               (void)hessian::hvp_finite_diff(loss_fn, params, v, fd_eps);
             }));
  {
    const auto scratch_model = fresh_model(in.bench, seed);
    optim::Sgd sgd(scratch_model->parameters(), optim::SgdConfig{});
    report.set("train.update_ms", timed_median(spans, "train.update", kPhaseReps, 1e6,
                                               [&] { sgd.step_with(v); }));
  }
  report.set("train.eval_ms", timed_median(spans, "train.eval", 3, 1e6, [&] {
               (void)optim::evaluate(*model, in.bench.test);
             }), "(" + std::to_string(kTestN) + " test samples)");
  model->set_training(true);
  data::DataLoader loader(in.bench.train, kBatch, /*shuffle=*/true, Rng(seed));
  report.set("train.loader_ms",
             timed_median(spans, "train.loader", kPhaseReps, 1e6, [&] { (void)loader.epoch(); }),
             "(one shuffled epoch of " + std::to_string(kTrainN) + " samples)");

  double method_ms[3] = {0.0, 0.0, 0.0};
  const char* names[3] = {"sgd", "hero", "hero_fd"};
  const char* span_names[3] = {"train.method.sgd", "train.method.hero", "train.method.hero_fd"};
  for (int m = 0; m < 3; ++m) {
    const auto method = optim::MethodRegistry::instance().create_from_spec(
        method_spec(names[m], m == 2 ? ",hvp=fd" : ""));
    optim::StepContext ctx(*model);
    ctx.begin_step(batch);
    method->step(ctx);  // scratch slots
    method_ms[m] = timed_median(spans, span_names[m], kPhaseReps, 1e6,
                                [&] { (void)method->step(ctx); });
    report.set(std::string("train.method_ms.") + names[m], method_ms[m]);
    if (m == 1) {
      const std::size_t before = allocations();
      method->step(ctx);
      report.set("train.allocs_per_step", static_cast<double>(allocations() - before),
                 "(one warm HERO step, counting operator new)");
    }
  }
  char note[64];
  std::snprintf(note, sizeof note, "(base: sgd step %.3f ms)", method_ms[0]);
  report.set("train.hero_over_sgd", method_ms[1] / method_ms[0], note);
}

/// Kernel rates at the training GEMMs and at the largest im2col geometry of
/// the same architecture at batch 64 (read off its IR).
void probe_kernels(Report& report, SpanCollector& spans, const Inputs& in,
                   std::uint64_t seed) {
  const auto model = fresh_model(in.bench, seed);
  model->set_training(false);
  const ir::Compiled compiled = ir::compile(*model, "micro_resnet");
  report_matmul(report, spans, kMatmulShapes, seed);
  report_im2col(report, spans,
                im2col_geoms(compiled, {kBatch, in.bench.spec.channels, in.bench.spec.size,
                                        in.bench.spec.size}),
                /*col2im=*/true, seed);
}

}  // namespace

Report run_train_hero(const Options& options) {
  runtime::set_num_threads(kKernelThreads);
  Report report(options.catalog);
  report.info("train_hero: micro_resnet, c10 analog, batch " + std::to_string(kBatch) + ", " +
              method_spec("hero") + ", " + std::to_string(kEpochsPerFit) +
              " epochs per fit; threads: kernel pool " + std::to_string(runtime::num_threads()) +
              " (caller included), nproc " +
              std::to_string(std::thread::hardware_concurrency()));
  Inputs in;
  const double setup_s = median_setup_s(kSetups, [&] { in = set_up(options.seed); });
  restart_peak_rss();
  {
    const auto model = fresh_model(in.bench, options.seed);
    const data::Batch batch = first_batch(in.bench);
    optim::StepContext ctx(*model);
    settle([&] {
      ctx.begin_step(batch);
      (void)in.method->step(ctx);
    });
  }

  if (!options.trace) {
    const FitLog log = measure_fits(in, options, nullptr);
    report_end_to_end(report, setup_s, log.measured);
    check_fits(report, log);
    check_loss_record(report, options, log);
    return report;
  }

  const FitLog untraced = measure_fits(in, options, nullptr);
  SpanCollector collector;
  collector.install();
  const FitLog traced = measure_fits(in, options, &collector);
  collector.uninstall();
  check_fits(report, traced);
  if (traced.digest != untraced.digest) report.fail("tracing changed the loss sequence");
  collector.collect();
  report_pool(report, collector.records(), "train.step");
  report_overhead(report, untraced.measured, traced.measured);
  probe_phases(report, collector, in, options.seed);
  probe_kernels(report, collector, in, options.seed);
  collector.finish(report, options);
  return report;
}

}  // namespace herobench
