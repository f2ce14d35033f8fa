// herobench: one workload per process, selected by --workload.
//
//   herobench --workload train_hero|predict_conv|serve_tcp --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Run from the checkout root: the metric catalog is read from
// ./BENCHMARK.json. --trace 0 measures the end-to-end metrics with tracing
// off; --trace 1 measures the same phase untraced and then traced (the
// difference is the tracing overhead) and reports the per-layer metrics.
// The last stdout line is the result JSON; the exit code is 0 only when
// every output check held.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Counting global operator new: train.allocs_per_step reads it. free()
// pairs with the malloc() below; both global operators are replaced
// together, which the compiler cannot see.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

std::size_t herobench::allocations() { return g_allocations.load(std::memory_order_relaxed); }

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "herobench: %s\nusage: herobench --workload train_hero|predict_conv|serve_tcp "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  herobench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      options.out_dir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  herobench::Report (*run)(const herobench::Options&) = nullptr;
  if (options.workload == "train_hero") run = herobench::run_train_hero;
  if (options.workload == "predict_conv") run = herobench::run_predict_conv;
  if (options.workload == "serve_tcp") run = herobench::run_serve_tcp;
  if (run == nullptr) return usage(("unknown workload '" + options.workload + "'").c_str());
  try {
    std::ifstream file("BENCHMARK.json");
    if (!file) return usage("no BENCHMARK.json in the working directory");
    std::stringstream text;
    text << file.rdbuf();
    options.catalog = herobench::declared_metrics(text.str(), options.trace);
    return run(options).print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "herobench: %s\n", e.what());
    return 1;
  }
}
