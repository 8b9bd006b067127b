// carac_perfbench: the repository's benchmark. One process runs one named
// workload in-process against carac_lib, checks its outputs against a
// reference the benchmark computes itself, and prints every metric by
// name and unit; the last stdout line is one JSON object:
//
//   carac_perfbench --workload <name> [--seed N] [--seconds S]
//                   [--trace 0|1] [--smoke]
//
// --trace 0 measures the end-to-end metrics (no spans recorded);
// --trace 1 is a separate run that records spans around every call into
// the engine and reports the per-layer metrics. perfbench/NOTES.md
// describes the workloads and what each metric means.

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

/// The workload registry: one entry per named workload, the shape of
/// KVell's bench table and nfsclient's make_workload_* functions. The
/// default seed is what runs without --seed.
struct WorkloadEntry {
  const char* name;
  const char* why;
  uint64_t default_seed;
  Result (*run)(const Options&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"cspa_unopt_jit",
     "the paper's headline path: JIT reordering and compilation rescue a "
     "badly ordered recursive query",
     1, RunCspaUnoptJit},
    {"andersen_par2",
     "interpreted sharded fixpoint on 2 threads; contrasts parallel and JIT "
     "changes",
     1, RunAndersenPar2},
    {"serve_mixed",
     "concurrent clients against the socket server: reads beside "
     "incremental writes and persistence",
     1, RunServeMixed},
};

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json (run.py --smoke checks it).
constexpr MetricName kEndToEnd[] = {
    {"eval_s", "s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},  {"latency_ms", "ms"},
    {"throughput_rps", "1/s"},
};

// Must match "per_layer" in BENCHMARK.json. A workload that does not
// exercise a layer reports 0 for it.
constexpr MetricName kPerLayer[] = {
    {"bench.trace_overhead", "ratio"},
    {"bench.span_coverage", "ratio"},
    {"bench.host_burn_speedup", "x"},
    {"self.bench_s", "s"},
    {"self.analysis_s", "s"},
    {"self.datalog_s", "s"},
    {"self.core_s", "s"},
    {"self.backends_s", "s"},
    {"self.storage_s", "s"},
    {"self.net_s", "s"},
    {"self.client_s", "s"},
    {"analysis.build_s", "s"},
    {"core.prepare_s", "s"},
    {"datalog.parse_s", "s"},
    {"core.first_eval_s", "s"},
    {"net.server_start_s", "s"},
    {"backends.compile_ms", "ms"},
    {"backends.compilations", "count"},
    {"backends.compiled_invocations", "count"},
    {"optimizer.freshness_skip_ratio", "ratio"},
    {"storage.point_probes", "count"},
    {"storage.point_hit_ratio", "ratio"},
    {"storage.keys_per_batch_window", "count"},
    {"storage.range_probes", "count"},
    {"ir.spj_executions", "count"},
    {"ir.tuples_considered", "count"},
    {"storage.tuples_inserted", "count"},
    {"storage.dedup_yield", "ratio"},
    {"core.iterations", "count"},
    {"core.parallel_speedup", "x"},
    {"storage.add_facts_ms", "ms"},
    {"core.update_p50_ms", "ms"},
    {"core.update_p99_ms", "ms"},
    {"core.epoch_seeded_rows", "count"},
    {"storage.checkpoint_ms", "ms"},
    {"net.count_exec_us", "us"},
    {"net.dump_exec_us", "us"},
    {"net.wire_share", "ratio"},
    {"storage.log_bytes", "bytes"},
    {"storage.snapshot_bytes", "bytes"},
    {"storage.disk_bytes_per_fact", "bytes"},
    {"client.count_p50_ms", "ms"},
    {"client.count_p99_ms", "ms"},
    {"client.dump_p50_ms", "ms"},
    {"client.dump_p99_ms", "ms"},
    {"client.write_p50_ms", "ms"},
    {"client.write_p99_ms", "ms"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: carac_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\nworkloads:",
               why);
  for (const WorkloadEntry& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

std::string FormatNumber(double value) {
  char buf[64];
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
  }
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t value = 0;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed" && ParseUint(argv[i + 1], &value)) {
      options.seed = value;
      seed_given = true;
      ++i;
    } else if (arg == "--seconds" && ParseUint(argv[i + 1], &value) &&
               value >= 1 && value <= 600) {
      options.seconds = static_cast<double>(value);
      ++i;
    } else if (arg == "--trace" && ParseUint(argv[i + 1], &value) &&
               value <= 1) {
      options.trace = value == 1;
      ++i;
    } else {
      return Usage(("bad argument: " + arg).c_str());
    }
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (options.workload == w.name) entry = &w;
  }
  if (entry == nullptr) return Usage("unknown or missing --workload");
  if (!seed_given) options.seed = entry->default_seed;

  const std::filesystem::path work =
      std::filesystem::path(".bench_work") /
      (options.workload + "-" + std::to_string(getpid()));
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work.c_str(),
                 ec.message().c_str());
    return 1;
  }
  options.work_dir = work.string();

  std::fprintf(stderr, "workload %s (seed %llu, %s, %.0f s%s): %s\n",
               entry->name, static_cast<unsigned long long>(options.seed),
               options.trace ? "traced" : "untraced", options.seconds,
               options.smoke ? ", smoke" : "", entry->why);
  Result result = entry->run(options);
  std::filesystem::remove_all(work, ec);

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "FAILED: %s\n", error.c_str());
  }
  if (result.attempted == 0) {
    result.attempted = 1;
    result.Fail("no operation was attempted");
  }

  const double error_frac = static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);
  std::printf("%-34s %s (%llu of %llu)\n", "error_frac",
              FormatNumber(error_frac).c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-34s %s %s\n", name.c_str(),
                FormatNumber(metric.value).c_str(), metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  bool complete = true;
  std::string metrics;
  auto emit = [&](const MetricName& m, bool required) {
    auto it = result.metrics.find(m.name);
    if (it == result.metrics.end() && required) {
      std::fprintf(stderr, "FAILED: metric %s was not measured\n", m.name);
      complete = false;
    }
    const double value = it == result.metrics.end() ? 0 : it->second.value;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(m.name) + "\": {\"value\": " +
               FormatNumber(value) + ", \"unit\": \"" + m.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricName& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricName& m : kEndToEnd) emit(m, true);
  }
  const bool correct = result.failed == 0 && complete;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
