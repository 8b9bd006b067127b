#ifndef CARAC_PERFBENCH_COMMON_H_
#define CARAC_PERFBENCH_COMMON_H_

// Shared plumbing for the benchmark: run options, the metric sink, sample
// statistics and the in-memory span tracer. Everything here lives in the
// benchmark; nothing is added to the engine.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Tiny sizes: checks names, JSON shape and the correctness gate in
  /// seconds instead of measuring.
  bool smoke = false;
  /// Scratch directory inside the checkout (sockets, snapshot dirs, CSV
  /// batches, span dumps); created by main, removed at exit except for
  /// the span dump.
  std::string work_dir;
};

/// Everything one run measured. `failed` counts operations that errored
/// or whose output disagreed with the benchmark's own reference.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable reasons for failures (printed to stderr).
  std::vector<std::string> errors;
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
};

// ---- Sample statistics ----

double Median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Sum(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

/// Worker threads of the parallel workload. Half the cores of the 4-vCPU
/// machine the benchmark was tuned on: with a thread on every core, one
/// core taken away by the host stalls each iteration's barrier, and the
/// run measures the host's scheduler instead of the engine.
constexpr int kParallelThreads = 2;

/// Trivially parallel CPU burn: the same total work on 1 and split over
/// kParallelThreads threads; returns the ratio of the two times, the
/// ceiling the parallel workload's speedup on this host is read against.
double HostBurnSpeedup(bool smoke);

// ---- Tracing ----

/// One recorded interval. `layer` is the engine module the call enters
/// ("core", "storage", ...), `name` the call; `parent` indexes the
/// enclosing span of the same thread (-1 for a root) and `request` groups
/// the spans of one repetition or one client request.
struct Span {
  std::string layer;
  std::string name;
  double start = 0;  ///< Seconds since the tracer's origin.
  double end = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span recorder for one thread of the benchmark. Spans are
/// appended, never shared across threads; per-thread tracers are merged
/// with Absorb() after the threads join.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span under the innermost open span; returns its index.
  size_t Begin(std::string layer, std::string name, uint64_t request);
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  void Absorb(const Tracer& other);

  /// Per layer, the sum over its spans of (duration - child durations).
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Duration of every span named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Summed duration of the spans named in `children` whose parent is a
  /// `root` span, as a share of the summed duration of the `root` spans:
  /// how much of the traced wall clock those calls account for.
  double Coverage(const std::string& root,
                  const std::vector<std::string>& children) const;
  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name,
             uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(layer, name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

/// Fills the per-layer self-time metrics ("self.<layer>_s") and writes
/// the span dump to `<work_dir>/../traces/<workload>-seed<n>.jsonl`.
void ReportTrace(const Options& options, const Tracer& tracer,
                 Result* result);

// ---- Workload registry ----

Result RunCspaUnoptJit(const Options& options);
Result RunAndersenPar2(const Options& options);
Result RunServeMixed(const Options& options);

}  // namespace perfbench

#endif  // CARAC_PERFBENCH_COMMON_H_
