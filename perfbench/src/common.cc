#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

namespace {

// splitmix64 rounds: pure ALU work with no shared state, so threads
// scale as far as the host's cores let them.
uint64_t Burn(uint64_t seed, uint64_t rounds) {
  uint64_t x = seed;
  for (uint64_t i = 0; i < rounds; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    x ^= z ^ (z >> 31);
  }
  return x;
}

double TimeBurn(int threads, uint64_t total_rounds) {
  std::atomic<uint64_t> sink{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sink += Burn(static_cast<uint64_t>(t) + 1, total_rounds / threads);
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = SecondsSince(start);
  if (sink.load() == 42) std::fputs("", stderr);  // Keeps the work live.
  return seconds;
}

}  // namespace

double HostBurnSpeedup(bool smoke) {
  const uint64_t rounds = smoke ? (1u << 21) : (1u << 25);
  std::vector<double> ratios;
  for (int rep = 0; rep < 5; ++rep) {
    ratios.push_back(TimeBurn(1, rounds) /
                     TimeBurn(kParallelThreads, rounds));
  }
  return Median(ratios);
}

size_t Tracer::Begin(std::string layer, std::string name, uint64_t request) {
  Span span;
  span.layer = std::move(layer);
  span.name = std::move(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  spans_[index].end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Absorb(const Tracer& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  // Spans of one tracer nest, so a span's children never overlap.
  std::vector<double> child_seconds(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] +=
        spans_[i].end - spans_[i].start - child_seconds[i];
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

double Tracer::Coverage(const std::string& root,
                        const std::vector<std::string>& children) const {
  double covered = 0;
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      if (span.name == root) total += span.end - span.start;
      continue;
    }
    if (spans_[static_cast<size_t>(span.parent)].name != root) continue;
    for (const std::string& name : children) {
      if (span.name == name) covered += span.end - span.start;
    }
  }
  return total > 0 ? covered / total : 0;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
                  "\"layer\":\"%s\",\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f}\n",
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.layer.c_str(),
                  s.name.c_str(), s.start, s.end);
    out << buf;
  }
  return static_cast<bool>(out);
}

void ReportTrace(const Options& options, const Tracer& tracer,
                 Result* result) {
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    result->Set("self." + layer + "_s", seconds, "s");
  }
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir).parent_path() / "traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / (options.workload + "-seed" +
                                   std::to_string(options.seed) + ".jsonl"))
                               .string();
  if (ec || !tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "warning: could not write span dump %s\n",
                 path.c_str());
  } else {
    std::fprintf(stderr, "spans: %zu written to %s\n", tracer.spans().size(),
                 path.c_str());
  }
}

}  // namespace perfbench
