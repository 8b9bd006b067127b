// The two batch workloads: build a program analysis from a seed, Prepare,
// Run to fixpoint, digest every IDB relation. Each repetition is a fresh
// workload and engine, so no state (compiled units, indexes, statistics)
// carries over between repetitions; the first one is warm-up.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/programs.h"
#include "backends/backend.h"
#include "common.h"
#include "core/engine.h"
#include "ir/irop.h"
#include "optimizer/statistics.h"
#include "storage/symbol_table.h"

namespace perfbench {
namespace {

using namespace carac;

/// Order-independent digest of one relation: row count plus the sum and
/// the xor of a per-row hash. Symbols are hashed by their text, so two
/// programs that interned in different orders still agree.
struct RelationDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xor_all = 0;
  bool operator==(const RelationDigest& o) const {
    return rows == o.rows && sum == o.sum && xor_all == o.xor_all;
  }
};
using Digest = std::map<std::string, RelationDigest>;

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashText(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

Digest DigestIdb(const datalog::Program& program) {
  const storage::SymbolTable& symbols = program.db().symbols();
  Digest digest;
  for (datalog::PredicateId p = 0; p < program.NumPredicates(); ++p) {
    if (!program.IsIdb(p)) continue;
    const storage::Relation& rel =
        program.db().Get(p, storage::DbKind::kDerived);
    RelationDigest d;
    for (const storage::TupleView tuple : rel.rows()) {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (size_t i = 0; i < tuple.size(); ++i) {
        const storage::Value v = tuple[i];
        const uint64_t field =
            storage::SymbolTable::IsSymbol(v)
                ? HashText(symbols.Lookup(v))
                : static_cast<uint64_t>(v);
        h = Mix(h ^ Mix(field + i));
      }
      ++d.rows;
      d.sum += h;
      d.xor_all ^= h;
    }
    digest[program.PredicateName(p)] = d;
  }
  return digest;
}

/// Renames every non-negative integer constant of the program's EDB facts
/// through one seeded permutation and shuffles the fact order. The rules
/// of both analyses only join on equality, so every seed evaluates an
/// isomorphic instance: the same amount of work on different concrete
/// facts. (Drawing a fresh generator seed per run instead changes the
/// work itself: CSPA at 400 tuples considers 11M to 49M join tuples
/// depending on the generator seed.)
void RenameEdb(datalog::Program* program, uint64_t seed) {
  storage::DatabaseSet& db = program->db();
  std::vector<std::pair<datalog::PredicateId, std::vector<storage::Tuple>>>
      facts;
  storage::Value max_value = -1;
  for (datalog::PredicateId p = 0; p < program->NumPredicates(); ++p) {
    if (program->IsIdb(p)) continue;
    std::vector<storage::Tuple> rows;
    for (const storage::TupleView tuple :
         db.Get(p, storage::DbKind::kDerived).rows()) {
      storage::Tuple row(tuple.size());
      for (size_t i = 0; i < tuple.size(); ++i) {
        row[i] = tuple[i];
        if (!storage::SymbolTable::IsSymbol(row[i])) {
          max_value = std::max(max_value, row[i]);
        }
      }
      rows.push_back(std::move(row));
    }
    facts.emplace_back(p, std::move(rows));
  }
  uint64_t state = seed;
  std::vector<storage::Value> rename(static_cast<size_t>(max_value + 1));
  for (size_t i = 0; i < rename.size(); ++i) {
    rename[i] = static_cast<storage::Value>(i);
  }
  for (size_t i = rename.size(); i > 1; --i) {
    std::swap(rename[i - 1], rename[Mix(++state) % i]);
  }
  for (auto& [p, rows] : facts) {
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[Mix(++state) % i]);
    }
    db.ClearFacts(p);
    program->ReserveFacts(p, rows.size());
    for (storage::Tuple& row : rows) {
      for (storage::Value& v : row) {
        if (v >= 0 && !storage::SymbolTable::IsSymbol(v)) {
          v = rename[static_cast<size_t>(v)];
        }
      }
      program->AddFact(p, std::move(row));
    }
  }
}

using WorkloadFactory = std::function<analysis::Workload()>;

struct BatchSpec {
  WorkloadFactory build;  ///< The measured program.
  core::EngineConfig config;
  /// The program evaluated for the reference digest.
  WorkloadFactory build_reference;
  core::EngineConfig reference_config;
};

struct Rep {
  double build_s = 0;
  double prepare_s = 0;
  double eval_s = 0;
  ir::ExecStats stats;
  ir::ColumnProbeStats probes;  ///< Summed over every indexed column.
  Digest digest;
  std::string error;
};

/// One repetition. With a tracer, every call into the engine gets a span
/// under one "bench.rep" root (or `root_name`).
Rep RunRep(const WorkloadFactory& build, const core::EngineConfig& config,
           Tracer* tracer, uint64_t request,
           const char* root_name = "bench.rep") {
  Rep rep;
  ScopedSpan root(tracer, "bench", root_name, request);
  Clock::time_point t = Clock::now();
  analysis::Workload workload;
  {
    ScopedSpan span(tracer, "analysis", "analysis.build", request);
    workload = build();
  }
  rep.build_s = SecondsSince(t);
  t = Clock::now();
  auto engine = std::make_unique<core::Engine>(workload.program.get(), config);
  util::Status status;
  {
    ScopedSpan span(tracer, "core", "core.prepare", request);
    status = engine->Prepare();
  }
  rep.prepare_s = SecondsSince(t);
  if (!status.ok()) {
    rep.error = "Prepare: " + status.ToString();
    return rep;
  }
  t = Clock::now();
  {
    ScopedSpan span(tracer, "core", "core.run", request);
    status = engine->Run();
  }
  rep.eval_s = SecondsSince(t);
  if (!status.ok()) {
    rep.error = "Run: " + status.ToString();
    return rep;
  }
  rep.stats = engine->stats();
  for (const auto& [key, column] : engine->profiler().counters()) {
    rep.probes.MergeFrom(column);
  }
  {
    ScopedSpan span(tracer, "bench", "bench.digest", request);
    rep.digest = DigestIdb(*workload.program);
  }
  {
    ScopedSpan span(tracer, "core", "core.teardown", request);
    engine.reset();
    workload.program.reset();
  }
  return rep;
}

void CollectUnions(ir::IROp* op, std::vector<ir::IROp*>* out) {
  if (op->kind == ir::OpKind::kUnion) out->push_back(op);
  for (auto& child : op->children) CollectUnions(child.get(), out);
}

/// Standalone Backend::Compile of every union node of the prepared IR,
/// against the statistics of the freshly loaded facts; total ms.
double CompileAllUnionsMs(const BatchSpec& spec, Tracer* tracer,
                          Result* result) {
  analysis::Workload workload = spec.build();
  core::Engine engine(workload.program.get(), spec.config);
  const util::Status status = engine.Prepare();
  if (!status.ok()) {
    result->Fail("Prepare for compile probe: " + status.ToString());
    return 0;
  }
  std::vector<ir::IROp*> unions;
  CollectUnions(engine.ir().root.get(), &unions);
  std::unique_ptr<backends::Backend> backend =
      backends::MakeBackend(spec.config.jit.backend);
  const optimizer::StatsSnapshot stats =
      optimizer::StatsSnapshot::Capture(workload.program->db());
  double total_ms = 0;
  for (ir::IROp* op : unions) {
    backends::CompileRequest request;
    request.subtree = op->Clone();
    request.stats = stats;
    request.join_config = spec.config.jit.join_config;
    request.mode = spec.config.jit.mode;
    request.reorder = spec.config.jit.reorder;
    std::unique_ptr<backends::CompiledUnit> unit;
    const Clock::time_point t = Clock::now();
    util::Status compiled;
    {
      ScopedSpan span(tracer, "backends", "backends.compile", op->node_id);
      compiled = backend->Compile(std::move(request), &unit);
    }
    total_ms += SecondsSince(t) * 1e3;
    ++result->attempted;
    if (!compiled.ok()) result->Fail("Compile: " + compiled.ToString());
  }
  return total_ms;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void ReportCounters(const Rep& rep, bool jit, Result* result) {
  const ir::ExecStats& s = rep.stats;
  const ir::ColumnProbeStats& p = rep.probes;
  result->Set("ir.spj_executions", s.spj_executions, "count");
  result->Set("ir.tuples_considered", s.tuples_considered, "count");
  result->Set("storage.tuples_inserted", s.tuples_inserted, "count");
  result->Set("storage.dedup_yield",
              Ratio(s.tuples_inserted, s.tuples_considered), "ratio");
  result->Set("core.iterations", s.iterations, "count");
  result->Set("storage.point_probes", p.point_probes, "count");
  result->Set("storage.point_hit_ratio", Ratio(p.point_hits, p.point_probes),
              "ratio");
  result->Set("storage.keys_per_batch_window",
              Ratio(p.point_probes, p.batch_windows), "count");
  result->Set("storage.range_probes", p.range_probes, "count");
  if (jit) {
    result->Set("backends.compilations", s.compilations, "count");
    result->Set("backends.compiled_invocations", s.compiled_invocations,
                "count");
    result->Set("optimizer.freshness_skip_ratio",
                Ratio(s.freshness_skips, s.freshness_skips + s.compilations),
                "ratio");
  }
}

Result RunBatch(const Options& options, const BatchSpec& spec) {
  Result result;
  const bool jit = spec.config.mode == core::EvalMode::kJit;
  const int threads = spec.config.num_threads;
  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);

  // One set-up is too short to time alone, so each untraced repetition is
  // followed by a few set-ups of their own (the first untimed, as the Run
  // left the caches cold). Spreading them over the run, rather than
  // timing them in one burst, lets them see the same machine as eval_s.
  std::vector<double> setup;
  auto sample_setups = [&] {
    for (int i = 0; i <= 4; ++i) {
      const Clock::time_point t = Clock::now();
      analysis::Workload workload = spec.build();
      core::Engine engine(workload.program.get(), spec.config);
      const util::Status status = engine.Prepare();
      if (i > 0) setup.push_back(SecondsSince(t));
      ++result.attempted;
      if (!status.ok()) result.Fail("set-up: " + status.ToString());
    }
  };

  // Repetitions until the time budget is spent; at least one warm-up and
  // (traced: two of each kind) counted repetitions. Traced runs alternate
  // untraced and traced repetitions so the overhead compares like with
  // like.
  const int min_reps = options.trace ? 5 : 3;
  const Clock::time_point start = Clock::now();
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  for (int i = 0; SecondsSince(start) < options.seconds ||
                  static_cast<int>(plain.size() + traced.size()) < min_reps;
       ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    Rep rep = RunRep(spec.build, spec.config, trace_this ? &tracer : nullptr,
                     static_cast<uint64_t>(i));
    ++result.attempted;
    if (!rep.error.empty()) {
      result.Fail("repetition " + std::to_string(i) + ": " + rep.error);
      break;
    }
    (trace_this ? traced : plain).push_back(std::move(rep));
    if (!options.trace && i > 0) sample_setups();
  }
  const double peak_rss_mb = PeakRssMb();

  // The reference is evaluated after the measured repetitions so it
  // does not raise the peak RSS of the measured configuration.
  Rep reference = RunRep(spec.build_reference, spec.reference_config,
                         options.trace ? &tracer : nullptr, 0,
                         "bench.reference");
  ++result.attempted;
  if (!reference.error.empty()) {
    result.Fail("reference: " + reference.error);
  }
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (size_t i = 0; i < reps->size(); ++i) {
      if (!((*reps)[i].digest == reference.digest)) {
        result.Fail("repetition output differs from the reference");
      }
    }
  }
  size_t ref_rows = 0;
  for (const auto& [name, d] : reference.digest) ref_rows += d.rows;
  std::fprintf(stderr, "reference: %zu IDB rows over %zu relations\n",
               ref_rows, reference.digest.size());

  // Counted samples: every untraced repetition but the warm-up.
  std::vector<double> eval;
  for (size_t i = 1; i < plain.size(); ++i) eval.push_back(plain[i].eval_s);
  std::fprintf(stderr, "samples: %zu untraced repetitions counted, %zu traced;"
               " eval_s:", eval.size(), traced.size());
  for (const Rep& rep : plain) std::fprintf(stderr, " %.4f", rep.eval_s);
  std::fprintf(stderr, "\n");

  if (!options.trace) {
    // A batch workload's request is one full evaluation, so latency and
    // throughput restate eval_s.
    result.Set("eval_s", Median(eval), "s");
    result.Set("setup_s", Median(setup), "s");
    result.Set("peak_rss_mb", peak_rss_mb, "MiB");
    result.Set("latency_ms", Median(eval) * 1e3, "ms");
    result.Set("throughput_rps", Ratio(1, Median(eval)), "1/s");
    return result;
  }

  // After the measured phase, when every core has been busy for a while:
  // on some virtual machines the first seconds of parallel work after a
  // pause run on one core.
  result.Set("bench.host_burn_speedup", HostBurnSpeedup(options.smoke),
             "x");
  std::vector<double> traced_eval;
  std::vector<double> traced_build;
  std::vector<double> traced_prepare;
  for (const Rep& rep : traced) {
    traced_eval.push_back(rep.eval_s);
    traced_build.push_back(rep.build_s);
    traced_prepare.push_back(rep.prepare_s);
  }
  result.Set("bench.trace_overhead",
             Ratio(Median(traced_eval), Median(eval)) - 1, "ratio");
  result.Set("bench.span_coverage",
             tracer.Coverage("bench.rep", {"core.prepare", "core.run"}),
             "ratio");
  result.Set("analysis.build_s", Median(traced_build), "s");
  result.Set("core.prepare_s", Median(traced_prepare), "s");
  if (!traced.empty()) ReportCounters(traced.back(), jit, &result);
  if (jit) {
    std::vector<double> compile_ms;
    for (int i = 0; i < 3; ++i) {
      compile_ms.push_back(CompileAllUnionsMs(spec, &tracer, &result));
    }
    result.Set("backends.compile_ms", Median(compile_ms), "ms");
  }
  if (threads > 1 && spec.reference_config.num_threads == 1) {
    // The reference is the same program at one thread.
    result.Set("core.parallel_speedup",
               Ratio(reference.eval_s, Median(traced_eval)), "x");
  }
  ReportTrace(options, tracer, &result);
  return result;
}

}  // namespace

// Fixed instance shapes: the generators' default seeds, the instances the
// repository's other benches measure. The run seed renames them.
constexpr uint64_t kCspaShapeSeed = 42;
constexpr uint64_t kAndersenShapeSeed = 7;

Result RunCspaUnoptJit(const Options& options) {
  analysis::CspaConfig cspa;
  cspa.seed = kCspaShapeSeed;
  cspa.total_tuples = options.smoke ? 120 : 400;
  const uint64_t seed = options.seed;
  BatchSpec spec;
  spec.build = [cspa, seed] {
    analysis::Workload w =
        analysis::MakeCspa(cspa, analysis::RuleOrder::kUnoptimized);
    RenameEdb(w.program.get(), seed);
    return w;
  };
  spec.config.mode = core::EvalMode::kJit;
  spec.config.use_indexes = true;
  spec.config.num_threads = 1;
  spec.config.jit.backend = backends::BackendKind::kLambda;
  spec.config.jit.async = false;
  spec.config.jit.granularity = core::Granularity::kUnion;
  // Reference: the hand-optimized formulation, interpreted.
  spec.build_reference = [cspa, seed] {
    analysis::Workload w =
        analysis::MakeCspa(cspa, analysis::RuleOrder::kHandOptimized);
    RenameEdb(w.program.get(), seed);
    return w;
  };
  spec.reference_config.mode = core::EvalMode::kInterpreted;
  spec.reference_config.use_indexes = true;
  return RunBatch(options, spec);
}

Result RunAndersenPar2(const Options& options) {
  analysis::SListConfig slist;
  slist.seed = kAndersenShapeSeed;
  slist.scale = options.smoke ? 1 : 8;
  const uint64_t seed = options.seed;
  BatchSpec spec;
  spec.build = [slist, seed] {
    analysis::Workload w =
        analysis::MakeAndersen(slist, analysis::RuleOrder::kHandOptimized);
    RenameEdb(w.program.get(), seed);
    return w;
  };
  spec.config.mode = core::EvalMode::kInterpreted;
  spec.config.engine_style = ir::EngineStyle::kPush;
  spec.config.use_indexes = true;
  spec.config.num_threads = kParallelThreads;
  // Reference: the same program on one thread.
  spec.build_reference = spec.build;
  spec.reference_config = spec.config;
  spec.reference_config.num_threads = 1;
  return RunBatch(options, spec);
}

}  // namespace perfbench
