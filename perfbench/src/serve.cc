// serve_mixed: an in-process net::Server on a Unix socket, driven by two
// closed-loop client connections from this process. Each round is a fresh
// server (parse + Prepare + first full Run + Server::Start, the set-up
// sample) followed by a fixed request count per client and a correctness
// check against a BFS the benchmark computes itself. Rounds repeat until
// the time budget is spent; the first is warm-up. Each round runs on one
// CPU (see PinToCpu).

#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/factgen.h"
#include "common.h"
#include "core/engine.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "net/commands.h"
#include "net/framing.h"
#include "net/server.h"

namespace perfbench {
namespace {

using namespace carac;
using analysis::Edge;
namespace fs = std::filesystem;

constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr uint64_t kCheckpointEvery = 50;
constexpr int kEdgesPerWrite = 20;
constexpr int64_t kOutBound = 200;  // Out(x, y) :- Edge(x, y), x < 200.

struct Sizes {
  int64_t vertices;
  int64_t edges;
  int requests_per_client;  ///< Per round.
};

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- Inputs (all generated from the seed) ----

struct Inputs {
  Sizes sizes;
  std::vector<Edge> edges;  ///< The graph in the program text.
  int64_t source = 0;       ///< Reach's single source.
  std::string program_text;
};

/// The graph has a fixed shape (generator seed kShapeSeed); the run seed
/// renames its vertices, permuting the ids below kOutBound among
/// themselves and the rest among themselves. Every seed therefore serves
/// an isomorphic graph with the same Reach and Out sizes, while the
/// concrete facts, their order and the request streams all change.
constexpr uint64_t kShapeSeed = 42;

Inputs MakeInputs(uint64_t seed, const Sizes& sizes) {
  Inputs in;
  in.sizes = sizes;
  in.edges =
      analysis::GenerateSparseGraph(kShapeSeed, sizes.vertices, sizes.edges);
  const size_t n = static_cast<size_t>(sizes.vertices);
  const size_t bound = std::min(n, static_cast<size_t>(kOutBound));
  std::vector<int64_t> degree(n, 0);
  for (const Edge& e : in.edges) ++degree[static_cast<size_t>(e.first)];
  // The generator gives the low ids the most out-edges. Relabeling by
  // out-degree rank with a stride coprime to the vertex count spreads
  // every degree class evenly over the id range, so the ids below
  // kOutBound are a stratified sample and Out stays a few hundred rows.
  std::vector<size_t> by_degree(n);
  for (size_t i = 0; i < n; ++i) by_degree[i] = i;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](size_t a, size_t b) { return degree[a] > degree[b]; });
  constexpr uint64_t kStride = 7919;  // Prime; coprime with every size used.
  std::vector<int64_t> label(n);
  for (size_t rank = 0; rank < n; ++rank) {
    label[by_degree[rank]] = static_cast<int64_t>(((rank + 1) * kStride) % n);
  }
  // The seeded renaming, within [0, kOutBound) and within the rest.
  std::vector<int64_t> rename(n);
  for (size_t i = 0; i < n; ++i) rename[i] = static_cast<int64_t>(i);
  uint64_t state = seed;
  for (size_t i = bound; i > 1; --i) {
    std::swap(rename[i - 1], rename[SplitMix(&state) % i]);
  }
  for (size_t i = n; i > bound + 1; --i) {
    std::swap(rename[i - 1], rename[bound + SplitMix(&state) % (i - bound)]);
  }
  for (Edge& e : in.edges) {
    e = {rename[static_cast<size_t>(label[static_cast<size_t>(e.first)])],
         rename[static_cast<size_t>(label[static_cast<size_t>(e.second)])]};
  }
  // The source is the vertex with the most out-edges, so Reach is a large
  // share of the graph rather than a lucky few rows.
  in.source = rename[static_cast<size_t>(label[by_degree[0]])];
  for (size_t i = in.edges.size(); i > 1; --i) {
    std::swap(in.edges[i - 1], in.edges[SplitMix(&state) % i]);
  }
  std::string& t = in.program_text;
  t += "Reach(" + std::to_string(in.source) + ").\n";
  t += "Reach(y) :- Reach(x), Edge(x, y).\n";
  t += "Out(x, y) :- Edge(x, y), x < " + std::to_string(kOutBound) + ".\n";
  for (const Edge& e : in.edges) {
    t += "Edge(" + std::to_string(e.first) + ", " + std::to_string(e.second) +
         ").\n";
  }
  return in;
}

/// The edges of client `client`'s `index`-th write: the same in every
/// round, so rounds repeat identical request streams.
std::vector<Edge> WriteBatch(uint64_t seed, int client, int index,
                             int64_t vertices) {
  uint64_t state = seed * 0x100000001b3ULL + static_cast<uint64_t>(client) *
                                                 0x9e3779b97f4a7c15ULL +
                   static_cast<uint64_t>(index);
  std::vector<Edge> batch;
  for (int i = 0; i < kEdgesPerWrite; ++i) {
    const auto u = static_cast<int64_t>(SplitMix(&state) %
                                        static_cast<uint64_t>(vertices));
    const auto v = static_cast<int64_t>(SplitMix(&state) %
                                        static_cast<uint64_t>(vertices));
    batch.emplace_back(u, v);
  }
  return batch;
}

std::string BatchPath(const std::string& work_dir, int client, int index) {
  return work_dir + "/batch-" + std::to_string(client) + "-" +
         std::to_string(index) + ".csv";
}

bool WriteCsv(const std::string& path, const std::vector<Edge>& batch) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Edge& e : batch) {
    std::fprintf(f, "%lld,%lld\n", static_cast<long long>(e.first),
                 static_cast<long long>(e.second));
  }
  return std::fclose(f) == 0;
}

// ---- The independent reference ----

/// Rows of Reach (BFS from the source) and of Out over `edges`.
void Expected(const std::vector<Edge>& edges, int64_t source,
              int64_t vertices, size_t* reach_rows,
              std::vector<std::pair<int64_t, int64_t>>* out_rows) {
  std::vector<std::vector<int64_t>> adj(static_cast<size_t>(vertices));
  std::set<std::pair<int64_t, int64_t>> out;
  for (const Edge& e : edges) {
    adj[static_cast<size_t>(e.first)].push_back(e.second);
    if (e.first < kOutBound) out.insert(e);
  }
  std::vector<char> seen(static_cast<size_t>(vertices), 0);
  std::vector<int64_t> frontier{source};
  seen[static_cast<size_t>(source)] = 1;
  size_t count = 1;
  while (!frontier.empty()) {
    const int64_t x = frontier.back();
    frontier.pop_back();
    for (int64_t y : adj[static_cast<size_t>(x)]) {
      if (!seen[static_cast<size_t>(y)]) {
        seen[static_cast<size_t>(y)] = 1;
        ++count;
        frontier.push_back(y);
      }
    }
  }
  *reach_rows = count;
  out_rows->assign(out.begin(), out.end());
}

// ---- A protocol client ----

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) return;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Sends one request line and reads its response: payload lines (the
  /// "| " prefix stripped) and whether the terminator was "ok".
  bool Request(const std::string& line, std::vector<std::string>* payload) {
    payload->clear();
    const std::string wire = line + "\n";
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    std::string reply;
    while (NextLine(&reply)) {
      if (reply.rfind("| ", 0) == 0) {
        payload->push_back(reply.substr(2));
      } else {
        return reply == "ok";
      }
    }
    return false;
  }

 private:
  bool NextLine(std::string* line) {
    for (;;) {
      const size_t nl = buffer_.find('\n', scan_);
      if (nl != std::string::npos) {
        line->assign(buffer_, scan_, nl - scan_);
        scan_ = nl + 1;
        if (scan_ > (1u << 16)) {
          buffer_.erase(0, scan_);
          scan_ = 0;
        }
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
  size_t scan_ = 0;
};

// ---- CPU placement ----

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Confines the calling thread, and every thread it starts while this is
/// in scope (the server's dispatcher and workers, the clients), to one
/// CPU; restores the previous mask when it goes out of scope. A request
/// takes tens of microseconds, so spread over several CPUs of a shared
/// virtual machine its latency is mostly the time the host takes to wake
/// an idle vCPU: identical code measured 6,100 to 24,500 requests/s from
/// one run to the next. On one CPU each hand-off is a local context
/// switch, and the rate moves with CPU speed alone.
class PinToCpu {
 public:
  explicit PinToCpu(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
              sched_setaffinity(0, sizeof(one), &one) == 0;
    if (!pinned_) {
      std::fprintf(stderr, "serve: could not pin to CPU %d\n", cpu);
    }
  }
  ~PinToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---- One round ----

enum OpKind { kCount = 0, kDump = 1, kWrite = 2 };
constexpr const char* kOpNames[3] = {"count", "dump", "write"};

struct ClientLog {
  std::vector<double> latency_ms[3];
  uint64_t requests = 0;
  std::vector<std::string> errors;
  /// (apply order, batch index) of every acknowledged load.
  std::vector<std::pair<uint64_t, int>> writes;
  Tracer tracer;
  explicit ClientLog(Clock::time_point origin) : tracer(origin) {}
};

void RunClient(const Options& options, const Inputs& in,
               const std::string& socket_path, int client, bool traced,
               std::atomic<uint64_t>* write_seq, ClientLog* log) {
  Connection conn(socket_path);
  if (!conn.connected()) {
    log->errors.push_back("client " + std::to_string(client) +
                          ": cannot connect");
    return;
  }
  Tracer* tracer = traced ? &log->tracer : nullptr;
  uint64_t mix = options.seed ^ (0xabcdefULL + static_cast<uint64_t>(client));
  std::vector<std::string> payload;
  int writes = 0;
  for (int i = 0; i < in.sizes.requests_per_client; ++i) {
    const uint64_t roll = SplitMix(&mix) % 10;
    const OpKind op = roll == 0 ? kDump : roll == 1 ? kWrite : kCount;
    const uint64_t request_id = (static_cast<uint64_t>(client) << 32) | i;
    std::string batch_path;
    if (op == kWrite) {
      batch_path = BatchPath(options.work_dir, client, writes);
      if (!fs::exists(batch_path) &&
          !WriteCsv(batch_path, WriteBatch(options.seed, client, writes,
                                           in.sizes.vertices))) {
        log->errors.push_back("cannot write " + batch_path);
        return;
      }
    }
    ++log->requests;
    bool ok = false;
    const Clock::time_point t = Clock::now();
    if (op == kCount) {
      ScopedSpan span(tracer, "client", "client.count", request_id);
      ok = conn.Request("count Reach", &payload);
    } else if (op == kDump) {
      ScopedSpan span(tracer, "client", "client.dump", request_id);
      ok = conn.Request("dump Out", &payload);
    } else {
      ScopedSpan span(tracer, "client", "client.write", request_id);
      ok = conn.Request("load Edge " + batch_path, &payload);
      if (ok) log->writes.emplace_back(write_seq->fetch_add(1), writes);
      ok = ok && conn.Request("update", &payload);
      ++writes;
    }
    log->latency_ms[op].push_back(SecondsSince(t) * 1e3);
    if (!ok) {
      log->errors.push_back("client " + std::to_string(client) +
                            ": request " + std::to_string(i) + " not ok: " +
                            (payload.empty() ? "" : payload.back()));
    }
  }
}

struct Round {
  double first_eval_s = 0;
  double setup_s = 0;  ///< Parse + Prepare + first Run + Server::Start.
  double log_bytes = 0;
  double snapshot_bytes = 0;
  double edb_facts = 0;
  std::vector<ClientLog> clients;
  /// Batches in the order their loads were acknowledged.
  std::vector<std::vector<Edge>> write_stream;
};

uint64_t FileBytes(const fs::path& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

core::EngineConfig ServeConfig(const std::string& snapshot_dir,
                               uint64_t checkpoint_every) {
  core::EngineConfig config;
  config.snapshot_dir = snapshot_dir;
  config.checkpoint_every = checkpoint_every;
  return config;
}

/// One server lifetime. Failures go to `result`.
Round RunRound(const Options& options, const Inputs& in, int index,
               bool traced, Tracer* tracer, Clock::time_point origin,
               Result* result) {
  Round round;
  const std::string dir = options.work_dir + "/round-" + std::to_string(index);
  const std::string socket_path = dir + "/s.sock";
  fs::create_directories(dir);
  Tracer* t = traced ? tracer : nullptr;

  auto program = std::make_unique<datalog::Program>();
  std::unique_ptr<core::Engine> engine;
  std::mutex write_mutex;
  net::ServeContext ctx;
  std::unique_ptr<net::Server> server;
  util::Status status;
  {
    ScopedSpan setup(t, "bench", "bench.setup", index);
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span(t, "datalog", "datalog.parse", index);
      status = datalog::ParseDatalog(in.program_text, program.get());
    }
    if (status.ok()) {
      ScopedSpan span(t, "core", "core.prepare", index);
      engine = std::make_unique<core::Engine>(
          program.get(), ServeConfig(dir, kCheckpointEvery));
      status = engine->Prepare();
    }
    if (status.ok()) {
      const Clock::time_point c = Clock::now();
      ScopedSpan span(t, "core", "core.first_eval", index);
      status = engine->Run();
      round.first_eval_s = SecondsSince(c);
    }
    if (status.ok()) {
      ScopedSpan span(t, "net", "net.server_start", index);
      ctx.program = program.get();
      ctx.engine = engine.get();
      ctx.snapshot_dir = dir;
      ctx.snapshot_reads = true;
      ctx.deterministic_replies = true;
      ctx.write_mutex = &write_mutex;
      net::ServerConfig config;
      config.unix_path = socket_path;
      config.num_workers = kServerWorkers;
      server = std::make_unique<net::Server>(&ctx, config);
      status = server->Start();
    }
    round.setup_s = SecondsSince(setup_start);
  }
  ++result->attempted;
  if (!status.ok()) {
    result->Fail("round " + std::to_string(index) +
                 " set-up: " + status.ToString());
    return round;
  }

  std::atomic<uint64_t> write_seq{0};
  round.clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) round.clients.emplace_back(origin);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, std::cref(options), std::cref(in),
                         std::cref(socket_path), c, traced, &write_seq,
                         &round.clients[static_cast<size_t>(c)]);
  }
  for (std::thread& thread : threads) thread.join();

  // Correctness: every reply was ok (checked per request) and, after the
  // last write, the served relations equal the reference over the union
  // of the program's edges and every loaded batch.
  std::vector<std::pair<uint64_t, std::vector<Edge>>> ordered;
  std::vector<Edge> all_edges = in.edges;
  for (int c = 0; c < kClients; ++c) {
    ClientLog& log = round.clients[static_cast<size_t>(c)];
    result->attempted += log.requests;
    for (const std::string& e : log.errors) result->Fail(e);
    for (const auto& [seq, batch_index] : log.writes) {
      std::vector<Edge> batch =
          WriteBatch(options.seed, c, batch_index, in.sizes.vertices);
      all_edges.insert(all_edges.end(), batch.begin(), batch.end());
      ordered.emplace_back(seq, std::move(batch));
    }
  }
  std::sort(ordered.begin(), ordered.end());
  for (auto& entry : ordered) round.write_stream.push_back(entry.second);

  size_t reach_rows = 0;
  std::vector<std::pair<int64_t, int64_t>> out_rows;
  Expected(all_edges, in.source, in.sizes.vertices, &reach_rows, &out_rows);
  {
    Connection check(socket_path);
    std::vector<std::string> payload;
    result->attempted += 2;
    if (!check.connected() || !check.Request("count Reach", &payload) ||
        payload.size() != 1 ||
        payload[0] != "Reach: " + std::to_string(reach_rows) + " rows") {
      result->Fail("round " + std::to_string(index) + ": count Reach = " +
                   (payload.empty() ? "?" : payload[0]) + ", expected " +
                   std::to_string(reach_rows));
    }
    std::vector<std::pair<int64_t, int64_t>> served;
    bool parsed = check.connected() && check.Request("dump Out", &payload);
    for (const std::string& row : payload) {
      long long x = 0;
      long long y = 0;
      parsed = parsed && std::sscanf(row.c_str(), "%lld\t%lld", &x, &y) == 2;
      served.emplace_back(x, y);
    }
    std::sort(served.begin(), served.end());
    if (!parsed || served != out_rows) {
      result->Fail("round " + std::to_string(index) + ": dump Out has " +
                   std::to_string(served.size()) + " rows, expected " +
                   std::to_string(out_rows.size()));
    }
  }

  server->RequestShutdown();
  server->Wait();
  round.log_bytes =
      static_cast<double>(FileBytes(fs::path(dir) / "factlog.bin"));
  round.snapshot_bytes =
      static_cast<double>(FileBytes(fs::path(dir) / "snapshot.bin"));
  datalog::PredicateId edge = datalog::kInvalidPredicate;
  for (datalog::PredicateId p = 0; p < program->NumPredicates(); ++p) {
    if (program->PredicateName(p) == "Edge") edge = p;
  }
  round.edb_facts = static_cast<double>(engine->ResultSize(edge));
  server.reset();
  engine.reset();
  program.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return round;
}

/// Traced only: replays the last traced round's write stream in-process,
/// one AddFacts + Update per batch and a Checkpoint every 50 epochs, to
/// split write time between the calls; then times ExecuteServeLine for
/// the two reads with no socket in between.
void Replay(const Options& options, const Inputs& in,
            const std::vector<std::vector<Edge>>& stream, Tracer* tracer,
            Result* result) {
  const std::string dir = options.work_dir + "/replay";
  fs::create_directories(dir);
  ScopedSpan root(tracer, "bench", "bench.replay");
  datalog::Program program;
  util::Status status;
  {
    ScopedSpan span(tracer, "datalog", "datalog.parse");
    status = datalog::ParseDatalog(in.program_text, &program);
  }
  core::Engine engine(&program, ServeConfig(dir, 0));
  if (status.ok()) {
    ScopedSpan span(tracer, "core", "core.prepare");
    status = engine.Prepare();
  }
  if (status.ok()) {
    ScopedSpan span(tracer, "core", "core.first_eval");
    status = engine.Run();
  }
  ++result->attempted;
  if (!status.ok()) {
    result->Fail("replay set-up: " + status.ToString());
    return;
  }
  datalog::PredicateId edge = datalog::kInvalidPredicate;
  for (datalog::PredicateId p = 0; p < program.NumPredicates(); ++p) {
    if (program.PredicateName(p) == "Edge") edge = p;
  }
  std::vector<double> seeded;
  uint64_t epochs = 0;
  for (size_t i = 0; i < stream.size() && status.ok(); ++i) {
    std::vector<storage::Tuple> facts;
    for (const Edge& e : stream[i]) facts.push_back({e.first, e.second});
    {
      ScopedSpan span(tracer, "storage", "storage.add_facts", i);
      status = engine.AddFacts(edge, facts);
    }
    core::EpochReport report;
    if (status.ok()) {
      ScopedSpan span(tracer, "core", "core.update", i);
      status = engine.Update(&report);
    }
    seeded.push_back(static_cast<double>(report.seeded_rows));
    if (status.ok() && ++epochs % kCheckpointEvery == 0) {
      ScopedSpan span(tracer, "storage", "storage.checkpoint", i);
      status = engine.Checkpoint();
    }
    ++result->attempted;
  }
  if (!status.ok()) result->Fail("replay: " + status.ToString());

  net::ServeContext ctx;
  ctx.program = &program;
  ctx.engine = &engine;
  ctx.snapshot_dir = dir;
  ctx.snapshot_reads = true;
  ctx.deterministic_replies = true;
  const int count_reps = options.smoke ? 50 : 2000;
  const int dump_reps = options.smoke ? 10 : 200;
  for (int i = 0; i < count_reps + dump_reps; ++i) {
    const bool count = i < count_reps;
    net::WireResponse writer;
    net::ServeOutcome outcome;
    {
      ScopedSpan span(tracer, "net", count ? "net.count_exec" : "net.dump_exec",
                      i);
      outcome = net::ExecuteServeLine(&ctx, count ? "count Reach" : "dump Out",
                                      &writer);
      std::move(writer).Finish();
    }
    ++result->attempted;
    if (outcome != net::ServeOutcome::kOk) result->Fail("in-process read");
  }
  result->Set("core.epoch_seeded_rows", Median(seeded), "count");
}

}  // namespace

Result RunServeMixed(const Options& options) {
  Result result;
  const Sizes sizes = options.smoke ? Sizes{600, 1500, 40}
                                    : Sizes{20000, 50000, 2000};
  const Inputs in = MakeInputs(options.seed, sizes);
  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);

  // Round 0 is warm-up. A traced run alternates untraced and traced
  // rounds so the tracing overhead compares rounds with equal state.
  const int min_rounds = options.trace ? 5 : 3;
  std::vector<Round> plain;
  std::vector<Round> traced;
  // Each round runs on one CPU. Successive pairs of rounds cycle through
  // the CPUs the process may use, so a vCPU the host keeps busier for a
  // while slows a share of the rounds rather than a whole run; a pair
  // shares its CPU so traced and untraced rounds see the same ones.
  const std::vector<int> cpus = AllowedCpus();
  const Clock::time_point start = Clock::now();
  for (int i = 0; SecondsSince(start) < options.seconds ||
                  static_cast<int>(plain.size() + traced.size()) < min_rounds;
       ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    std::optional<PinToCpu> pin;
    if (!cpus.empty()) {
      pin.emplace(cpus[static_cast<size_t>(i / 2) % cpus.size()]);
    }
    Round round =
        RunRound(options, in, i, trace_this, &tracer, origin, &result);
    if (result.failed > 0) break;
    (trace_this ? traced : plain).push_back(std::move(round));
  }
  const double peak_rss_mb = PeakRssMb();
  if (result.failed > 0) return result;

  auto pooled = [](const std::vector<Round>& rounds, size_t first, int op) {
    std::vector<double> all;
    for (size_t r = first; r < rounds.size(); ++r) {
      for (const ClientLog& log : rounds[r].clients) {
        all.insert(all.end(), log.latency_ms[op].begin(),
                   log.latency_ms[op].end());
      }
    }
    return all;
  };
  std::vector<double> setup, first_eval, requests, disk, rate;
  for (size_t r = 1; r < plain.size(); ++r) {
    setup.push_back(plain[r].setup_s);
    first_eval.push_back(plain[r].first_eval_s);
    disk.push_back((plain[r].log_bytes + plain[r].snapshot_bytes) /
                   plain[r].edb_facts);
    // Closed loop: each client's rate is its requests over its busy time;
    // the clients' rates add up.
    double round_rate = 0;
    for (const ClientLog& log : plain[r].clients) {
      double busy_s = 0;
      for (const auto& lat : log.latency_ms) busy_s += Sum(lat) / 1e3;
      if (busy_s > 0) round_rate += static_cast<double>(log.requests) / busy_s;
    }
    rate.push_back(round_rate);
  }
  for (int op = 0; op < 3; ++op) {
    const std::vector<double> lat = pooled(plain, 1, op);
    requests.insert(requests.end(), lat.begin(), lat.end());
  }
  size_t reach_rows = 0;
  std::vector<std::pair<int64_t, int64_t>> out_rows;
  Expected(in.edges, in.source, sizes.vertices, &reach_rows, &out_rows);
  std::fprintf(stderr,
               "samples: %zu untraced rounds counted (%zu requests), %zu "
               "traced; graph %lld vertices, %zu edges; initially %zu Reach "
               "and %zu Out rows\n",
               setup.size(), requests.size(), traced.size(),
               static_cast<long long>(sizes.vertices), in.edges.size(),
               reach_rows, out_rows.size());

  if (!options.trace) {
    result.Set("eval_s", Median(first_eval), "s");
    result.Set("setup_s", Median(setup), "s");
    result.Set("peak_rss_mb", peak_rss_mb, "MiB");
    result.Set("latency_ms", Median(requests), "ms");
    result.Set("throughput_rps", Median(rate), "1/s");
    // The per-operation view of the same samples (not gated).
    for (int op = 0; op < 3; ++op) {
      const std::vector<double> lat = pooled(plain, 1, op);
      std::printf("%-34s %.6g ms / %.6g ms (%zu samples)\n",
                  (std::string(kOpNames[op]) + "_p50_ms / _p99_ms").c_str(),
                  Median(lat), Percentile(lat, 0.99), lat.size());
    }
    std::printf("%-34s %.6g bytes\n", "disk_bytes_per_fact", Median(disk));
    return result;
  }

  result.Set("bench.host_burn_speedup", HostBurnSpeedup(options.smoke),
             "x");
  for (const Round& round : traced) {
    for (const ClientLog& log : round.clients) tracer.Absorb(log.tracer);
  }
  double traced_ms = 0;
  double plain_ms = 0;
  size_t traced_n = 0;
  size_t plain_n = 0;
  for (int op = 0; op < 3; ++op) {
    const std::vector<double> lat = pooled(traced, 0, op);
    const std::vector<double> base = pooled(plain, 1, op);
    traced_ms += Sum(lat);
    traced_n += lat.size();
    plain_ms += Sum(base);
    plain_n += base.size();
    result.Set(std::string("client.") + kOpNames[op] + "_p50_ms", Median(lat),
               "ms");
    result.Set(std::string("client.") + kOpNames[op] + "_p99_ms",
               Percentile(lat, 0.99), "ms");
  }
  if (traced_n > 0 && plain_n > 0) {
    result.Set("bench.trace_overhead",
               (traced_ms / traced_n) / (plain_ms / plain_n) - 1, "ratio");
  }
  result.Set("bench.span_coverage",
             tracer.Coverage("bench.setup",
                             {"datalog.parse", "core.prepare",
                              "core.first_eval", "net.server_start"}),
             "ratio");
  result.Set("datalog.parse_s", Median(tracer.Durations("datalog.parse")), "s");
  result.Set("core.prepare_s", Median(tracer.Durations("core.prepare")), "s");
  result.Set("core.first_eval_s", Median(tracer.Durations("core.first_eval")),
             "s");
  result.Set("net.server_start_s",
             Median(tracer.Durations("net.server_start")), "s");
  const Round& last = traced.back();
  result.Set("storage.log_bytes", last.log_bytes, "bytes");
  result.Set("storage.snapshot_bytes", last.snapshot_bytes, "bytes");
  result.Set("storage.disk_bytes_per_fact",
             (last.log_bytes + last.snapshot_bytes) / last.edb_facts, "bytes");

  Replay(options, in, last.write_stream, &tracer, &result);
  auto ms = [&](const char* name) {
    std::vector<double> d = tracer.Durations(name);
    for (double& v : d) v *= 1e3;
    return d;
  };
  result.Set("storage.add_facts_ms", Median(ms("storage.add_facts")), "ms");
  result.Set("core.update_p50_ms", Median(ms("core.update")), "ms");
  result.Set("core.update_p99_ms", Percentile(ms("core.update"), 0.99), "ms");
  result.Set("storage.checkpoint_ms", Median(ms("storage.checkpoint")), "ms");
  const double count_exec_us = Median(ms("net.count_exec")) * 1e3;
  result.Set("net.count_exec_us", count_exec_us, "us");
  result.Set("net.dump_exec_us", Median(ms("net.dump_exec")) * 1e3, "us");
  const double count_client_us = Median(pooled(traced, 0, kCount)) * 1e3;
  result.Set("net.wire_share",
             count_client_us > 0 ? 1 - count_exec_us / count_client_us : 0,
             "ratio");
  ReportTrace(options, tracer, &result);
  return result;
}

}  // namespace perfbench
