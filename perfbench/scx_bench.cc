// The measuring process of the repository benchmark (see README.md).
//
// Drives scx only through its public API, in a closed loop with one client:
// each operation is one script (compile, optimize in kCse, execute) or one
// batch (Engine::SubmitBatch), and the next one starts when the previous one
// has returned. Every timed operation's outputs are compared with reference
// outputs computed at set-up from the kConventional plan of each script run
// alone. The process writes one JSON record per invocation; run.py and
// trace_report.py turn it into metrics.
//
//   scx_bench --workload paper_exec|large_script|batch_merged|all
//             --seed N --seconds S --trace 0|1 --out FILE
//
// With --trace 1, whole rounds of the seeded operation order alternate
// between traced and untraced, and traced operations record spans around the
// public calls into each layer (compile, optimize, execute). Exit codes: 0 all
// outputs correct, 1 an operation failed or mismatched, 2 usage or refused
// environment.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "testing/json_lite.h"
#include "testing/script_gen.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

#ifndef SCX_BENCH_BUILD_TYPE
#define SCX_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SCX_BENCH_COMPILER
#define SCX_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace scx;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Build and environment guard.

bool BuildIsSanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(SCX_BENCH_SANITIZED)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool BuildIsOptimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

// Knobs that would silently change what the benchmark measures.
const char* const kRefusedEnv[] = {"SCX_NUM_THREADS", "SCX_BATCH_SIZE",
                                   "SCX_MORSEL_SIZE", "SCX_SPOOL_CACHE_BYTES"};

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Seeded choices. The harness keeps its own generator so input and order
// choices never depend on library internals.

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Operation order: round after round, each round one seeded permutation of
// the input pool, so every run sees the pool's items in equal measure.
class Order {
 public:
  Order(uint64_t seed, size_t pool) : state_(seed), perm_(pool) {}

  size_t Next() {
    if (pos_ == perm_.size()) {
      for (size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
      for (size_t i = perm_.size(); i > 1; --i) {
        std::swap(perm_[i - 1], perm_[SplitMix64(&state_) % i]);
      }
      pos_ = 0;
      ++round_;
    }
    return perm_[pos_++];
  }
  // Round of the item Next() returned last (0-based).
  long round() const { return round_; }
  // True when the current round has handed out every item.
  bool round_complete() const { return pos_ == perm_.size(); }

 private:
  uint64_t state_;
  std::vector<size_t> perm_;
  size_t pos_ = perm_.size();
  long round_ = -1;
};

// ---------------------------------------------------------------------------
// Spans, kept in memory and written out with the record.

struct Span {
  const char* name;
  double start;
  double end;
  int parent;  // index into the span list, -1 for a root span
  long op;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  // Opens a span and returns its index, or -1 when `on` is false.
  int Begin(bool on, const char* name, int parent, long op) {
    if (!on) return -1;
    spans_.push_back({name, Now(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = Now();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const { return Seconds(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Operations.

using Outputs = std::map<std::string, std::vector<Row>>;
using Counters = std::vector<std::pair<const char*, double>>;

// Each path's rows sorted (CanonicalRows), so outputs compare as multisets:
// plans may legally deliver rows of an unordered sink in any order.
Outputs Canonical(Outputs outputs) {
  for (auto& [path, rows] : outputs) rows = CanonicalRows(std::move(rows));
  return outputs;
}

void AddOptimizeCounters(const OptimizedScript& o, Counters* c) {
  const OptimizeDiagnostics& d = o.result.diagnostics;
  c->insert(c->end(), {
      {"cse_run_s", d.optimize_seconds},
      {"phase2_s", d.phase2_seconds},
      {"rounds_planned", static_cast<double>(d.rounds_planned)},
      {"rounds_executed", static_cast<double>(d.rounds_executed)},
      {"rounds_pruned", static_cast<double>(d.cache.pruned_rounds)},
      {"alts_pruned", static_cast<double>(d.cache.pruned_alternatives)},
      {"winner_hits", static_cast<double>(d.cache.winner_hits)},
      {"winner_misses", static_cast<double>(d.cache.winner_misses)},
      {"opt_spool_hits", static_cast<double>(d.cache.spool_hits)},
      {"opt_spool_misses", static_cast<double>(d.cache.spool_misses)},
      {"shared_groups", static_cast<double>(d.num_shared_groups)},
      {"cross_script_shared_groups",
       static_cast<double>(d.cross_script_shared_groups)},
      {"reachable_groups", static_cast<double>(d.reachable_groups)},
      {"budget_exhausted", d.budget_exhausted ? 1.0 : 0.0},
      {"fell_back", d.fell_back_to_conventional ? 1.0 : 0.0},
      {"est_cost", o.cost()},
      {"trace_entries", static_cast<double>(d.round_trace.size())},
  });
}

void AddExecCounters(const ExecMetrics& m, Counters* c) {
  auto n = [](int64_t v) { return static_cast<double>(v); };
  c->insert(c->end(), {
      {"bytes_moved",
       n(m.bytes_extracted + m.bytes_shuffled + m.bytes_spooled)},
      {"rows_extracted", n(m.rows_extracted)},
      {"rows_shuffled", n(m.rows_shuffled)},
      {"bytes_shuffled", n(m.bytes_shuffled)},
      {"bytes_spooled", n(m.bytes_spooled)},
      {"rows_output", n(m.rows_output)},
      {"operator_invocations", n(m.operator_invocations)},
      {"batches_evaluated", n(m.batches_evaluated)},
      {"morsels_evaluated", n(m.morsels_evaluated)},
      {"exprs_deduped", n(m.exprs_deduped)},
      {"spool_executions", n(m.spool_executions)},
      {"spool_reads", n(m.spool_reads)},
      {"spool_cache_hits", n(m.spool_cache_hits)},
      {"cross_query_spool_hits", n(m.cross_query_spool_hits)},
      {"spool_bytes_evicted", n(m.spool_bytes_evicted)},
  });
}

struct OpResult {
  int scripts = 0;  // scripts with correct outputs
  double latency_s = 0;
  bool ok = false;
  std::string error;  // status message or "output mismatch"
  Counters counters;
};

// One operation's context: whether to trace it and under which id.
struct OpContext {
  Tracer* tracer;
  bool traced;
  long op;
  bool check;  // false for warm-up operations (no reference yet)
};

// What one operation returns: the chosen plan, the execution counters, and
// each script's outputs.
struct Outcome {
  OptimizedScript optimized;
  ExecMetrics metrics;
  std::vector<Outputs> outputs;
};

class Workload {
 public:
  explicit Workload(OptimizerConfig config) : config_(std::move(config)) {}
  virtual ~Workload() = default;

  // Builds catalogs, scripts and engines from `seed` (part of set-up).
  virtual void Generate(uint64_t seed) = 0;
  virtual size_t pool_size() const = 0;
  // Operations run after Generate as part of set-up.
  virtual size_t warmup_ops() const = 0;

  // Computes every item's reference outputs (excluded from set-up time).
  Status ComputeReferences() {
    reference_.clear();
    for (size_t i = 0; i < pool_size(); ++i) {
      SCX_ASSIGN_OR_RETURN(std::vector<Outputs> ref, Reference(i));
      reference_.push_back(std::move(ref));
    }
    return Status::OK();
  }

  // Runs item i once and, if ctx.check, compares its outputs with the
  // reference. The latency covers script text to returned outputs.
  OpResult Run(size_t i, const OpContext& ctx) {
    OpResult r;
    Clock::time_point t0 = Clock::now();
    int op_span = ctx.tracer->Begin(ctx.traced, "op", -1, ctx.op);
    Result<Outcome> out = Submit(i, ctx, op_span);
    ctx.tracer->End(op_span);
    r.latency_s = Seconds(t0, Clock::now());
    if (!out.ok()) {
      r.error = out.status().ToString();
      return r;
    }
    AddOptimizeCounters(out->optimized, &r.counters);
    AddExecCounters(out->metrics, &r.counters);
    if (ctx.check) {
      int span = ctx.tracer->Begin(ctx.traced, "check", -1, ctx.op);
      const std::vector<Outputs>& ref = reference_[i];
      bool same = out->outputs.size() == ref.size();
      for (size_t s = 0; same && s < ref.size(); ++s) {
        same = Canonical(std::move(out->outputs[s])) == ref[s];
      }
      ctx.tracer->End(span);
      if (!same) {
        r.error = "output mismatch";
        return r;
      }
    }
    r.ok = true;
    r.scripts = static_cast<int>(out->outputs.size());
    return r;
  }

 protected:
  // Item i's operation, each public call into a layer in its own span.
  virtual Result<Outcome> Submit(size_t i, const OpContext& ctx,
                                 int op_span) = 0;
  // Item i's scripts, each run alone under the conventional optimizer.
  virtual Result<std::vector<Outputs>> Reference(size_t i) const = 0;

  // One script alone under the conventional optimizer: the reference plan.
  // It runs on one thread (outputs are the same at any thread count), which
  // keeps the harness's own allocations out of the worker threads' heaps.
  Result<Outputs> RunConventional(const Catalog& catalog,
                                  const std::string& text) const {
    OptimizerConfig serial = config_;
    serial.num_threads = 1;
    serial.cluster.exec_threads = 1;
    Engine engine(catalog, serial);
    SCX_ASSIGN_OR_RETURN(CompiledScript compiled, engine.Compile(text));
    SCX_ASSIGN_OR_RETURN(
        OptimizedScript plan,
        engine.Optimize(compiled, OptimizerMode::kConventional));
    SCX_ASSIGN_OR_RETURN(ExecMetrics metrics, engine.Execute(plan));
    return Canonical(std::move(metrics.outputs));
  }

  OptimizerConfig config_;

 private:
  std::vector<std::vector<Outputs>> reference_;  // per item, per script
};

// paper_exec and large_script: one script per operation.
class ScriptWorkload : public Workload {
 public:
  enum class Kind { kPaper, kLarge };

  ScriptWorkload(Kind kind, OptimizerConfig config)
      : Workload(std::move(config)), kind_(kind) {}

  void Generate(uint64_t seed) override {
    if (kind_ == Kind::kPaper) {
      // The paper's S1-S4 over one 400k-row catalog; the seed only orders
      // the operations.
      engines_.push_back(std::make_unique<Engine>(
          MakeExecutionCatalog(400000), config_));
      for (const char* text : {kScriptS1, kScriptS2, kScriptS3, kScriptS4}) {
        items_.push_back({engines_.back().get(), text});
      }
      return;
    }
    // LS2-shaped scripts whose data seeds come from the workload seed.
    uint64_t state = seed;
    for (int i = 0; i < kLargePool; ++i) {
      LargeScriptSpec spec = Ls2Spec();
      spec.rows_per_file = 4000;
      spec.seed = SplitMix64(&state) % 1000000007ULL;
      GeneratedScript gen = GenerateLargeScript(spec);
      engines_.push_back(
          std::make_unique<Engine>(std::move(gen.catalog), config_));
      items_.push_back({engines_.back().get(), std::move(gen.text)});
    }
  }

  size_t pool_size() const override { return items_.size(); }
  size_t warmup_ops() const override {
    return kind_ == Kind::kPaper ? items_.size() : 1;
  }

 protected:
  // Engine::Compile, Engine::Optimize in kCse, Engine::Execute.
  Result<Outcome> Submit(size_t i, const OpContext& ctx,
                         int op_span) override {
    const Item& item = items_[i];
    Tracer* tr = ctx.tracer;
    int span = tr->Begin(ctx.traced, "compile", op_span, ctx.op);
    Result<CompiledScript> compiled = item.engine->Compile(item.text);
    tr->End(span);
    if (!compiled.ok()) return compiled.status();

    Outcome out;
    span = tr->Begin(ctx.traced, "optimize", op_span, ctx.op);
    Result<OptimizedScript> optimized =
        item.engine->Optimize(*compiled, OptimizerMode::kCse);
    tr->End(span);
    if (!optimized.ok()) return optimized.status();
    out.optimized = std::move(*optimized);

    span = tr->Begin(ctx.traced, "execute", op_span, ctx.op);
    Result<ExecMetrics> metrics = item.engine->Execute(out.optimized);
    tr->End(span);
    if (!metrics.ok()) return metrics.status();
    out.metrics = std::move(*metrics);
    out.outputs.push_back(std::move(out.metrics.outputs));
    return out;
  }

  Result<std::vector<Outputs>> Reference(size_t i) const override {
    SCX_ASSIGN_OR_RETURN(
        Outputs outputs,
        RunConventional(items_[i].engine->catalog(), items_[i].text));
    return std::vector<Outputs>{std::move(outputs)};
  }

 private:
  static constexpr int kLargePool = 3;

  struct Item {
    const Engine* engine;
    std::string text;
  };

  Kind kind_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Item> items_;
};

// batch_merged: one Engine::SubmitBatch per operation, on a fresh engine.
class BatchWorkload : public Workload {
 public:
  explicit BatchWorkload(OptimizerConfig config)
      : Workload(std::move(config)) {}

  // The pool is the same for every workload seed, which only orders the
  // operations: per-batch cost is heavy-tailed (most batches take tens of
  // milliseconds, a few take seconds), so a pool drawn from the workload
  // seed would make each seed's throughput hinge on how many slow batches
  // it drew.
  void Generate(uint64_t /*seed*/) override {
    BatchGenOptions options;
    options.min_scripts = 4;
    options.max_scripts = 4;
    options.overlap = 0.5;
    options.library_rows = 20000;
    for (int i = 1; i <= kPool; ++i) {
      GeneratedBatch gen = GenerateScriptBatch(i, options);
      items_.push_back({std::move(gen.catalog), std::move(gen.scripts)});
    }
  }

  size_t pool_size() const override { return items_.size(); }
  size_t warmup_ops() const override { return 1; }

 protected:
  // Untraced: Engine::SubmitBatch. Traced: the public calls SubmitBatch
  // makes, one at a time so that each layer gets its own span
  // (CompileBatch, OptimizeBatch, Executor::Execute on the engine's
  // cross-query spool cache), then the per-script demultiplexing that
  // Engine::ExecuteBatch does, left in the operation's self time.
  Result<Outcome> Submit(size_t i, const OpContext& ctx,
                         int op_span) override {
    const Item& item = items_[i];
    // A fresh engine per batch: the cross-query spool cache starts empty.
    Engine engine(item.catalog, config_);
    Outcome out;
    if (!ctx.traced) {
      SCX_ASSIGN_OR_RETURN(BatchExecution run,
                           engine.SubmitBatch(item.scripts));
      out.optimized = std::move(run.optimized);
      out.metrics = std::move(run.metrics);
      out.outputs = std::move(run.script_outputs);
      return out;
    }
    Tracer* tr = ctx.tracer;
    int span = tr->Begin(true, "compile", op_span, ctx.op);
    Result<CompiledBatch> batch = engine.CompileBatch(item.scripts);
    tr->End(span);
    if (!batch.ok()) return batch.status();

    span = tr->Begin(true, "optimize", op_span, ctx.op);
    Result<OptimizedScript> optimized =
        engine.OptimizeBatch(*batch, OptimizerMode::kCse);
    tr->End(span);
    if (!optimized.ok()) return optimized.status();
    out.optimized = std::move(*optimized);

    span = tr->Begin(true, "execute", op_span, ctx.op);
    Executor executor(engine.config().cluster, &engine.spool_cache(),
                      engine.catalog().version());
    Result<ExecMetrics> metrics = executor.Execute(out.optimized.plan());
    tr->End(span);
    if (!metrics.ok()) return metrics.status();
    out.metrics = std::move(*metrics);

    for (const auto& provenance : batch->bound.outputs) {
      Outputs script;
      for (const auto& [merged_path, original] : provenance) {
        auto it = out.metrics.outputs.find(merged_path);
        script[original] = it != out.metrics.outputs.end()
                               ? it->second
                               : std::vector<Row>{};
      }
      out.outputs.push_back(std::move(script));
    }
    return out;
  }

  Result<std::vector<Outputs>> Reference(size_t i) const override {
    std::vector<Outputs> ref;
    for (const std::string& text : items_[i].scripts) {
      SCX_ASSIGN_OR_RETURN(Outputs outputs,
                           RunConventional(items_[i].catalog, text));
      ref.push_back(std::move(outputs));
    }
    return ref;
  }

 private:
  static constexpr int kPool = 24;

  struct Item {
    Catalog catalog;
    std::vector<std::string> scripts;
  };

  std::vector<Item> items_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const OptimizerConfig& config) {
  if (name == "paper_exec") {
    return std::make_unique<ScriptWorkload>(ScriptWorkload::Kind::kPaper,
                                            config);
  }
  if (name == "large_script") {
    return std::make_unique<ScriptWorkload>(ScriptWorkload::Kind::kLarge,
                                            config);
  }
  if (name == "batch_merged") return std::make_unique<BatchWorkload>(config);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The record written for run.py / trace_report.py.

std::string JsonString(const std::string& s) {
  JsonValue v;
  v.kind = JsonValue::Kind::kString;
  v.string_value = s;
  return SerializeJson(v);
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct OpRecord {
  long op;
  size_t item;
  long round;
  bool traced;
  OpResult result;
};

struct RunRecord {
  std::string workload;
  std::vector<double> setup_s;
  double reference_s = 0;
  double timed_s = 0;
  long setup_rss_kb = 0;  // peak resident set at the end of set-up
  long peak_rss_kb = 0;   // at the end of the run
  std::vector<OpRecord> ops;
  std::vector<Span> spans;
};

void WriteRun(FILE* f, const RunRecord& run) {
  std::fprintf(f, "{\"workload\": %s, \"setup_s\": [",
               JsonString(run.workload).c_str());
  for (size_t i = 0; i < run.setup_s.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", Num(run.setup_s[i]).c_str());
  }
  std::fprintf(f,
               "], \"reference_s\": %s, \"timed_s\": %s, "
               "\"setup_rss_kb\": %ld, \"peak_rss_kb\": %ld,\n \"ops\": [",
               Num(run.reference_s).c_str(), Num(run.timed_s).c_str(),
               run.setup_rss_kb, run.peak_rss_kb);
  for (size_t i = 0; i < run.ops.size(); ++i) {
    const OpRecord& o = run.ops[i];
    std::fprintf(f,
                 "%s\n  {\"op\": %ld, \"item\": %zu, \"round\": %ld, "
                 "\"traced\": %s, \"scripts\": %d, \"latency_s\": %s, "
                 "\"ok\": %s, \"error\": %s, \"counters\": {",
                 i ? "," : "", o.op, o.item, o.round,
                 o.traced ? "true" : "false", o.result.scripts,
                 Num(o.result.latency_s).c_str(),
                 o.result.ok ? "true" : "false",
                 JsonString(o.result.error).c_str());
    for (size_t c = 0; c < o.result.counters.size(); ++c) {
      std::fprintf(f, "%s\"%s\": %s", c ? ", " : "",
                   o.result.counters[c].first,
                   Num(o.result.counters[c].second).c_str());
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "],\n \"spans\": [");
  for (size_t i = 0; i < run.spans.size(); ++i) {
    const Span& s = run.spans[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"start\": %s, \"end\": %s, "
                 "\"parent\": %d, \"op\": %ld}",
                 i ? "," : "", s.name, Num(s.start).c_str(),
                 Num(s.end).c_str(), s.parent, s.op);
  }
  std::fprintf(f, "]}");
}

long PeakRssKb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// One workload: set-up (repeated), reference outputs, timed closed loop.

constexpr int kSetupRepeats = 3;

bool RunWorkload(const std::string& name, uint64_t seed, double seconds,
                 bool trace, const OptimizerConfig& config, RunRecord* run) {
  run->workload = name;
  std::unique_ptr<Workload> wl;
  Tracer untraced(Clock::now());
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    wl.reset();
    Clock::time_point t0 = Clock::now();
    wl = MakeWorkload(name, config);
    wl->Generate(seed);
    for (size_t w = 0; w < wl->warmup_ops(); ++w) {
      OpResult r = wl->Run(w % wl->pool_size(),
                           {&untraced, false, -1, /*check=*/false});
      if (!r.ok) {
        std::fprintf(stderr, "%s: warm-up operation failed: %s\n",
                     name.c_str(), r.error.c_str());
        return false;
      }
    }
    run->setup_s.push_back(Seconds(t0, Clock::now()));
  }
  run->setup_rss_kb = PeakRssKb();

  Clock::time_point t_ref = Clock::now();
  Status ref = wl->ComputeReferences();
  if (!ref.ok()) {
    std::fprintf(stderr, "%s: reference outputs failed: %s\n", name.c_str(),
                 ref.ToString().c_str());
    return false;
  }
  run->reference_s = Seconds(t_ref, Clock::now());

  Clock::time_point start = Clock::now();
  Tracer tracer(start);
  Order order(seed, wl->pool_size());
  // Whole rounds only, so every run weighs each item of the pool equally.
  for (long op = 0;
       !order.round_complete() || Seconds(start, Clock::now()) < seconds;
       ++op) {
    size_t item = order.Next();
    // Alternate whole rounds, so both halves see every item equally often.
    bool traced = trace && order.round() % 2 == 0;
    OpResult r = wl->Run(item, {&tracer, traced, op, /*check=*/true});
    if (!r.ok) {
      std::fprintf(stderr, "%s: operation %ld (item %zu) failed: %s\n",
                   name.c_str(), op, item, r.error.c_str());
    }
    run->ops.push_back({op, item, order.round(), traced, std::move(r)});
  }
  run->timed_s = Seconds(start, Clock::now());
  run->peak_rss_kb = PeakRssKb();
  run->spans = tracer.spans();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: scx_bench --workload paper_exec|large_script|"
               "batch_merged|all --seed N --seconds S --trace 0|1 "
               "--out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || out_path.empty() || seconds <= 0) {
    return Usage();
  }

  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set\n", var);
      return 2;
    }
  }
  if (!BuildIsOptimized() || BuildIsSanitized()) {
    std::fprintf(stderr,
                 "refusing to run: build must be optimized and unsanitized\n");
    return 2;
  }

  std::vector<std::string> names = {workload};
  if (workload == "all") names = {"paper_exec", "large_script", "batch_merged"};
  OptimizerConfig config;
  const int nproc = OnlineCpus();
  const int threads = std::min(nproc, 4);
  config.num_threads = threads;
  config.cluster.exec_threads = threads;
  for (const std::string& name : names) {
    if (MakeWorkload(name, config) == nullptr) return Usage();
  }

  std::vector<RunRecord> runs(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    if (!RunWorkload(names[i], seed, seconds, trace, config, &runs[i])) {
      return 1;
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\"env\": {\"nproc\": %d, \"threads\": %d, "
               "\"build_type\": %s, \"compiler\": %s},\n"
               "\"seed\": %llu, \"seconds\": %s, \"trace\": %d,\n\"runs\": [",
               nproc, threads, JsonString(SCX_BENCH_BUILD_TYPE).c_str(),
               JsonString(SCX_BENCH_COMPILER).c_str(),
               static_cast<unsigned long long>(seed), Num(seconds).c_str(),
               trace ? 1 : 0);
  bool all_ok = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i) std::fprintf(f, ",\n");
    WriteRun(f, runs[i]);
    for (const OpRecord& o : runs[i].ops) all_ok = all_ok && o.result.ok;
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return all_ok ? 0 : 1;
}
