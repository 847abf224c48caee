// perfbench_tool — the in-process half of the benchmark (perfbench/run.py
// is the other half: it builds this binary next to tirm_server, starts the
// servers, drives the load, and computes the reported metrics).
//
//   perfbench_tool cold      --dataset=D --scale=S --data_seed=N
//                            --bundle=<out.tirm> --seconds=T [config]
//   perfbench_tool reference --bundle=<in.tirm> --requests=<file> [config]
//   perfbench_tool layers    --dataset=D --scale=S --data_seed=N
//                            --bundle=<in.tirm> --requests=<file>
//                            --sample_threads=N --sample_sets=N
//                            --spans=<out.json> [config]
//   perfbench_tool shard     --bundle=<in.tirm> --ports=p0,p1,...
//                            --requests=<file> [config]
//
// [config] is the allocator baseline every request starts from: --eps,
// --theta_cap, --threads (any AllocatorConfig flag) plus --eval_sims and
// --seed (engine options, required). The request files hold the same NDJSON
// lines the workload sends to tirm_server. Every flag shown is required:
// run.py is the one place their values are chosen. Every subcommand prints
// one JSON object on stdout; exit 1 on a usage or input error.
//
// The tool times public entry points only (datasets, io, rrset, alloc,
// diffusion, api, serve::protocol, serve::RemoteShardClient); it adds no
// instrumentation to the library. Its spans (name, start, end, parent) are
// kept in memory and written by `layers` for run.py to fold into the
// traced report.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/regret_evaluator.h"
#include "api/ad_alloc_engine.h"
#include "api/allocator_registry.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/memory_info.h"
#include "common/rng.h"
#include "common/threading.h"
#include "datasets/dataset.h"
#include "io/bundle_reader.h"
#include "io/bundle_writer.h"
#include "io/mapped_file.h"
#include "rrset/parallel_rr_builder.h"
#include "rrset/sample_store.h"
#include "serve/protocol.h"
#include "serve/shard_remote.h"

namespace {

using namespace tirm;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  return 1;
}

int Fail(const Status& status) { return Fail(status.ToString()); }

// Required flags: no second copy of run.py's values lives here.
Result<std::string> RequiredString(const Flags& flags, const std::string& key) {
  if (!flags.Has(key)) return Status::InvalidArgument("missing --" + key);
  return flags.GetString(key, "");
}

Result<std::int64_t> RequiredInt(const Flags& flags, const std::string& key) {
  if (!flags.Has(key)) return Status::InvalidArgument("missing --" + key);
  return flags.GetIntStrict(key, 0);
}

Result<double> RequiredDouble(const Flags& flags, const std::string& key) {
  if (!flags.Has(key)) return Status::InvalidArgument("missing --" + key);
  return flags.GetDoubleStrict(key, 0.0);
}

/// Machine-wide CPU jiffies from /proc/stat: all of them, and those the
/// hypervisor gave to other guests (steal), the timing noise floor on a
/// shared host. Zeros where /proc/stat is unreadable.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) return {};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealFraction(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

// ---- Spans: the benchmark's own flight recorder (name, start, end,
// parent), kept in memory and dumped once.

class Spans {
 public:
  int Begin(const std::string& name) {
    spans_.push_back({name, Now(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double End(int id) {
    spans_[static_cast<std::size_t>(id)].end = Now();
    open_.pop_back();
    const auto& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  /// Duration minus the durations of direct children, summed by name.
  std::map<std::string, double> SelfSeconds() const {
    std::map<std::string, double> self;
    for (const Span& s : spans_) self[s.name] += s.end - s.start;
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[spans_[static_cast<std::size_t>(s.parent)].name] -=
            s.end - s.start;
      }
    }
    return self;
  }
  void Write(JsonWriter& w) const {
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject();
      w.Field("name", s.name);
      w.Field("start", s.start);
      w.Field("end", s.end);
      w.Field("parent", s.parent);
      w.EndObject();
    }
    w.EndArray();
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; Seconds() is valid after the scope closes via Stop().
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const std::string& name)
      : spans_(spans), id_(spans->Begin(name)) {}
  ~ScopedSpan() { Stop(); }
  double Stop() {
    if (!stopped_) seconds_ = spans_->End(id_);
    stopped_ = true;
    return seconds_;
  }

 private:
  Spans* spans_;
  int id_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

// ---- Shared plumbing.

struct Setup {
  serve::AllocationRequest defaults;  ///< request baseline (server flags)
  EngineOptions engine;
};

Result<Setup> ParseSetup(const Flags& flags) {
  Setup setup;
  Result<AllocatorConfig> config = AllocatorConfig::FromFlags(flags);
  if (!config.ok()) return config.status();
  setup.defaults.config = *config;
  Result<std::int64_t> sims = RequiredInt(flags, "eval_sims");
  if (!sims.ok()) return sims.status();
  Result<std::int64_t> seed = RequiredInt(flags, "seed");
  if (!seed.ok()) return seed.status();
  setup.engine.eval_sims = static_cast<std::size_t>(*sims);
  setup.engine.seed = static_cast<std::uint64_t>(*seed);
  return setup;
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

Result<std::vector<serve::AllocationRequest>> ReadRequests(
    const std::string& path, const serve::AllocationRequest& defaults,
    std::vector<std::string>* raw_lines = nullptr) {
  Result<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.ok()) return lines.status();
  std::vector<serve::AllocationRequest> requests;
  for (const std::string& line : *lines) {
    Result<serve::AllocationRequest> r = serve::ParseRequest(line, defaults);
    if (!r.ok()) return r.status();
    requests.push_back(r.MoveValue());
  }
  if (raw_lines != nullptr) *raw_lines = lines.MoveValue();
  return requests;
}

void WriteSeeds(JsonWriter& w, const Allocation& allocation) {
  w.BeginArray();
  for (const auto& seeds : allocation.seeds) {
    w.BeginArray();
    for (const NodeId v : seeds) w.Uint(v);
    w.EndArray();
  }
  w.EndArray();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::size_t SumExpansions(const AllocationResult& result) {
  std::size_t total = 0;
  for (const AdAllocStats& s : result.ad_stats) total += s.expansions;
  return total;
}

// The dense coverage transpose is slated for deletion (ROADMAP); these
// probes keep the benchmark building before and after, reporting 0 once
// the pool no longer has one.
template <typename Pool>
void EnsureTransposeIfAny(const Pool& pool, std::uint32_t up_to) {
  if constexpr (requires { pool.EnsureTranspose(up_to); }) {
    pool.EnsureTranspose(up_to);
  }
}

template <typename Pool>
std::size_t TransposeBytesIfAny(const Pool& pool) {
  if constexpr (requires { pool.TransposeBytes(); }) {
    return pool.TransposeBytes();
  } else {
    return 0;
  }
}

/// Exact, machine-independent counts of one run (two runs of the same code
/// agree on them bit for bit).
void WriteRunCounters(JsonWriter& w, const AllocationResult& result) {
  w.Field("rrset.sets", result.total_rr_sets);
  w.Field("rrset.max_traversal", result.cache.max_traversal);
  w.Field("alloc.rounds", static_cast<std::uint64_t>(result.iterations));
  w.Field("alloc.seeds",
          static_cast<std::uint64_t>(result.allocation.TotalSeeds()));
  w.Field("alloc.expansions",
          static_cast<std::uint64_t>(SumExpansions(result)));
}

/// The instance a subcommand builds: --dataset, --scale and --data_seed.
struct DatasetFlags {
  std::string dataset;
  double scale = 0.0;
  std::uint64_t seed = 0;
};

Result<DatasetFlags> ParseDataset(const Flags& flags) {
  Result<std::string> dataset = RequiredString(flags, "dataset");
  if (!dataset.ok()) return dataset.status();
  Result<double> scale = RequiredDouble(flags, "scale");
  if (!scale.ok()) return scale.status();
  Result<std::int64_t> seed = RequiredInt(flags, "data_seed");
  if (!seed.ok()) return seed.status();
  return DatasetFlags{dataset.MoveValue(), *scale,
                      static_cast<std::uint64_t>(*seed)};
}

// ---- cold: repeated cold allocations, each on a fresh engine over one
// prebuilt (bundle-mapped) instance.

/// Instance builds in the set-up; the median is reported.
constexpr int kColdSetups = 3;

int RunCold(const Flags& flags) {
  Result<Setup> setup = ParseSetup(flags);
  if (!setup.ok()) return Fail(setup.status());
  Result<EngineQuery> query = EngineQuery::FromFlags(flags);
  if (!query.ok()) return Fail(query.status());
  Result<DatasetFlags> data = ParseDataset(flags);
  if (!data.ok()) return Fail(data.status());
  Result<double> seconds = RequiredDouble(flags, "seconds");
  if (!seconds.ok()) return Fail(seconds.status());
  Result<std::string> bundle = RequiredString(flags, "bundle");
  if (!bundle.ok()) return Fail(bundle.status());

  std::vector<double> setup_s;
  BuiltInstance built;
  for (int i = 0; i < kColdSetups; ++i) {
    const double t0 = Now();
    Rng rng(data->seed);
    Result<BuiltInstance> b = BuildNamedDataset(data->dataset, data->scale,
                                                rng);
    if (!b.ok()) return Fail(b.status());
    setup_s.push_back(Now() - t0);
    built = b.MoveValue();
  }
  if (Status s = WriteBundle(built, *bundle); !s.ok()) return Fail(s);
  built = BuiltInstance();
  Result<MappedFile> mapped = MappedFile::Open(*bundle);
  if (!mapped.ok()) return Fail(mapped.status());
  auto mapping = std::make_shared<const MappedFile>(mapped.MoveValue());
  if (Result<BuiltInstance> probe = LoadBundleInstance(mapping);
      !probe.ok()) {
    return Fail(probe.status());
  }

  const AllocatorConfig& config = setup->defaults.config;
  std::vector<double> op_ms;
  std::vector<double> op_steal;
  std::vector<double> regret_pct;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::optional<EngineRun> first;
  const double deadline = Now() + *seconds;
  do {
    Result<BuiltInstance> instance =
        LoadBundleInstance(mapping, {.verify = false});
    if (!instance.ok()) return Fail(instance.status());
    const CpuTimes cpu0 = ReadCpuTimes();
    const double t0 = Now();
    AdAllocEngine engine(instance.MoveValue(), setup->engine);
    Result<EngineRun> run = engine.Run(config, *query);
    const double t1 = Now();
    op_ms.push_back((t1 - t0) * 1e3);
    op_steal.push_back(StealFraction(cpu0, ReadCpuTimes()));
    if (!run.ok()) {
      std::fprintf(stderr, "perfbench_tool: cold op failed: %s\n",
                   run.status().ToString().c_str());
      ++failed;
      continue;
    }
    regret_pct.push_back(100.0 * run->report.RegretFractionOfBudget());
    if (!first.has_value()) {
      first = run.MoveValue();
    } else if (run->result.allocation.seeds !=
                   first->result.allocation.seeds ||
               run->report.total_regret != first->report.total_regret) {
      ++mismatched;  // repeated cold operations must be identical
    }
  } while (Now() < deadline);

  JsonWriter w;
  w.BeginObject();
  w.Key("setup_s");
  w.BeginArray();
  for (double s : setup_s) w.Double(s);
  w.EndArray();
  w.Key("op_ms");
  w.BeginArray();
  for (double ms : op_ms) w.Double(ms);
  w.EndArray();
  w.Key("op_steal");
  w.BeginArray();
  for (double s : op_steal) w.Double(s);
  w.EndArray();
  w.Key("regret_pct");
  w.BeginArray();
  for (double r : regret_pct) w.Double(r);
  w.EndArray();
  w.Field("attempted", static_cast<std::uint64_t>(op_ms.size()));
  w.Field("failed", failed + mismatched);
  w.Field("mismatched", mismatched);
  w.Field("peak_rss_bytes", PeakRssBytes());
  if (first.has_value()) {
    w.Key("counters");
    w.BeginObject();
    WriteRunCounters(w, first->result);
    w.EndObject();
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ---- reference: direct AdAllocEngine::Run of request lines (single-store,
// in-process) — the ground truth served and routed responses must equal.

int RunReference(const Flags& flags) {
  Result<Setup> setup = ParseSetup(flags);
  if (!setup.ok()) return Fail(setup.status());
  Result<BuiltInstance> built =
      LoadBundleInstance(flags.GetString("bundle", ""));
  if (!built.ok()) return Fail(built.status());
  Result<std::vector<serve::AllocationRequest>> requests =
      ReadRequests(flags.GetString("requests", ""), setup->defaults);
  if (!requests.ok()) return Fail(requests.status());
  AdAllocEngine engine(built.MoveValue(), setup->engine);
  JsonWriter w;
  w.BeginObject();
  w.Key("results");
  w.BeginArray();
  for (const serve::AllocationRequest& request : *requests) {
    Result<EngineRun> run = engine.Run(request.config, request.query);
    w.BeginObject();
    w.Field("id", request.id);
    w.Field("ok", run.ok());
    if (run.ok()) {
      w.Key("seeds");
      WriteSeeds(w, run->result.allocation);
      w.Field("total_regret", run->report.total_regret);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Field("peak_rss_bytes", PeakRssBytes());
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ---- layers: the traced decomposition of one operation into the public
// calls of each module.

int RunLayers(const Flags& flags) {
  Result<Setup> setup = ParseSetup(flags);
  if (!setup.ok()) return Fail(setup.status());
  Result<DatasetFlags> data = ParseDataset(flags);
  if (!data.ok()) return Fail(data.status());
  Result<std::string> bundle_flag = RequiredString(flags, "bundle");
  if (!bundle_flag.ok()) return Fail(bundle_flag.status());
  const std::string bundle = bundle_flag.MoveValue();
  Result<std::int64_t> threads_flag = RequiredInt(flags, "sample_threads");
  if (!threads_flag.ok()) return Fail(threads_flag.status());
  const int sample_threads = static_cast<int>(*threads_flag);
  Result<std::int64_t> sets_flag = RequiredInt(flags, "sample_sets");
  if (!sets_flag.ok()) return Fail(sets_flag.status());
  const std::uint64_t sample_sets = static_cast<std::uint64_t>(*sets_flag);
  Result<std::string> spans_out = RequiredString(flags, "spans");
  if (!spans_out.ok()) return Fail(spans_out.status());
  std::vector<std::string> lines;
  Result<std::vector<serve::AllocationRequest>> requests = ReadRequests(
      flags.GetString("requests", ""), setup->defaults, &lines);
  if (!requests.ok()) return Fail(requests.status());
  const serve::AllocationRequest* traced = nullptr;
  std::vector<const serve::AllocationRequest*> baselines;
  for (const serve::AllocationRequest& r : *requests) {
    if (r.config.allocator == "tirm") {
      if (traced == nullptr) traced = &r;
    } else {
      baselines.push_back(&r);
    }
  }
  if (traced == nullptr) return Fail("layers needs a tirm request line");

  Spans spans;
  const int root = spans.Begin("layers");
  JsonWriter m;  // metrics
  m.BeginObject();

  // datasets / io.
  {
    ScopedSpan span(&spans, "datasets.build");
    Rng rng(data->seed);
    Result<BuiltInstance> b = BuildNamedDataset(data->dataset, data->scale,
                                                rng);
    if (!b.ok()) return Fail(b.status());
    m.Field("datasets.build_s", span.Stop());
  }
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(&spans, "io.bundle.load");
    Rng rng(data->seed);
    Result<BuiltInstance> b = BuildNamedDataset("bundle:" + bundle, 1.0, rng);
    if (!b.ok()) return Fail(b.status());
    load_ms.push_back(span.Stop() * 1e3);
  }
  m.Field("io.bundle.load_ms", Median(load_ms));

  Result<BuiltInstance> built = LoadBundleInstance(bundle);
  if (!built.ok()) return Fail(built.status());

  // api: one cold engine run of the traced request, untraced inside.
  AdAllocEngine engine(built.MoveValue(), setup->engine);
  const EngineQuery& q = traced->query;
  double cold_s = 0.0;
  Result<EngineRun> cold = Status::Internal("not run");
  {
    ScopedSpan span(&spans, "api.engine_run.cold");
    cold = engine.Run(traced->config, q);
    cold_s = span.Stop();
  }
  if (!cold.ok()) return Fail(cold.status());
  const AllocationResult& cold_result = cold->result;

  // rrset: rebuild the same pools through the store's public calls.
  const ProblemInstance instance = engine.MakeInstance(q);
  const AllocatorConfig& config = traced->config;
  Result<SamplerKernel> kernel = ParseSamplerKernel(config.sampler_kernel);
  if (!kernel.ok()) return Fail(kernel.status());
  RrSampleStore store(&instance.graph(),
                      {.seed = engine.StoreSeed(),
                       .num_threads = ResolveThreadCount(config.num_threads),
                       .sampler_kernel = ResolveSamplerKernel(*kernel)});
  double kpt_s = 0.0, ensure_s = 0.0, transpose_s = 0.0;
  std::uint64_t pool_bytes = 0, transpose_bytes = 0, nodes = 0, sets = 0;
  for (AdId j = 0; j < instance.num_ads(); ++j) {
    RrSampleStore::AdPool* entry = store.Acquire(
        store.SignatureForAd(instance, j), instance.EdgeProbsForAd(j));
    {
      ScopedSpan span(&spans, "rrset.kpt.ensure");
      store.EnsureKpt(entry,
                      {.ell = config.ell, .max_samples = config.kpt_max_samples},
                      /*s=*/1);
      kpt_s += span.Stop();
    }
    const std::uint64_t theta =
        cold_result.ad_stats[static_cast<std::size_t>(j)].theta;
    {
      ScopedSpan span(&spans, "rrset.store.ensure");
      store.EnsureSets(entry, theta);
      ensure_s += span.Stop();
    }
    const RrSetPool& pool = entry->sets();
    {
      ScopedSpan span(&spans, "rrset.transpose.build");
      EnsureTransposeIfAny(pool, static_cast<std::uint32_t>(theta));
      transpose_s += span.Stop();
    }
    pool_bytes += pool.MemoryBytes() - TransposeBytesIfAny(pool);
    transpose_bytes += TransposeBytesIfAny(pool);
    for (std::uint64_t k = 0; k < theta; ++k) {
      nodes += pool.SetMembers(static_cast<std::uint32_t>(k)).size();
    }
    sets += theta;
  }
  m.Field("rrset.kpt.ensure_s", kpt_s);
  m.Field("rrset.store.ensure_s", ensure_s);
  m.Field("rrset.transpose.build_s", transpose_s);
  m.Field("rrset.pool_bytes", pool_bytes);
  m.Field("rrset.transpose_bytes", transpose_bytes);
  m.Field("rrset.nodes_per_set",
          sets > 0 ? static_cast<double>(nodes) / static_cast<double>(sets)
                   : 0.0);

  // alloc: selection on the pre-warmed store, evaluation off.
  std::uint64_t gate_failures = 0;
  AllocationResult selected;
  {
    AllocatorConfig warm = config;
    warm.sample_store = &store;
    warm.sample_store_seed = engine.StoreSeed();
    Result<std::unique_ptr<Allocator>> allocator =
        AllocatorRegistry::Global().Create(warm);
    if (!allocator.ok()) return Fail(allocator.status());
    Rng rng(engine.AlgoSeed("tirm", q));
    ScopedSpan span(&spans, "alloc.select");
    selected = allocator.value()->Allocate(instance, rng);
    m.Field("alloc.select_s", span.Stop());
  }
  m.Field("alloc.select.sampled_sets", selected.cache.sampled_sets);
  if (selected.cache.sampled_sets != 0 ||
      selected.allocation.seeds != cold_result.allocation.seeds) {
    ++gate_failures;  // warm selection must reproduce the cold allocation
  }
  m.Field("alloc.view_bytes",
          static_cast<std::uint64_t>(selected.cache.view_bytes));

  // alloc / diffusion: MC regret evaluation of the same allocation.
  {
    RegretEvaluator evaluator(&instance,
                              {.num_sims = setup->engine.eval_sims});
    Rng rng(engine.EvalSeed(q));
    ScopedSpan span(&spans, "alloc.regret_eval");
    const RegretReport report = evaluator.Evaluate(selected.allocation, rng);
    const double s = span.Stop();
    m.Field("alloc.regret_eval_s", s);
    m.Field("diffusion.mc.sims_per_s",
            static_cast<double>(setup->engine.eval_sims) *
                static_cast<double>(instance.num_ads()) / s);
    if (report.total_regret != cold->report.total_regret) ++gate_failures;
  }

  // alloc: the baseline minority of the mix.
  {
    double baseline_s = 0.0;
    for (const serve::AllocationRequest* r : baselines) {
      Result<std::unique_ptr<Allocator>> allocator =
          AllocatorRegistry::Global().Create(r->config);
      if (!allocator.ok()) return Fail(allocator.status());
      const ProblemInstance view = engine.MakeInstance(r->query);
      Rng rng(engine.AlgoSeed(r->config.allocator, r->query));
      ScopedSpan span(&spans, "alloc.baseline");
      const AllocationResult result = allocator.value()->Allocate(view, rng);
      baseline_s += span.Stop();
      if (!ValidateAllocation(view, result.allocation).ok()) ++gate_failures;
    }
    m.Field("alloc.baseline_s", baseline_s);
  }

  // rrset: raw sampling throughput at 1 and N threads, then the index build
  // of the N-thread chunks.
  {
    const std::span<const float> probs = instance.EdgeProbsForAd(0);
    double t1 = 0.0, tn = 0.0;
    std::vector<ParallelRrBuilder::Batch> parts;
    {
      ParallelRrBuilder builder(instance.graph(), probs, {.num_threads = 1});
      Rng rng(engine.StoreSeed());
      ScopedSpan span(&spans, "rrset.sample.t1");
      parts = builder.SampleChunks(sample_sets, rng);
      t1 = span.Stop();
    }
    {
      ParallelRrBuilder builder(instance.graph(), probs,
                                {.num_threads = sample_threads});
      Rng rng(engine.StoreSeed());
      ScopedSpan span(&spans, "rrset.sample.tN");
      parts = builder.SampleChunks(sample_sets, rng);
      tn = span.Stop();
    }
    const double n = static_cast<double>(sample_sets);
    m.Field("rrset.sample.sets_per_s.t1", n / t1);
    m.Field("rrset.sample.sets_per_s.tN", n / tn);
    m.Field("rrset.sample.efficiency", t1 / (tn * sample_threads));
    m.Field("rrset.sample.threads", sample_threads);
    RrSetPool pool(instance.graph().num_nodes());
    ScopedSpan span(&spans, "rrset.index.build");
    for (ParallelRrBuilder::Batch& part : parts) {
      pool.AdoptChunk(std::move(part.nodes), part.offsets);
    }
    m.Field("rrset.index.build_s", span.Stop());
  }

  // serve.protocol: the workload's own request lines, and the responses
  // the traced run produced.
  {
    constexpr int kReps = 200;
    ScopedSpan span(&spans, "serve.protocol.parse");
    for (int i = 0; i < kReps; ++i) {
      for (const std::string& line : lines) {
        Result<serve::AllocationRequest> r =
            serve::ParseRequest(line, setup->defaults);
        if (!r.ok()) ++gate_failures;
      }
    }
    m.Field("serve.protocol.parse_us",
            span.Stop() * 1e6 / (kReps * static_cast<double>(lines.size())));
  }
  {
    serve::AllocationResponse response;
    response.id = traced->id;
    response.run = *cold;
    response.worker = 0;
    constexpr int kReps = 200;
    std::size_t bytes = 0;
    ScopedSpan span(&spans, "serve.protocol.format");
    for (int i = 0; i < kReps; ++i) {
      bytes += serve::FormatResponse(response).size();
    }
    m.Field("serve.protocol.format_us", span.Stop() * 1e6 / kReps);
    m.Field("serve.protocol.response_bytes",
            static_cast<std::uint64_t>(bytes / kReps));
  }

  // api: what no layer above accounts for in the cold run.
  const std::map<std::string, double> self = spans.SelfSeconds();
  const auto self_of = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double covered = self_of("rrset.kpt.ensure") +
                         self_of("rrset.store.ensure") +
                         self_of("rrset.transpose.build") +
                         self_of("alloc.select") +
                         self_of("alloc.regret_eval");
  m.Field("api.cold_run_s", cold_s);
  m.Field("api.unattributed_s", cold_s - covered);
  m.Field("trace.layer_sum_frac", covered / cold_s);
  m.Key("counters");
  m.BeginObject();
  WriteRunCounters(m, cold_result);
  m.EndObject();
  m.Field("gate_failures", gate_failures);
  m.Field("peak_rss_bytes", PeakRssBytes());
  spans.End(root);
  m.Key("self_s");
  m.BeginObject();
  for (const auto& [name, seconds] : spans.SelfSeconds()) {
    m.Field(name, seconds);
  }
  m.EndObject();
  m.EndObject();

  {
    JsonWriter sw;
    spans.Write(sw);
    std::ofstream file(*spans_out);
    file << sw.str() << '\n';
    if (!file) return Fail("cannot write " + *spans_out);
  }
  std::printf("%s\n", m.str().c_str());
  return 0;
}

// ---- shard: the benchmark as coordinator over remote shard workers, with
// a counting and timing transport on every wire.

class CountingTransport final : public serve::LineTransport {
 public:
  struct Call {
    std::string op;
    double start;
    double end;
    std::size_t bytes;
  };
  explicit CountingTransport(std::unique_ptr<serve::LineTransport> inner)
      : inner_(std::move(inner)) {}
  Result<std::string> RoundTrip(const std::string& line) override {
    const double t0 = Now();
    Result<std::string> response = inner_->RoundTrip(line);
    const double t1 = Now();
    const std::size_t bytes =
        line.size() + 1 + (response.ok() ? response->size() + 1 : 0);
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back({OpOf(line), t0, t1, bytes});
    return response;
  }
  std::vector<Call> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(calls_, {});
  }

 private:
  static std::string OpOf(const std::string& line) {
    const std::string key = "\"op\":\"";
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return "?";
    const std::size_t from = at + key.size();
    return line.substr(from, line.find('"', from) - from);
  }
  std::unique_ptr<serve::LineTransport> inner_;
  std::mutex mutex_;
  std::vector<Call> calls_;
};

int RunShard(const Flags& flags) {
  Result<Setup> setup = ParseSetup(flags);
  if (!setup.ok()) return Fail(setup.status());
  std::vector<int> ports;
  {
    const std::string list = flags.GetString("ports", "");
    std::size_t start = 0;
    while (start < list.size()) {
      std::size_t comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      ports.push_back(std::stoi(list.substr(start, comma - start)));
      start = comma + 1;
    }
  }
  if (ports.empty()) return Fail("shard needs --ports=p0,p1,...");
  const int k = static_cast<int>(ports.size());
  std::vector<CountingTransport*> wires;
  std::vector<std::unique_ptr<serve::RemoteShardClient>> clients;
  for (int i = 0; i < k; ++i) {
    Result<std::unique_ptr<serve::TcpLineTransport>> tcp =
        serve::TcpLineTransport::Connect("127.0.0.1",
                                         ports[static_cast<std::size_t>(i)]);
    if (!tcp.ok()) return Fail(tcp.status());
    auto counting = std::make_unique<CountingTransport>(tcp.MoveValue());
    wires.push_back(counting.get());
    clients.push_back(std::make_unique<serve::RemoteShardClient>(
        std::move(counting), i, k));
  }
  Result<BuiltInstance> built =
      LoadBundleInstance(flags.GetString("bundle", ""));
  if (!built.ok()) return Fail(built.status());
  EngineOptions engine_options = setup->engine;
  engine_options.evaluate = false;
  AdAllocEngine engine(built.MoveValue(), engine_options);
  serve::AllocationRequest defaults = setup->defaults;
  defaults.config.num_shards = k;
  for (auto& c : clients) defaults.config.shard_clients.push_back(c.get());
  Result<std::vector<serve::AllocationRequest>> requests =
      ReadRequests(flags.GetString("requests", ""), defaults);
  if (!requests.ok()) return Fail(requests.status());

  JsonWriter w;
  w.BeginObject();
  w.Key("ops");
  w.BeginArray();
  for (const serve::AllocationRequest& request : *requests) {
    const double t0 = Now();
    Result<EngineRun> run = engine.Run(request.config, request.query);
    const double t1 = Now();
    // Per-op wire figures: round trips, bytes, per-call RTTs, the union of
    // in-flight time across shards, and per-shard time spent in `ensure`.
    std::uint64_t round_trips = 0, bytes = 0;
    std::vector<double> rtt_us;
    std::vector<std::pair<double, double>> intervals;
    std::vector<double> ensure_s(static_cast<std::size_t>(k), 0.0);
    for (int i = 0; i < k; ++i) {
      for (const CountingTransport::Call& c :
           wires[static_cast<std::size_t>(i)]->Take()) {
        ++round_trips;
        bytes += c.bytes;
        rtt_us.push_back((c.end - c.start) * 1e6);
        intervals.emplace_back(c.start, c.end);
        if (c.op == "ensure") {
          ensure_s[static_cast<std::size_t>(i)] += c.end - c.start;
        }
      }
    }
    std::sort(intervals.begin(), intervals.end());
    double waited = 0.0, cover_end = -1.0;
    for (const auto& [a, b] : intervals) {
      const double from = std::max(a, cover_end);
      if (b > from) waited += b - from;
      cover_end = std::max(cover_end, b);
    }
    w.BeginObject();
    w.Field("id", request.id);
    w.Field("ok", run.ok());
    w.Field("op_ms", (t1 - t0) * 1e3);
    w.Field("round_trips", round_trips);
    w.Field("bytes", bytes);
    w.Field("rtt_us_p50", Median(rtt_us));
    w.Field("wait_frac", waited / (t1 - t0));
    w.Key("ensure_s");
    w.BeginArray();
    for (double s : ensure_s) w.Double(s);
    w.EndArray();
    if (run.ok()) {
      w.Key("seeds");
      WriteSeeds(w, run->result.allocation);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Field("peak_rss_bytes", PeakRssBytes());
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: perfbench_tool <cold|reference|layers|shard> "
                "[--flags]");
  }
  const std::string command = argv[1];
  Flags flags;
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) return Fail(s);
  if (command == "cold") return RunCold(flags);
  if (command == "reference") return RunReference(flags);
  if (command == "layers") return RunLayers(flags);
  if (command == "shard") return RunShard(flags);
  return Fail("unknown subcommand \"" + command + "\"");
}
