// RrSampleStore: pooled-sample reuse. Covers the pool/view split
// (RrSetPool + borrowing RrCollection/WeightedRrCollection), chunked
// top-up determinism (θ grown in one step vs several), concurrency of
// EnsureSets/Acquire (run under TSan in CI), golden equivalence of
// pooled-store vs fresh-sampling runs for all five allocators, and
// engine-level sweep reuse (samples drawn at most once per (ad, max-θ)).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "alloc/tirm.h"
#include "api/ad_alloc_engine.h"
#include "api/allocator_registry.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "datasets/dataset.h"
#include "graph/generators.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_store.h"
#include "rrset/weighted_rr_collection.h"
#include "topic/instance.h"

namespace tirm {
namespace {

constexpr std::uint64_t kSeed = 2015;

std::vector<float> ConstantProbs(const Graph& g, float p) {
  return std::vector<float>(g.num_edges(), p);
}

std::vector<std::vector<NodeId>> Materialize(const RrSetPool& pool,
                                             std::size_t count) {
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(count);
  for (std::uint32_t id = 0; id < count; ++id) {
    const auto members = pool.SetMembers(id);
    sets.emplace_back(members.begin(), members.end());
  }
  return sets;
}

// ------------------------------------------------------------------ pool

TEST(RrSetPoolTest, MembersAndPostings) {
  RrSetPool pool(4);
  EXPECT_EQ(pool.AddSet(std::vector<NodeId>{0, 1}), 0u);
  EXPECT_EQ(pool.AddSet(std::vector<NodeId>{1, 2}), 1u);
  EXPECT_EQ(pool.NumSets(), 2u);
  EXPECT_EQ(pool.SetMembers(0).size(), 2u);
  ASSERT_EQ(pool.Postings(1).size(), 2u);
  EXPECT_EQ(pool.Postings(1)[0], 0u);  // ascending ids
  EXPECT_EQ(pool.Postings(1)[1], 1u);
  EXPECT_TRUE(pool.Postings(3).empty());
  EXPECT_GT(pool.MemoryBytes(), 0u);
}

// Two views over one pool: independent coverage, one physical copy.
TEST(RrSetPoolTest, ViewsShareSetsButNotCoverage) {
  RrSetPool pool(3);
  pool.AddSet(std::vector<NodeId>{0, 1});
  pool.AddSet(std::vector<NodeId>{0, 2});
  RrCollection a(&pool);
  RrCollection b(&pool);
  a.AttachUpTo(2);
  b.AttachUpTo(2);
  EXPECT_EQ(a.CommitSeed(0), 2u);
  EXPECT_EQ(a.CoverageOf(1), 0u);
  // b is untouched by a's commit.
  EXPECT_EQ(b.CoverageOf(0), 2u);
  EXPECT_EQ(b.CommitSeed(0), 2u);
}

// A view only sees its attached prefix, even when the pool is larger.
TEST(RrSetPoolTest, AttachWatermarkLimitsView) {
  RrSetPool pool(2);
  pool.AddSet(std::vector<NodeId>{0});
  pool.AddSet(std::vector<NodeId>{0});
  pool.AddSet(std::vector<NodeId>{1});
  RrCollection view(&pool);
  view.AttachUpTo(2);
  EXPECT_EQ(view.NumSets(), 2u);
  EXPECT_EQ(view.CoverageOf(0), 2u);
  EXPECT_EQ(view.CoverageOf(1), 0u);  // set 2 not attached
  EXPECT_EQ(view.CommitSeed(0), 2u);
  view.AttachUpTo(3);
  EXPECT_EQ(view.CoverageOf(1), 1u);
  // Weighted view over the same pool.
  WeightedRrCollection weighted(&pool);
  weighted.AttachUpTo(3);
  EXPECT_DOUBLE_EQ(weighted.CoverageOf(0), 2.0);
}

// ------------------------------------------------------------ store top-up

class SampleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng grng(7);
    graph_ = ErdosRenyiGraph(60, 300, grng);
    probs_ = ConstantProbs(graph_, 0.2f);
  }

  Graph graph_;
  std::vector<float> probs_;
};

TEST_F(SampleStoreTest, EnsureSetsRoundsUpToChunks) {
  RrSampleStore store(&graph_, {.seed = 11, .chunk_sets = 256});
  RrSampleStore::AdPool* entry = store.Acquire(1, probs_);
  const auto r = store.EnsureSets(entry, 300);
  EXPECT_EQ(r.had_before, 0u);
  EXPECT_EQ(r.sampled, 512u);  // 2 chunks
  EXPECT_EQ(entry->sets().NumSets(), 512u);
  // Second call inside the pooled size: pure reuse, nothing sampled.
  const auto r2 = store.EnsureSets(entry, 400);
  EXPECT_EQ(r2.had_before, 512u);
  EXPECT_EQ(r2.sampled, 0u);
  const SampleCacheStats stats = store.LifetimeStats();
  EXPECT_EQ(stats.sampled_sets, 512u);
  EXPECT_EQ(stats.reused_sets, 400u);
  EXPECT_EQ(stats.top_ups, 1u);
  EXPECT_GT(stats.arena_bytes, 0u);
  EXPECT_EQ(store.NumEntries(), 1u);
}

// Growing to θ in one step or in several yields bit-identical pools — the
// property that lets a warm pool serve a run that would have sampled in a
// different batch pattern.
TEST_F(SampleStoreTest, TopUpDeterminismOneStepVsSeveral) {
  RrSampleStore one(&graph_, {.seed = 42, .chunk_sets = 128});
  RrSampleStore many(&graph_, {.seed = 42, .chunk_sets = 128});
  RrSampleStore::AdPool* a = one.Acquire(9, probs_);
  RrSampleStore::AdPool* b = many.Acquire(9, probs_);
  one.EnsureSets(a, 1000);
  many.EnsureSets(b, 100);
  many.EnsureSets(b, 500);
  many.EnsureSets(b, 130);  // no-op
  many.EnsureSets(b, 1000);
  ASSERT_EQ(a->sets().NumSets(), b->sets().NumSets());
  EXPECT_EQ(Materialize(a->sets(), a->sets().NumSets()),
            Materialize(b->sets(), b->sets().NumSets()));
}

TEST_F(SampleStoreTest, DifferentSignaturesGetIndependentPools) {
  RrSampleStore store(&graph_, {.seed = 42, .chunk_sets = 128});
  RrSampleStore::AdPool* a = store.Acquire(1, probs_);
  RrSampleStore::AdPool* b = store.Acquire(2, probs_);
  EXPECT_NE(a, b);
  EXPECT_EQ(store.Acquire(1, probs_), a);  // same key -> same entry
  store.EnsureSets(a, 128);
  store.EnsureSets(b, 128);
  EXPECT_NE(Materialize(a->sets(), 128), Materialize(b->sets(), 128));
}

// Signature keying: ads are independent by default (paper per-ad R_j);
// share_across_ads collapses identically-distributed ads onto one pool.
TEST_F(SampleStoreTest, SignatureKeyingRespectsShareAcrossAds) {
  auto probs = std::make_unique<EdgeProbabilities>(
      EdgeProbabilities::WeightedCascade(graph_));  // kShared mode
  auto ctps = std::make_unique<ClickProbabilities>(
      ClickProbabilities::Constant(graph_.num_nodes(), 2, 1.0));
  std::vector<Advertiser> ads(2);
  for (auto& a : ads) {
    a.gamma = TopicDistribution::Uniform(1);
    a.budget = 5.0;
  }
  const ProblemInstance inst = ProblemInstance::WithUniformAttention(
      &graph_, probs.get(), ctps.get(), ads, 1, 0.0);

  RrSampleStore independent(&graph_, {.seed = 1});
  EXPECT_NE(independent.SignatureForAd(inst, 0),
            independent.SignatureForAd(inst, 1));

  RrSampleStore shared(&graph_, {.seed = 1, .share_across_ads = true});
  const std::uint64_t sig0 = shared.SignatureForAd(inst, 0);
  EXPECT_EQ(sig0, shared.SignatureForAd(inst, 1));
  // Both ads resolve to one physical pool (kShared mode: same prob array).
  RrSampleStore::AdPool* a = shared.Acquire(sig0, inst.EdgeProbsForAd(0));
  RrSampleStore::AdPool* b = shared.Acquire(sig0, inst.EdgeProbsForAd(1));
  EXPECT_EQ(a, b);
  EXPECT_EQ(shared.NumEntries(), 1u);
}

TEST_F(SampleStoreTest, KptCacheHitsOnRepeat) {
  RrSampleStore store(&graph_, {.seed = 5});
  RrSampleStore::AdPool* entry = store.Acquire(1, probs_);
  const KptEstimator::Options options{.ell = 1.0, .max_samples = 1 << 12};
  bool hit = true;
  const KptEstimator& first = store.EnsureKpt(entry, options, 1, &hit);
  EXPECT_FALSE(hit);
  const double kpt1 = first.ReEstimate(1);
  const KptEstimator& second = store.EnsureKpt(entry, options, 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_DOUBLE_EQ(second.ReEstimate(1), kpt1);
  // Different options invalidate the cache.
  store.EnsureKpt(entry, {.ell = 2.0, .max_samples = 1 << 12}, 1, &hit);
  EXPECT_FALSE(hit);
  const SampleCacheStats stats = store.LifetimeStats();
  EXPECT_EQ(stats.kpt_estimations, 3u);
  EXPECT_EQ(stats.kpt_cache_hits, 1u);
}

// Concurrent top-ups — same entry and different entries — must be safe
// (run under ThreadSanitizer in CI) and leave the same pools as a serial
// reference store. The store samples with 4 threads and chunks above
// min_parallel_batch, so every top-up's own fan-out nests inside the
// racing callers.
TEST_F(SampleStoreTest, ConcurrentEnsureSetsIsSafeAndDeterministic) {
  constexpr std::uint64_t kChunk = 512;
  const RrSampleStore::Options options{
      .seed = 99, .num_threads = 4, .chunk_sets = kChunk};
  RrSampleStore store(&graph_, options);
  RrSampleStore::AdPool* shared = store.Acquire(77, probs_);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, shared, t, this] {
      // Same entry, racing targets...
      store.EnsureSets(shared, kChunk * (t + 1));
      // ...plus a per-thread entry created under the store lock.
      RrSampleStore::AdPool* own =
          store.Acquire(1000 + static_cast<std::uint64_t>(t), probs_);
      store.EnsureSets(own, 2 * kChunk);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared->sets().NumSets(), kChunk * 8);
  EXPECT_EQ(store.NumEntries(), 9u);

  RrSampleStore reference(&graph_, options);
  RrSampleStore::AdPool* ref = reference.Acquire(77, probs_);
  reference.EnsureSets(ref, kChunk * 8);
  EXPECT_EQ(Materialize(shared->sets(), shared->sets().NumSets()),
            Materialize(ref->sets(), ref->sets().NumSets()));
}

// FNV hash over a pool's bytes: every set's members in id order, then
// every node's postings.
std::uint64_t PoolHash(const RrSetPool& pool) {
  std::uint64_t h = kFnvOffsetBasis;
  const auto add = [&h](std::span<const std::uint32_t> values) {
    const std::uint64_t size = values.size();
    h = HashBytes(h, &size, sizeof(size));
    h = HashBytes(h, values.data(), values.size_bytes());
  };
  for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
    add(pool.SetMembers(id));
  }
  for (NodeId v = 0; v < pool.num_nodes(); ++v) add(pool.Postings(v));
  return FinalizeHash(h);
}

// Golden pool bytes at the default chunk size, grown over several chunks
// and several EnsureSets calls. The other determinism tests compare the
// sampler against itself; these hashes were recorded once, so a change to
// any sampling stream, quota, set id or posting fails here.
TEST_F(SampleStoreTest, GoldenPoolBytesAtOneAndFourThreads) {
  for (const auto& [threads, golden] :
       {std::pair<int, std::uint64_t>{1, 0x4091ead05a2e4906ULL},
        std::pair<int, std::uint64_t>{4, 0x1945e93aaf82f9c4ULL}}) {
    RrSampleStore store(&graph_, {.seed = 2015, .num_threads = threads});
    RrSampleStore::AdPool* entry = store.Acquire(3, probs_);
    store.EnsureSets(entry, 1);             // chunk 0
    store.EnsureSets(entry, 2 * 4096 + 1);  // chunks 1-2
    store.EnsureSets(entry, 5 * 4096);      // chunks 3-4
    ASSERT_EQ(entry->sets().NumSets(), 5u * 4096);
    EXPECT_EQ(PoolHash(entry->sets()), golden)
        << "threads=" << threads << " hash=0x" << std::hex
        << PoolHash(entry->sets());
  }
}

// --------------------------------------------- golden: pooled == fresh

AllocatorConfig SmallConfig(const std::string& name) {
  AllocatorConfig config;
  config.allocator = name;
  config.eps = 0.25;
  config.theta_cap = 1 << 15;
  config.mc_sims = 50;
  return config;
}

// The engine with reuse disabled resamples per query through private
// stores seeded like the shared one — allocations must be bit-identical
// for every registered allocator, on every sweep point.
TEST(SampleReuseGoldenTest, PooledMatchesFreshForAllFiveAllocators) {
  AdAllocEngine pooled(BuildFigure1Instance(),
                       {.eval_sims = 200, .seed = kSeed,
                        .reuse_samples = true});
  AdAllocEngine fresh(BuildFigure1Instance(),
                      {.eval_sims = 200, .seed = kSeed,
                       .reuse_samples = false});
  for (const char* name :
       {"tirm", "greedy-mc", "greedy-irie", "myopic", "myopic+"}) {
    for (const double lambda : {0.0, 0.5}) {
      Result<EngineRun> a = pooled.Run(SmallConfig(name), {.lambda = lambda});
      Result<EngineRun> b = fresh.Run(SmallConfig(name), {.lambda = lambda});
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->result.allocation.seeds, b->result.allocation.seeds)
          << name << " lambda=" << lambda;
      EXPECT_EQ(a->result.estimated_revenue, b->result.estimated_revenue)
          << name << " lambda=" << lambda;
      EXPECT_DOUBLE_EQ(a->report.total_regret, b->report.total_regret)
          << name << " lambda=" << lambda;
    }
  }
  // Only the pooled engine kept a store, and only sampling allocators
  // touched it.
  ASSERT_NE(pooled.sample_store(), nullptr);
  EXPECT_EQ(fresh.sample_store(), nullptr);
  EXPECT_GT(pooled.sample_store()->LifetimeStats().reused_sets, 0u);
}

// θ grown in one step (warm pool, second query attaches in one jump) vs
// organically (first query grows step by step) yields identical
// allocations — the run-level corollary of chunked top-up determinism.
TEST(SampleReuseGoldenTest, WarmPoolRunMatchesColdRun) {
  Rng build_rng(77);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.01), build_rng);
  const ProblemInstance inst = built.MakeInstance(2, 0.1);

  TirmOptions options;
  options.theta.epsilon = 0.25;
  options.theta.theta_cap = 1 << 15;
  options.sample_store_seed = 1234;

  Rng cold_rng(kSeed);
  const TirmResult cold = RunTirm(inst, options, cold_rng);
  EXPECT_FALSE(cold.cache.shared_store);
  EXPECT_EQ(cold.cache.reused_sets, 0u);
  EXPECT_GT(cold.cache.sampled_sets, 0u);
  EXPECT_GT(cold.cache.arena_bytes, 0u);
  EXPECT_EQ(cold.rr_memory_bytes,
            cold.cache.arena_bytes + cold.cache.view_bytes);

  RrSampleStore store(&inst.graph(), {.seed = 1234});
  options.sample_store = &store;
  Rng warm_rng(kSeed);
  const TirmResult prime = RunTirm(inst, options, warm_rng);  // fills pools
  EXPECT_EQ(prime.allocation.seeds, cold.allocation.seeds);
  Rng warm_rng2(kSeed);
  const TirmResult warm = RunTirm(inst, options, warm_rng2);
  EXPECT_EQ(warm.allocation.seeds, cold.allocation.seeds);
  EXPECT_EQ(warm.estimated_revenue, cold.estimated_revenue);
  EXPECT_TRUE(warm.cache.shared_store);
  EXPECT_EQ(warm.cache.sampled_sets, 0u);  // fully served from the pool
  EXPECT_GT(warm.cache.reused_sets, 0u);
}

// ------------------------------------------------------ engine-level reuse

// A λ-sweep samples each ad's RR sets at most once per (ad, max-θ):
// re-running every point after the sweep draws nothing new.
TEST(AdAllocEngineReuseTest, LambdaSweepSamplesAtMostOncePerAdTheta) {
  AdAllocEngine engine(BuildFigure1Instance(),
                       {.eval_sims = 100, .seed = kSeed});
  const std::vector<double> lambdas = {0.0, 0.1, 0.25, 0.5, 1.0};
  std::vector<std::vector<std::vector<NodeId>>> first_pass;
  for (const double lambda : lambdas) {
    Result<EngineRun> run = engine.Run(SmallConfig("tirm"), {.lambda = lambda});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    first_pass.push_back(run->result.allocation.seeds);
  }
  ASSERT_NE(engine.sample_store(), nullptr);
  const std::uint64_t sampled_after_sweep =
      engine.sample_store()->LifetimeStats().sampled_sets;
  EXPECT_GT(sampled_after_sweep, 0u);

  // Second pass over the same points: pure reuse, identical allocations.
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    Result<EngineRun> run =
        engine.Run(SmallConfig("tirm"), {.lambda = lambdas[i]});
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->result.allocation.seeds, first_pass[i])
        << "lambda=" << lambdas[i];
    EXPECT_EQ(run->result.cache.sampled_sets, 0u) << "lambda=" << lambdas[i];
    EXPECT_TRUE(run->result.cache.shared_store);
  }
  EXPECT_EQ(engine.sample_store()->LifetimeStats().sampled_sets,
            sampled_after_sweep);
}

// -------------------------------------------- weighted CELF heap (satellite)

TEST(WeightedCoverageHeapTest, MatchesLinearArgMaxUnderCommits) {
  Rng rng(3);
  WeightedRrCollection c(40);
  for (int i = 0; i < 400; ++i) {
    std::vector<NodeId> set;
    const int size = 1 + static_cast<int>(rng.UniformBelow(4));
    for (int k = 0; k < size; ++k) {
      const NodeId v = static_cast<NodeId>(rng.UniformBelow(40));
      if (std::find(set.begin(), set.end(), v) == set.end()) set.push_back(v);
    }
    c.AddSet(set);
  }
  WeightedCoverageHeap heap(&c);
  auto all = [](NodeId) { return true; };
  for (int step = 0; step < 25; ++step) {
    const NodeId expected = c.ArgMaxCoverage(all);
    const NodeId got = heap.PopBest(all);
    ASSERT_EQ(got, expected) << "step " << step;
    if (got == kInvalidNode) break;
    c.CommitSeed(got, 0.4);
    heap.Push(got, c.CoverageOf(got));
  }
}

TEST(WeightedCoverageHeapTest, EligibilityAndRebuild) {
  WeightedRrCollection c(3);
  c.AddSet(std::vector<NodeId>{0});
  c.AddSet(std::vector<NodeId>{0});
  c.AddSet(std::vector<NodeId>{1});
  WeightedCoverageHeap heap(&c);
  EXPECT_EQ(heap.PopBest([](NodeId v) { return v != 0; }), 1u);
  c.AddSet(std::vector<NodeId>{2});
  c.AddSet(std::vector<NodeId>{2});
  c.AddSet(std::vector<NodeId>{2});
  heap.Rebuild();
  EXPECT_EQ(heap.PopBest([](NodeId) { return true; }), 2u);
}

}  // namespace
}  // namespace tirm
