// Shared test fixtures for the sampling / allocation statistical tests.
//
// Extracted from parallel_rr_test.cc so every suite that compares two
// equally-valid sampling configurations (serial vs parallel threads,
// classic vs skip sampler kernel) builds the same weighted-cascade RMat
// instance, runs TIRM with the same fast options, and applies the same
// evaluator-based tolerance discipline: evaluate both allocations under an
// IDENTICAL Monte-Carlo stream and compare ground-truth revenue / regret,
// never the (legitimately different) seed picks themselves. The coverage
// view tests share RandomPool, a pool of random sets with no graph.

#ifndef TIRM_TESTS_TIRM_TEST_UTIL_H_
#define TIRM_TESTS_TIRM_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/tirm.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "rrset/sample_store.h"
#include "topic/instance.h"

namespace tirm {

struct TestInstance {
  Graph graph;
  std::unique_ptr<EdgeProbabilities> probs;
  std::unique_ptr<ClickProbabilities> ctps;
  std::vector<Advertiser> ads;

  ProblemInstance Make(int kappa, double lambda) {
    return ProblemInstance::WithUniformAttention(&graph, probs.get(),
                                                 ctps.get(), ads, kappa,
                                                 lambda);
  }
};

/// 512-node RMat graph with weighted-cascade probabilities (every in-edge
/// row uniform at p = 1/indeg, so the skip kernel applies wholesale) and
/// `num_ads` identical unit-CPE advertisers.
inline TestInstance MakeRMatInstance(int num_ads, double budget) {
  TestInstance s;
  Rng rng(500);
  s.graph = RMatGraph(9, 2500, rng);
  s.probs = std::make_unique<EdgeProbabilities>(
      EdgeProbabilities::WeightedCascade(s.graph));
  s.ctps = std::make_unique<ClickProbabilities>(
      ClickProbabilities::Constant(s.graph.num_nodes(), num_ads, 1.0));
  s.ads.resize(static_cast<std::size_t>(num_ads));
  for (auto& a : s.ads) {
    a.gamma = TopicDistribution::Uniform(1);
    a.budget = budget;
    a.cpe = 1.0;
  }
  return s;
}

/// TIRM options tuned for test runtime: looser ε, capped θ and KPT budget.
inline TirmOptions FastOptions(int threads) {
  TirmOptions o;
  o.theta.epsilon = 0.2;
  o.theta.theta_min = 4096;
  o.theta.theta_cap = 1 << 16;
  o.kpt_max_samples = 1 << 14;
  o.num_threads = threads;
  return o;
}

/// Random pool: `sets` sets over `nodes` nodes, ~`avg` distinct members
/// each.
inline std::unique_ptr<RrSetPool> RandomPool(NodeId nodes, std::uint32_t sets,
                                             int avg, Rng& rng) {
  auto pool = std::make_unique<RrSetPool>(nodes);
  std::vector<NodeId> members;
  std::vector<std::uint8_t> taken(nodes, 0);
  for (std::uint32_t s = 0; s < sets; ++s) {
    members.clear();
    const int size = 1 + static_cast<int>(rng.NextUInt64() %
                                          static_cast<std::uint64_t>(2 * avg));
    for (int k = 0; k < size; ++k) {
      const NodeId v = static_cast<NodeId>(rng.NextUInt64() % nodes);
      if (taken[v]) continue;  // sets hold distinct members
      taken[v] = 1;
      members.push_back(v);
    }
    for (const NodeId v : members) taken[v] = 0;
    pool->AddSet(members);
  }
  return pool;
}

}  // namespace tirm

#endif  // TIRM_TESTS_TIRM_TEST_UTIL_H_
