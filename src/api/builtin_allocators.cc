// Adapters exposing the five paper algorithms (§6) through the unified
// Allocator interface, self-registered under their bench names. The
// underlying free functions / classes (RunTirm, GreedyAllocator, ...)
// remain the implementations; these wrappers only translate options and
// result types.

#include <memory>
#include <utility>

#include "alloc/greedy.h"
#include "alloc/irie.h"
#include "alloc/myopic.h"
#include "alloc/tirm.h"
#include "api/allocator_registry.h"

namespace tirm {
namespace {

/// TIRM (Algorithm 2) behind the unified interface.
class TirmAllocator : public Allocator {
 public:
  explicit TirmAllocator(const AllocatorConfig& config)
      : options_(config.MakeTirmOptions()) {}

  std::string_view name() const override { return "tirm"; }

 protected:
  AllocationResult AllocateImpl(const ProblemInstance& instance,
                                Rng& rng) override {
    TirmResult tirm = RunTirm(instance, options_, rng);
    AllocationResult result;
    result.allocation = std::move(tirm.allocation);
    result.estimated_revenue = std::move(tirm.estimated_revenue);
    result.iterations = tirm.iterations;
    result.rr_memory_bytes = tirm.rr_memory_bytes;
    result.total_rr_sets = tirm.total_rr_sets;
    result.cache = tirm.cache;
    result.ad_stats.reserve(tirm.ad_stats.size());
    for (const TirmAdStats& s : tirm.ad_stats) {
      AdAllocStats stats;
      stats.theta = s.theta;
      stats.final_s = s.final_s;
      stats.kpt = s.kpt;
      stats.num_seeds = s.num_seeds;
      stats.estimated_revenue = s.estimated_revenue;
      stats.expansions = s.expansions;
      result.ad_stats.push_back(stats);
    }
    return result;
  }

 private:
  TirmOptions options_;
};

/// Algorithm 1 with a MarginalOracle supplied by the subclass hook.
class GreedyAllocatorBase : public Allocator {
 public:
  explicit GreedyAllocatorBase(const AllocatorConfig& config)
      : greedy_options_(config.MakeGreedyOptions()) {}

 protected:
  AllocationResult AllocateImpl(const ProblemInstance& instance,
                                Rng& rng) override {
    std::unique_ptr<MarginalOracle> oracle = MakeOracle(instance, rng);
    GreedyAllocator greedy(&instance, oracle.get(), greedy_options_);
    GreedyResult greedy_result = greedy.Run();
    AllocationResult result;
    result.allocation = std::move(greedy_result.allocation);
    result.estimated_revenue = std::move(greedy_result.estimated_revenue);
    result.iterations = greedy_result.iterations;
    return result;
  }

  virtual std::unique_ptr<MarginalOracle> MakeOracle(
      const ProblemInstance& instance, Rng& rng) = 0;

 private:
  GreedyAllocator::Options greedy_options_;
};

/// GREEDY-MC: Algorithm 1 with Monte-Carlo marginals (small graphs only).
class GreedyMcAllocator : public GreedyAllocatorBase {
 public:
  explicit GreedyMcAllocator(const AllocatorConfig& config)
      : GreedyAllocatorBase(config), mc_options_(config.MakeMcOptions()) {}

  std::string_view name() const override { return "greedy-mc"; }

 protected:
  std::unique_ptr<MarginalOracle> MakeOracle(const ProblemInstance& instance,
                                             Rng& rng) override {
    // The oracle takes its Rng by value: copying the caller's stream keeps
    // runs bit-identical to the pre-registry calling convention.
    return std::make_unique<McMarginalOracle>(&instance, rng, mc_options_);
  }

 private:
  McMarginalOracle::Options mc_options_;
};

/// GREEDY-IRIE: Algorithm 1 with IRIE heuristic marginals.
class GreedyIrieAllocator : public GreedyAllocatorBase {
 public:
  explicit GreedyIrieAllocator(const AllocatorConfig& config)
      : GreedyAllocatorBase(config), irie_options_(config.MakeIrieOptions()) {}

  std::string_view name() const override { return "greedy-irie"; }

 protected:
  std::unique_ptr<MarginalOracle> MakeOracle(const ProblemInstance& instance,
                                             Rng& /*rng*/) override {
    return std::make_unique<IrieOracle>(&instance, irie_options_);
  }

 private:
  IrieEstimator::Options irie_options_;
};

/// MYOPIC / MYOPIC+ baselines (deterministic, option-free).
class MyopicAllocator : public Allocator {
 public:
  explicit MyopicAllocator(bool plus) : plus_(plus) {}

  std::string_view name() const override { return plus_ ? "myopic+" : "myopic"; }

 protected:
  AllocationResult AllocateImpl(const ProblemInstance& instance,
                                Rng& /*rng*/) override {
    AllocationResult result;
    result.allocation =
        plus_ ? MyopicPlusAllocate(instance) : MyopicAllocate(instance);
    return result;
  }

 private:
  bool plus_;
};

template <typename T>
AllocatorRegistry::Factory MakeFactory() {
  return [](const AllocatorConfig& config)
             -> Result<std::unique_ptr<Allocator>> {
    TIRM_RETURN_NOT_OK(config.Validate());
    return std::unique_ptr<Allocator>(std::make_unique<T>(config));
  };
}

// Shards are worker processes behind the router, never an in-process
// split: without injected clients, num_shards > 1 is a typed error.
const AllocatorRegistrar kTirmReg(
    "tirm", [](const AllocatorConfig& config)
                -> Result<std::unique_ptr<Allocator>> {
      if (config.num_shards > 1 && config.shard_clients.empty()) {
        return Status::InvalidArgument(
            "num_shards > 1 needs shard workers: use \"threads\" for "
            "in-process parallelism, or tirm_server --mode=router");
      }
      return MakeFactory<TirmAllocator>()(config);
    });
const AllocatorRegistrar kGreedyMcReg("greedy-mc",
                                      MakeFactory<GreedyMcAllocator>());
const AllocatorRegistrar kGreedyIrieReg("greedy-irie",
                                        MakeFactory<GreedyIrieAllocator>());
const AllocatorRegistrar kMyopicReg(
    "myopic", [](const AllocatorConfig& config)
                  -> Result<std::unique_ptr<Allocator>> {
      TIRM_RETURN_NOT_OK(config.Validate());
      return std::unique_ptr<Allocator>(
          std::make_unique<MyopicAllocator>(/*plus=*/false));
    });
const AllocatorRegistrar kMyopicPlusReg(
    "myopic+", [](const AllocatorConfig& config)
                   -> Result<std::unique_ptr<Allocator>> {
      TIRM_RETURN_NOT_OK(config.Validate());
      return std::unique_ptr<Allocator>(
          std::make_unique<MyopicAllocator>(/*plus=*/true));
    });

}  // namespace

namespace internal {
void LinkBuiltinAllocators() {}
}  // namespace internal

}  // namespace tirm
