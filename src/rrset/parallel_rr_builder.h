// Parallel RR/RRC-set generation (the dominant cost of TIM/TIRM, §5).
//
// RrSampler is deliberately "not thread-safe; create one per thread" — this
// builder does exactly that: it owns one RrSampler per worker slot and fans
// sampling out across N threads. Every call is one fan-out over one or more
// master streams (one per pool chunk for RrSampleStore top-ups, one for a
// plain batch or a KPT round). Determinism is preserved for a fixed (master
// RNG states, count, thread count, kernel):
//
//  * each master splits its `count` sets into min(count, thread count)
//    contiguous parts (one part below min_parallel_batch) and forks one
//    child stream per part, sequentially, on the calling thread (Rng::Fork
//    is deterministic in state and salt);
//  * the (master, part) tasks are pulled off one atomic counter by up to
//    num_threads() threads; a task copies its stream into a thread-local
//    Rng and fills a thread-local part, so workers share no written cache
//    line, and the part is moved into its slot once at the end;
//  * parts are returned (or concatenated) in (master, part) order, so the
//    result is byte-identical no matter how the OS schedules the threads or
//    how many masters share one fan-out.
//
// The produced Batch carries the flattened sets, their roots, and the TIM
// widths w(R) (sum of in-degrees over the traversal), so both KPT estimation
// and θ-driven collection growth can consume the same output without
// resampling.
//
// Arena-direct consumption: SampleChunks exposes the per-part buffers
// *before* the concatenation copy, still in deterministic order.
// RrSetPool::AdoptChunk moves each part's flattened node buffer into the
// pool arena wholesale, which removes both copies of the legacy path
// (worker part -> merged Batch -> pool arena). SampleSetsInto streams
// per-set spans over the same parts for sinks that genuinely need per-set
// granularity.
//
// The sampler kernel (Options::sampler_kernel, rrset/sampler_kernel.h)
// switches every worker between the classic per-edge loop and the
// geometric-skip loop; the builder precomputes one shared SamplerRowClass
// for all workers when skip is selected.

#ifndef TIRM_RRSET_PARALLEL_RR_BUILDER_H_
#define TIRM_RRSET_PARALLEL_RR_BUILDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "rrset/rr_sampler.h"
#include "rrset/sampler_kernel.h"

namespace tirm {

/// Fans RR/RRC-set sampling out over worker threads; deterministic in
/// (master seed, batch size, thread count, sampler kernel). Reusable across
/// batches; not itself thread-safe (one builder per orchestrating thread).
class ParallelRrBuilder {
 public:
  struct Options {
    /// Worker threads; <= 0 selects std::thread::hardware_concurrency().
    int num_threads = 1;
    /// A master with fewer sets is one part, and a fan-out with fewer sets
    /// in total runs inline on the calling thread — thread spawn overhead
    /// dwarfs the sampling work below it.
    std::uint64_t min_parallel_batch = 256;
    /// Reverse-BFS inner-loop kernel (kAuto resolves to kClassic — see
    /// rrset/sampler_kernel.h for the determinism contract).
    SamplerKernel sampler_kernel = SamplerKernel::kAuto;
  };

  /// One sampled batch, parts concatenated in part order. Set k occupies
  /// nodes[offsets[k] .. offsets[k+1]). roots/widths are empty for batches
  /// from SampleSetsOnly (and nodes/offsets/roots for SampleWidths).
  struct Batch {
    std::vector<std::size_t> offsets;   // size() + 1 entries
    std::vector<NodeId> nodes;          // flattened members
    std::vector<NodeId> roots;          // per set
    std::vector<std::uint64_t> widths;  // per set, TIM w(R)
    /// Largest reverse-BFS traversal (visited nodes) over the batch's sets;
    /// kept under every keep_* mode (it is a byproduct of sampling).
    std::uint64_t max_traversal = 0;

    std::size_t size() const {
      return offsets.empty() ? widths.size() : offsets.size() - 1;
    }
    std::span<const NodeId> Set(std::size_t k) const {
      TIRM_DCHECK(k < size());
      return {nodes.data() + offsets[k], offsets[k + 1] - offsets[k]};
    }
  };

  /// Plain RR-set builder (RrSampler::Mode::kPlain).
  ParallelRrBuilder(const Graph& graph, std::span<const float> edge_probs,
                    Options options);

  /// RRC-set builder with node-level CTP coins; `node_ctps[v]` = δ(v), one
  /// float per node (see rr_sampler.h). The array is read concurrently by
  /// every worker and must stay alive and unchanged while the builder is
  /// in use.
  ParallelRrBuilder(const Graph& graph, std::span<const float> edge_probs,
                    std::span<const float> node_ctps, Options options);

  /// Samples `count` sets. Consumes one fork of `master` per part —
  /// min(count, num_threads()) forks, or a single fork when `count` is below
  /// `min_parallel_batch` — so the master stream's advancement depends on the
  /// batch size as well as the thread count. Part sizes differ by at most
  /// one.
  Batch SampleBatch(std::uint64_t count, Rng& master);

  /// Widths-only variant for KPT estimation: same sampling streams as
  /// SampleBatch (identical widths for an identical master state) but skips
  /// accumulating the flattened node lists.
  std::vector<std::uint64_t> SampleWidths(std::uint64_t count, Rng& master);

  /// Sets-only variant for coverage building: same streams as SampleBatch
  /// but skips the per-set roots/widths arrays that coverage backends never
  /// read.
  Batch SampleSetsOnly(std::uint64_t count, Rng& master);

  /// Sets-only sampling returned as the per-part buffers in deterministic
  /// part order, WITHOUT the concatenation copy. Identical streams and set
  /// contents to SampleSetsOnly — concatenating the parts reproduces it
  /// byte for byte. The arena-direct hot path: callers move each part's
  /// `nodes` buffer straight into RrSetPool::AdoptChunk.
  std::vector<Batch> SampleChunks(std::uint64_t count, Rng& master);

  /// SampleChunks for several masters in ONE fan-out: master j's parts are
  /// exactly SampleChunks(count, masters[j])'s, and every master's parts
  /// come back in (master, part) order. Threads pull parts across masters,
  /// so no thread idles at a per-master barrier.
  std::vector<Batch> SampleChunks(std::uint64_t count, std::span<Rng> masters);

  /// Streaming variant of SampleChunks: invokes `sink(std::span<const
  /// NodeId>)` once per set, in the same deterministic part order,
  /// straight from the per-part buffers. Statically dispatched — the
  /// sink is a template parameter, not a std::function — so per-set calls
  /// inline into the consumer loop.
  template <typename Sink>
  void SampleSetsInto(std::uint64_t count, Rng& master, Sink&& sink) {
    const std::vector<Batch> parts = SampleChunks(count, master);
    std::uint64_t emitted = 0;
    for (const Batch& p : parts) {
      for (std::size_t k = 0; k < p.size(); ++k) sink(p.Set(k));
      emitted += p.size();
    }
    TIRM_CHECK_EQ(emitted, count);
  }

  /// Resolved worker count (>= 1, clamped to kMaxSamplingThreads —
  /// see common/threading.h).
  int num_threads() const { return num_threads_; }

  /// Resolved sampler kernel (never kAuto).
  SamplerKernel sampler_kernel() const { return sampler_kernel_; }

  const Graph& graph() const { return graph_; }

 private:
  RrSampler& SamplerFor(int worker);
  /// The one fan-out: `count` sets per master, parts in (master, part)
  /// order (the deterministic pre-merge form). See the file comment.
  std::vector<Batch> SampleParts(std::uint64_t count, std::span<Rng> masters,
                                 bool keep_sets, bool keep_stats);
  Batch SampleImpl(std::uint64_t count, Rng& master, bool keep_sets,
                   bool keep_stats);

  const Graph& graph_;
  std::span<const float> edge_probs_;
  std::span<const float> node_ctps_;  // per-node δ; empty span => plain mode
  bool with_ctp_ = false;
  int num_threads_;
  std::uint64_t min_parallel_batch_;
  SamplerKernel sampler_kernel_;
  /// Row classification shared read-only by every worker's sampler
  /// (immutable after construction); only built for the skip kernel.
  std::unique_ptr<SamplerRowClass> rows_;
  // Lazily created so a builder configured for N threads but only ever used
  // for tiny inline batches allocates a single sampler.
  std::vector<std::unique_ptr<RrSampler>> samplers_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_PARALLEL_RR_BUILDER_H_
