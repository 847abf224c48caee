#include "rrset/parallel_rr_builder.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/threading.h"
#include "obs/trace.h"

namespace tirm {

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs,
                                     Options options)
    : graph_(graph),
      edge_probs_(edge_probs),
      num_threads_(ResolveThreadCount(options.num_threads)),
      min_parallel_batch_(options.min_parallel_batch),
      sampler_kernel_(ResolveSamplerKernel(options.sampler_kernel)) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  if (sampler_kernel_ == SamplerKernel::kSkip) {
    rows_ = std::make_unique<SamplerRowClass>(graph_, edge_probs_);
  }
  samplers_.resize(static_cast<std::size_t>(num_threads_));
}

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs,
                                     std::span<const float> node_ctps,
                                     Options options)
    : graph_(graph),
      edge_probs_(edge_probs),
      node_ctps_(node_ctps),
      with_ctp_(true),
      num_threads_(ResolveThreadCount(options.num_threads)),
      min_parallel_batch_(options.min_parallel_batch),
      sampler_kernel_(ResolveSamplerKernel(options.sampler_kernel)) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  TIRM_CHECK_EQ(node_ctps_.size(), graph_.num_nodes());
  if (sampler_kernel_ == SamplerKernel::kSkip) {
    rows_ = std::make_unique<SamplerRowClass>(graph_, edge_probs_);
  }
  samplers_.resize(static_cast<std::size_t>(num_threads_));
}

RrSampler& ParallelRrBuilder::SamplerFor(int worker) {
  auto& slot = samplers_[static_cast<std::size_t>(worker)];
  if (slot == nullptr) {
    slot = with_ctp_
               ? std::make_unique<RrSampler>(graph_, edge_probs_, node_ctps_,
                                             sampler_kernel_, rows_.get())
               : std::make_unique<RrSampler>(graph_, edge_probs_,
                                             sampler_kernel_, rows_.get());
  }
  return *slot;
}

ParallelRrBuilder::Batch ParallelRrBuilder::SampleBatch(std::uint64_t count,
                                                        Rng& master) {
  return SampleImpl(count, master, /*keep_sets=*/true, /*keep_stats=*/true);
}

std::vector<std::uint64_t> ParallelRrBuilder::SampleWidths(std::uint64_t count,
                                                           Rng& master) {
  return SampleImpl(count, master, /*keep_sets=*/false, /*keep_stats=*/true)
      .widths;
}

ParallelRrBuilder::Batch ParallelRrBuilder::SampleSetsOnly(std::uint64_t count,
                                                           Rng& master) {
  return SampleImpl(count, master, /*keep_sets=*/true, /*keep_stats=*/false);
}

std::vector<ParallelRrBuilder::Batch> ParallelRrBuilder::SampleChunks(
    std::uint64_t count, Rng& master) {
  return SampleParts(count, {&master, 1}, /*keep_sets=*/true,
                     /*keep_stats=*/false);
}

std::vector<ParallelRrBuilder::Batch> ParallelRrBuilder::SampleChunks(
    std::uint64_t count, std::span<Rng> masters) {
  return SampleParts(count, masters, /*keep_sets=*/true, /*keep_stats=*/false);
}

std::vector<ParallelRrBuilder::Batch> ParallelRrBuilder::SampleParts(
    std::uint64_t count, std::span<Rng> masters, bool keep_sets,
    bool keep_stats) {
  // Every master splits its `count` sets into the same contiguous parts a
  // lone batch of `count` would get, one forked stream each. The forks run
  // sequentially on the calling thread, so a part is a pure function of its
  // master state, `count` and the thread count: never of scheduling, nor of
  // which other masters share the fan-out.
  const std::uint64_t parts_per_master =
      count < min_parallel_batch_
          ? 1
          : std::min<std::uint64_t>(count,
                                    static_cast<std::uint64_t>(num_threads_));
  const std::uint64_t base =
      parts_per_master == 0 ? 0 : count / parts_per_master;
  const std::uint64_t rem =
      parts_per_master == 0 ? 0 : count % parts_per_master;
  struct Task {
    Rng stream;
    std::uint64_t quota;
  };
  std::vector<Task> tasks;
  tasks.reserve(masters.size() * parts_per_master);
  for (Rng& master : masters) {
    for (std::uint64_t i = 0; i < parts_per_master; ++i) {
      tasks.push_back({master.Fork(i), base + (i < rem ? 1 : 0)});
    }
  }
  std::vector<Batch> parts(tasks.size());
  if (tasks.empty()) return parts;

  auto run_task = [&](std::size_t k, int worker, std::vector<NodeId>& scratch) {
    const std::uint64_t quota = tasks[k].quota;
    // One span per part: spans land in the worker thread's own buffer, so
    // the fan-out shows up as parallel lanes in the trace.
    obs::TraceSpan span("rr_sample_batch");
    span.Counter("worker", worker);
    span.Counter("chunk", static_cast<double>(k / parts_per_master));
    span.Counter("part", static_cast<double>(k % parts_per_master));
    span.Counter("quota", static_cast<double>(quota));
    RrSampler& sampler = *samplers_[static_cast<std::size_t>(worker)];
    // Samplers are reused across parts; drop any coins buffered from the
    // previous part's stream so this part is a pure function of `rng`.
    sampler.ResetStreamState();
    // The stream and the part are this thread's own: the hot loop writes
    // no cache line a sibling writes too, and the part is moved out once.
    Rng rng = tasks[k].stream;
    Batch part;
    if (keep_sets) {
      part.offsets.reserve(quota + 1);
      part.offsets.push_back(0);
    }
    if (keep_stats) {
      part.roots.reserve(quota);
      part.widths.reserve(quota);
    }
    for (std::uint64_t t = 0; t < quota; ++t) {
      const NodeId root = sampler.SampleInto(rng, scratch);
      part.max_traversal = std::max(part.max_traversal,
                                    sampler.last_traversal());
      if (keep_sets) {
        part.nodes.insert(part.nodes.end(), scratch.begin(), scratch.end());
        part.offsets.push_back(part.nodes.size());
      }
      if (keep_stats) {
        part.roots.push_back(root);
        part.widths.push_back(sampler.last_width());
      }
    }
    span.Counter("max_traversal", static_cast<double>(part.max_traversal));
    parts[k] = std::move(part);
  };

  // Below min_parallel_batch sets in total the whole fan-out runs inline;
  // otherwise up to num_threads() threads pull parts off one counter.
  const int threads =
      count * masters.size() < min_parallel_batch_
          ? 1
          : static_cast<int>(std::min<std::size_t>(
                tasks.size(), static_cast<std::size_t>(num_threads_)));
  // SamplerFor mutates samplers_; materialize every worker's sampler
  // before the threads start so the workers only read the vector.
  for (int w = 0; w < threads; ++w) SamplerFor(w);
  std::atomic<std::size_t> next{0};
  auto run_worker = [&](int worker) {
    std::vector<NodeId> scratch;
    for (std::size_t k = next++; k < tasks.size(); k = next++) {
      run_task(k, worker, scratch);
    }
  };
  {
    // jthreads join on every exit from this scope, exceptions included,
    // before the tasks and parts they write go away.
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(threads) - 1);
    for (int w = 1; w < threads; ++w) workers.emplace_back(run_worker, w);
    run_worker(0);
  }
  return parts;
}

ParallelRrBuilder::Batch ParallelRrBuilder::SampleImpl(std::uint64_t count,
                                                       Rng& master,
                                                       bool keep_sets,
                                                       bool keep_stats) {
  const std::vector<Batch> parts =
      SampleParts(count, {&master, 1}, keep_sets, keep_stats);
  // Concatenate in part order — deterministic regardless of scheduling.
  Batch out;
  for (const Batch& p : parts) {
    out.max_traversal = std::max(out.max_traversal, p.max_traversal);
  }
  if (!keep_sets) {
    std::size_t total_sets = 0;
    for (const Batch& p : parts) total_sets += p.widths.size();
    out.widths.reserve(total_sets);
    for (const Batch& p : parts) {
      out.widths.insert(out.widths.end(), p.widths.begin(), p.widths.end());
    }
    TIRM_CHECK_EQ(out.widths.size(), count);
    return out;
  }
  std::size_t total_nodes = 0;
  std::size_t total_sets = 0;
  for (const Batch& p : parts) {
    total_nodes += p.nodes.size();
    total_sets += p.size();
  }
  out.nodes.reserve(total_nodes);
  out.offsets.reserve(total_sets + 1);
  if (keep_stats) {
    out.roots.reserve(total_sets);
    out.widths.reserve(total_sets);
  }
  out.offsets.push_back(0);
  for (const Batch& p : parts) {
    const std::size_t shift = out.nodes.size();
    out.nodes.insert(out.nodes.end(), p.nodes.begin(), p.nodes.end());
    for (std::size_t k = 1; k < p.offsets.size(); ++k) {
      out.offsets.push_back(shift + p.offsets[k]);
    }
    out.roots.insert(out.roots.end(), p.roots.begin(), p.roots.end());
    out.widths.insert(out.widths.end(), p.widths.begin(), p.widths.end());
  }
  TIRM_CHECK_EQ(out.size(), count);
  return out;
}

}  // namespace tirm
