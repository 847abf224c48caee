// Sampler-kernel policy for RR/RRC-set generation.
//
// RR-set generation flips one Bernoulli coin per in-edge touched by the
// reverse BFS (§5.1). When a node's in-edge probability row is *uniform*
// (every in-edge carries the same p — true wholesale for weighted-cascade
// instances, where p = 1/indeg by construction), the positions of the
// successful coins form a geometric process, so the inner loop can jump
// straight from one success to the next:
//
//   j += 1 + floor(log1p(-U) / log1p(-p)),  U ~ Uniform[0, 1)
//
// consuming one uniform variate per *success* instead of one per edge. For
// p << 1 (sparse activations) this removes almost all generator traffic
// from the dominant cost of TIM/TIRM. Rows with mixed probabilities fall
// back to the classic per-edge loop.
//
// Determinism contract. Both kernels are fully deterministic: the same
// (kernel, seed, thread count) always reproduces the same sets. But the two
// kernels consume the random stream differently (skip also burns implicit
// coins for already-visited in-neighbors, which classic short-circuits), so
// skip's sets are *statistically* equivalent to classic's — identical
// marginal distribution over each unvisited in-neighbor — not bit-identical.
// `classic` therefore stays the default and the golden reference; `skip` is
// opt-in (--sampler_kernel=skip) and gated by statistical-equivalence tests
// (KPT widths, mean set size, allocator revenue/regret tolerances).

#ifndef TIRM_RRSET_SAMPLER_KERNEL_H_
#define TIRM_RRSET_SAMPLER_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/graph.h"

namespace tirm {

// ---------------------------------------------------------------- kernel
// choice (algorithmic switch, parsed from --sampler_kernel)

/// Which reverse-BFS inner loop RR-set sampling uses.
enum class SamplerKernel : std::uint8_t {
  kAuto = 0,     ///< resolve to the classic kernel (the golden reference)
  kClassic = 1,  ///< per-edge Bernoulli coins; bit-stable default
  kSkip = 2,     ///< geometric jumps on uniform-probability in-edge rows
};

/// "auto" / "classic" / "skip" -> enum; anything else is InvalidArgument.
Result<SamplerKernel> ParseSamplerKernel(std::string_view name);

/// Canonical flag spelling of `kernel`.
const char* SamplerKernelName(SamplerKernel kernel);

/// Resolves kAuto to the concrete default, the *classic* path: skip
/// consumes the random stream differently, so keeping auto == classic
/// preserves the repo-wide bit-identical determinism contract; skip is an
/// explicit opt-in.
inline SamplerKernel ResolveSamplerKernel(SamplerKernel kernel) {
  return kernel == SamplerKernel::kAuto ? SamplerKernel::kClassic : kernel;
}

// ----------------------------------------------------------- row classes

/// Per-node classification of in-edge probability rows, precomputed once
/// per (graph, edge_probs) pair and shared read-only across all sampler
/// threads (immutable after construction, so no locking is needed).
class SamplerRowClass {
 public:
  enum class RowKind : std::uint8_t {
    kBlocked = 0,    ///< indeg 0, or uniform p <= 0: no in-edge can fire
    kAlways = 1,     ///< uniform p >= 1: every in-neighbor is reached
    kGeometric = 2,  ///< uniform 0 < p < 1: geometric-skip eligible
    kMixed = 3,      ///< mixed probabilities: classic per-edge fallback
  };

  /// Scans every node's in-edge row of `edge_probs` (indexed by edge id,
  /// Graph::InEdgeIds alignment). Exact float equality decides uniformity —
  /// weighted-cascade rows share one p = 1/indeg value by construction.
  SamplerRowClass(const Graph& graph, std::span<const float> edge_probs);

  RowKind Kind(NodeId v) const { return kinds_[v]; }

  /// 1 / log1p(-p) for kGeometric rows (negative; pairing it with the
  /// negative log1p(-U) makes the jump non-negative). 0 otherwise.
  double InvLog1mP(NodeId v) const { return inv_log1m_p_[v]; }

  /// The shared row probability for uniform rows; 0 for kMixed / indeg-0.
  float UniformProb(NodeId v) const { return uniform_p_[v]; }

  NodeId num_nodes() const { return static_cast<NodeId>(kinds_.size()); }
  std::size_t geometric_rows() const { return geometric_rows_; }
  std::size_t mixed_rows() const { return mixed_rows_; }

  std::size_t MemoryBytes() const {
    return kinds_.capacity() * sizeof(RowKind) +
           uniform_p_.capacity() * sizeof(float) +
           inv_log1m_p_.capacity() * sizeof(double);
  }

 private:
  std::vector<RowKind> kinds_;
  std::vector<float> uniform_p_;
  std::vector<double> inv_log1m_p_;
  std::size_t geometric_rows_ = 0;
  std::size_t mixed_rows_ = 0;
};

}  // namespace tirm

#endif  // TIRM_RRSET_SAMPLER_KERNEL_H_
