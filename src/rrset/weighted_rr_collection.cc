#include "rrset/weighted_rr_collection.h"

namespace tirm {

WeightedRrCollection::WeightedRrCollection(NodeId num_nodes)
    : owned_(std::make_unique<RrSetPool>(num_nodes)),
      pool_(owned_.get()),
      num_nodes_(num_nodes) {}

WeightedRrCollection::WeightedRrCollection(const RrSetPool* pool)
    : pool_(pool), num_nodes_(pool != nullptr ? pool->num_nodes() : 0) {
  TIRM_CHECK(pool_ != nullptr);
}

std::uint32_t WeightedRrCollection::AddSet(std::span<const NodeId> nodes) {
  TIRM_CHECK(owned_ != nullptr) << "AddSet requires an owning collection; "
                                   "borrowed pools grow via the store";
  const std::uint32_t id = owned_->AddSet(nodes);
  AttachUpTo(id + 1);
  return id;
}

void WeightedRrCollection::AttachUpTo(std::uint32_t count) {
  TIRM_CHECK_LE(count, pool_->NumSets());
  TIRM_CHECK_GE(count, attached_);
  if (count == attached_) return;
  survival_.resize(count, 1.0f);
  attached_ = count;
}

double WeightedRrCollection::CoverageOf(NodeId v) const {
  TIRM_DCHECK(v < num_nodes_);
  double cov = 0.0;
  for (const std::uint32_t id : pool_->Postings(v)) {
    if (id >= attached_) break;  // postings ascend; rest not attached yet
    // Dead sets hold exactly 0.0f, an exact no-op to add — which is what
    // keeps this sum bit-identical to AccumulateCoverage, which skips them.
    cov += static_cast<double>(survival_[id]);
  }
  return cov;
}

double WeightedRrCollection::CommitSeed(NodeId v, double accept_prob) {
  return CommitSeedOnRange(v, accept_prob, 0);
}

double WeightedRrCollection::CommitSeedOnRange(NodeId v, double accept_prob,
                                               std::uint32_t first_set) {
  TIRM_CHECK_LT(v, num_nodes_);
  TIRM_CHECK(accept_prob >= 0.0 && accept_prob <= 1.0);
  double covered_before = 0.0;
  for (const std::uint32_t id : pool_->Postings(v)) {
    if (id >= attached_) break;  // postings ascend; rest not attached yet
    if (id < first_set) continue;
    const double s_old = survival_[id];
    if (s_old <= 0.0) continue;
    covered_before += s_old;
    const double s_new = s_old * (1.0 - accept_prob);
    const double delta = s_old - s_new;
    if (delta <= 0.0) continue;
    survival_[id] = static_cast<float>(s_new);
    covered_mass_ += delta;
  }
  return covered_before;
}

void WeightedRrCollection::AccumulateCoverage(std::vector<double>& cov) const {
  cov.assign(num_nodes_, 0.0);
  for (std::uint32_t id = 0; id < attached_; ++id) {
    const double s = survival_[id];
    if (s <= 0.0) continue;  // dead sets add exactly 0.0 in the gather too
    for (const NodeId member : pool_->SetMembers(id)) cov[member] += s;
  }
}

std::size_t WeightedRrCollection::MemoryBytes() const {
  std::size_t bytes = survival_.capacity() * sizeof(float);
  if (owned_ != nullptr) bytes += owned_->MemoryBytes();
  return bytes;
}

void WeightedCoverageHeap::Rebuild() {
  heap_.clear();
  std::vector<double> cov;
  collection_->AccumulateCoverage(cov);
  for (NodeId v = 0; v < collection_->num_nodes(); ++v) {
    if (cov[v] > kZero) heap_.push_back({cov[v], v});
  }
  std::make_heap(heap_.begin(), heap_.end());
}

void WeightedCoverageHeap::Push(NodeId node, double coverage) {
  heap_.push_back({coverage, node});
  std::push_heap(heap_.begin(), heap_.end());
}

}  // namespace tirm
