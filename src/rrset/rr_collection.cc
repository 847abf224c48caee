#include "rrset/rr_collection.h"

#include <algorithm>

namespace tirm {

RrCollection::RrCollection(NodeId num_nodes)
    : owned_(std::make_unique<RrSetPool>(num_nodes)),
      pool_(owned_.get()),
      num_nodes_(num_nodes) {
  coverage_.assign(num_nodes, 0);
}

RrCollection::RrCollection(const RrSetPool* pool)
    : pool_(pool), num_nodes_(pool != nullptr ? pool->num_nodes() : 0) {
  TIRM_CHECK(pool_ != nullptr);
  coverage_.assign(num_nodes_, 0);
}

std::uint32_t RrCollection::AddSet(std::span<const NodeId> nodes) {
  TIRM_CHECK(owned_ != nullptr) << "AddSet requires an owning collection; "
                                   "borrowed pools grow via the store";
  const std::uint32_t id = owned_->AddSet(nodes);
  AttachUpTo(id + 1);
  return id;
}

void RrCollection::AttachUpTo(std::uint32_t count) {
  TIRM_CHECK_LE(count, pool_->NumSets());
  TIRM_CHECK_GE(count, attached_);
  if (count == attached_) return;
  for (std::uint32_t id = attached_; id < count; ++id) {
    for (const NodeId v : pool_->SetMembers(id)) {
      TIRM_DCHECK(v < coverage_.size());
      ++coverage_[v];
    }
  }
  covered_.resize(count, 0);
  attached_ = count;
}

std::uint32_t RrCollection::CommitSeed(NodeId v) {
  return CommitSeedOnRange(v, 0);
}

std::uint32_t RrCollection::CommitSeedOnRange(NodeId v,
                                              std::uint32_t first_set) {
  TIRM_CHECK_LT(v, coverage_.size());
  std::uint32_t newly_covered = 0;
  for (const std::uint32_t id : pool_->Postings(v)) {
    if (id >= attached_) break;  // postings ascend; rest not attached yet
    if (id < first_set || covered_[id]) continue;
    covered_[id] = 1;
    ++newly_covered;
    ++num_covered_;
    for (const NodeId member : pool_->SetMembers(id)) {
      TIRM_DCHECK(coverage_[member] > 0);
      --coverage_[member];
    }
  }
  return newly_covered;
}

void RrCollection::AccumulateCoverage(
    std::vector<std::uint32_t>& counts) const {
  counts.assign(coverage_.begin(), coverage_.end());
}

std::size_t RrCollection::MemoryBytes() const {
  std::size_t bytes =
      covered_.capacity() + coverage_.capacity() * sizeof(std::uint32_t);
  if (owned_ != nullptr) bytes += owned_->MemoryBytes();
  return bytes;
}

void CoverageHeap::Rebuild() {
  heap_.clear();
  std::vector<std::uint32_t> counts;
  collection_->AccumulateCoverage(counts);
  for (NodeId v = 0; v < collection_->num_nodes(); ++v) {
    if (counts[v] > 0) heap_.push_back({counts[v], v});
  }
  std::make_heap(heap_.begin(), heap_.end());
}

void CoverageHeap::Push(NodeId node, std::uint32_t coverage) {
  heap_.push_back({coverage, node});
  std::push_heap(heap_.begin(), heap_.end());
}

}  // namespace tirm
