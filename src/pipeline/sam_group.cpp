#include "pipeline/sam_group.hpp"

#include <ostream>
#include <utility>

#include "encode/revcomp.hpp"

namespace gkgpu::pipeline {

void SamGroupBuffer::AddMapping(PairBatch& batch, std::size_t i,
                                std::string_view name, std::int32_t chrom,
                                std::int64_t pos) {
  const CandidatePair c = batch.candidates[i];
  if (group_.empty()) {
    name_.assign(name);
    read_.assign(batch.cand_reads[c.read_index]);
  }
  group_.push_back({c.strand != 0 ? kSamReverse : 0, chrom, pos,
                    batch.edits[i], std::move(batch.cigars[i])});
}

std::size_t SamGroupBuffer::FlushGroup(std::ostream& out,
                                       const ReferenceSet& ref) {
  if (group_.empty()) return 0;
  // One summary scan gives the primary record and its MAPQ (every other
  // placement scores 0), then primary-only or everything-with-secondaries-
  // flagged, exactly like the record-list writers.
  group_edits_.clear();
  for (const GroupRecord& g : group_) group_edits_.push_back(g.edits);
  const EditSummary s = SummarizeEdits(group_edits_);
  const std::size_t primary = PrimaryIndex(group_edits_, s);
  const int primary_mapq =
      ComputeMapq(s.best, s.second, s.best_count, options_.mapq_cap);
  std::size_t written = 0;
  bool rc_ready = false;
  for (std::size_t g = 0; g < group_.size(); ++g) {
    if (g != primary && options_.secondary == SecondaryPolicy::kBestOnly) {
      continue;
    }
    const GroupRecord& r = group_[g];
    const bool reverse = (r.flags & kSamReverse) != 0;
    if (reverse && !rc_ready) {
      ReverseComplementInto(read_, &rc_scratch_);
      rc_ready = true;
    }
    const int flags = r.flags | (g == primary ? 0 : kSamSecondary);
    WriteSamLine(out, name_, flags, reverse ? rc_scratch_ : read_,
                 ref.chromosome(static_cast<std::size_t>(r.chrom)).name,
                 r.pos, r.edits, g == primary ? primary_mapq : 0, r.cigar,
                 options_.read_group);
    ++written;
  }
  group_.clear();
  return written;
}

}  // namespace gkgpu::pipeline
