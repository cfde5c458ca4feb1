// Per-read SAM record grouping shared by every ordered candidate-mode
// sink.  Verified mappings buffer until the read's last candidate retires
// (PairBatch::last_of_read) — only then is the read's multiplicity known
// and its records scorable — and the flush runs the exact computation of
// the record-list writers (SummarizeEdits -> PrimaryIndex -> ComputeMapq ->
// WriteSamLine under the secondary policy).  StreamFastqToSam and the
// daemon's per-session demultiplexer both format through this one class,
// which is what keeps served output byte-identical to a standalone run.
#ifndef GKGPU_PIPELINE_SAM_GROUP_HPP
#define GKGPU_PIPELINE_SAM_GROUP_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "io/reference.hpp"
#include "mapper/mapq.hpp"
#include "mapper/sam.hpp"
#include "pipeline/batch.hpp"

namespace gkgpu::pipeline {

struct SamGroupOptions {
  /// RG:Z:<id> on every record ("" = none).
  std::string read_group;
  /// MAPQ ceiling (mapper/mapq.hpp).
  int mapq_cap = kDefaultMapqCap;
  /// Best-only (default) or report-secondary (FLAG 0x100, MAPQ 0).
  SecondaryPolicy secondary = SecondaryPolicy::kBestOnly;
};

class SamGroupBuffer {
 public:
  explicit SamGroupBuffer(SamGroupOptions options)
      : options_(std::move(options)) {}

  /// Buffers batch entry `i` (must be a verified mapping: edits[i] >= 0)
  /// of the read named `name`, placed at chromosome `chrom`, local
  /// position `pos`.  Every mapping of one group belongs to one read.
  /// Reverse-strand mappings write FLAG 0x10 and the reverse-complemented
  /// sequence, the bytes the record-list writers produce.  Consumes
  /// batch.cigars[i].
  void AddMapping(PairBatch& batch, std::size_t i, std::string_view name,
                  std::int32_t chrom, std::int64_t pos);

  /// Scores and writes the buffered group (call when last_of_read fires);
  /// returns the number of records emitted.  A read whose candidates all
  /// failed verification has an empty group and writes nothing.
  std::size_t FlushGroup(std::ostream& out, const ReferenceSet& ref);

  bool empty() const { return group_.empty(); }

 private:
  struct GroupRecord {
    int flags = 0;
    std::int32_t chrom = 0;
    std::int64_t pos = 0;
    int edits = 0;
    std::string cigar;
  };

  SamGroupOptions options_;
  // The group's read: its name and forward sequence, set by the group's
  // first mapping.
  std::string name_;
  std::string read_;
  std::vector<GroupRecord> group_;
  std::vector<int> group_edits_;
  std::string rc_scratch_;
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_SAM_GROUP_HPP
