// mrFAST-like seed-and-extend read mapper with a pluggable pre-alignment
// filter, reproducing the integration of GateKeeper-GPU Sec. 3.5:
//
//   seed (k-mer index lookups, pigeonhole seeds)
//     -> batch candidate locations for many reads
//     -> [optional] GateKeeper-GPU pre-alignment filtering
//     -> verification (banded edit distance <= e)
//     -> mapping records + the statistics Table 3 reports.
//
// MapReads is the one single-end driver: seeding feeds the candidate-mode
// StreamingPipeline, which filters, verifies and hands back mappings in
// input order.  Without a filter the same pipeline sends every candidate
// to verification ("No Filter" rows); with a filter only accepted +
// bypassed pairs get there.
#ifndef GKGPU_MAPPER_MAPPER_HPP
#define GKGPU_MAPPER_MAPPER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "io/reference.hpp"
#include "mapper/seed_index.hpp"
#include "pipeline/candidate_packer.hpp"
#include "pipeline/pipeline.hpp"

namespace gkgpu {

struct MapperConfig {
  int k = 12;
  int read_length = 100;
  int error_threshold = 5;
  /// Read by nothing: verification threads are PipelineConfig::
  /// verify_workers.  Kept only because perfbench/replay.cpp still assigns
  /// it; drop both together.
  unsigned verify_threads = 0;
  /// Seeding strategy: dense pigeonhole seeds (the mrFAST default) or
  /// (w,k) minimizer sampling (see mapper/minimizer.hpp).
  SeedMode seed_mode = SeedMode::kDense;
  int minimizer_w = 5;  // winnowing window, minimizer mode only
  /// Shard byte budget for the index (see SeedConfig::shard_max_bp);
  /// 0 = one shard per 4 Gbp.
  std::int64_t shard_max_bp = 0;
};

struct MappingRecord {
  std::uint32_t read_index = 0;
  std::int64_t pos = 0;
  int edit_distance = 0;
  /// 0 = the read maps forward; 1 = its reverse complement does (SAM FLAG
  /// 0x10, reverse-complemented SEQ in output).
  std::uint8_t strand = 0;
};

/// The metrics of Table 3 / Sup. Tables S.24-S.26 plus stage timings.
struct MappingStats {
  std::uint64_t reads = 0;
  std::uint64_t mappings = 0;
  std::uint64_t mapped_reads = 0;
  std::uint64_t candidates_total = 0;    // potential mappings found by seeding
  std::uint64_t verification_pairs = 0;  // candidates entering verification
  std::uint64_t rejected_pairs = 0;      // discarded by the filter
  std::uint64_t bypassed_pairs = 0;      // undefined pairs passed through
  /// Candidates attributed to each index shard (empty when the index is a
  /// single shard — the per-shard breakdown only exists on sharded runs).
  std::vector<std::uint64_t> shard_candidates;

  double seeding_seconds = 0.0;
  double preprocess_seconds = 0.0;     // filter-side host preprocessing
  double filter_seconds = 0.0;         // total filtering ("ft")
  double filter_kernel_seconds = 0.0;  // device time only ("kt")
  double filter_encode_seconds = 0.0;  // host-side encoding within filtering
  double verification_seconds = 0.0;   // the DP stage the filter offloads
  double total_seconds = 0.0;

  double ReductionPercent() const {
    return candidates_total == 0
               ? 0.0
               : 100.0 * static_cast<double>(rejected_pairs) /
                     static_cast<double>(candidates_total);
  }
};

class ReadMapper {
 public:
  /// Multi-chromosome mapper: one k-mer index and one encoded reference
  /// over the concatenated text; mappings carry global positions that the
  /// reference set maps back to (chromosome, local position).
  ReadMapper(ReferenceSet reference, MapperConfig config);
  /// Single-sequence convenience (the chromosome is named
  /// "synthetic_chr1", matching the synthetic-genome tooling).
  ReadMapper(std::string genome, MapperConfig config);
  /// Preloaded-index mapper: adopts an already-built (typically mmap'd,
  /// view-mode) sharded index instead of scanning the genome.  The index's
  /// k must equal `config.k` and its genome_length the reference length;
  /// throws std::invalid_argument otherwise.  The index's seed mode,
  /// winnowing window and shard layout override the config's — they are
  /// baked into the persisted CSR payload.  When either the reference or
  /// the index is a view, the backing storage (the MappedIndexFile) must
  /// outlive the mapper.
  ReadMapper(ReferenceSet reference, SeedIndex index, MapperConfig config);

  const ReferenceSet& reference() const { return ref_; }
  std::string_view genome() const { return ref_.text(); }
  const MapperConfig& config() const { return config_; }
  const SeedIndex& index() const { return index_; }

  /// Maps `reads` through seed lookup -> candidate filtration -> banded
  /// verification on the candidate-mode StreamingPipeline.  When `filter`
  /// is non-null it is the pre-alignment stage (its reference is loaded on
  /// first use) and every read must match its configured read length;
  /// when null every candidate is verified and reads may differ in length.
  /// `pcfg` sizes batches and worker pools; its `reference_text`, `verify`
  /// and `verify_threshold` are set by the mapper.  `out` (optional)
  /// receives every verified mapping, in read order.
  MappingStats MapReads(const std::vector<std::string>& reads,
                        GateKeeperGpuEngine* filter,
                        pipeline::PipelineConfig pcfg = {},
                        std::vector<MappingRecord>* out = nullptr);

  /// Seeding only, forward strand: candidate locations for one read
  /// (deduplicated, global coordinates, never spanning a chromosome
  /// junction).
  void CollectCandidates(std::string_view read,
                         std::vector<std::int64_t>* candidates) const;

  /// Strand-aware seeding: both the read and its reverse complement are
  /// seeded against the index; forward candidates come first (sorted,
  /// deduplicated per strand).  `rc` receives the reverse complement (the
  /// caller reuses it for verification and SAM output) and `scratch` is a
  /// per-call position buffer, both amortized across a read loop.
  void CollectCandidatesOriented(std::string_view read, std::string* rc,
                                 std::vector<std::int64_t>* scratch,
                                 std::vector<OrientedCandidate>* candidates)
      const;

 private:
  void CollectDense(std::string_view read,
                    std::vector<std::int64_t>* candidates) const;
  void CollectMinimizerSeeds(std::string_view read,
                             std::vector<std::int64_t>* candidates) const;
  void PublishSeedObservability(const MappingStats& stats) const;

  ReferenceSet ref_;
  MapperConfig config_;
  SeedIndex index_;
};

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_MAPPER_HPP
