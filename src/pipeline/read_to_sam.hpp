// End-to-end streaming front ends over StreamingPipeline:
//
//   * StreamFastqToSam — FASTQ in, ordered SAM out, on the candidate-mode
//     streaming path: reads are chunked off the stream, seeded against the
//     mapper's k-mer index, and the (read, reference-offset) candidates
//     flow through filtration (windows sliced from the per-device encoded
//     reference — no per-candidate segment strings) and banded
//     verification; the ordered sink writes one SAM line per verified
//     mapping, addressed (chromosome, local position) through the mapper's
//     ReferenceSet.  Memory stays bounded by the queue depths no matter
//     the input size.
//   * FilterPairsStreaming — the streaming analogue of
//     GateKeeperGpuEngine::FilterPairs over an in-memory pair set, used by
//     the equivalence tests and the pipeline bench.
#ifndef GKGPU_PIPELINE_READ_TO_SAM_HPP
#define GKGPU_PIPELINE_READ_TO_SAM_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mapper/mapper.hpp"
#include "mapper/mapq.hpp"
#include "mapper/sam.hpp"
#include "pipeline/pipeline.hpp"

namespace gkgpu::pipeline {

struct ReadToSamConfig {
  PipelineConfig pipeline;
  /// Read-group ID: RG:Z:<id> on every record ("" = none); the matching
  /// @RG header line is the caller's (WriteSamHeader's read_group).
  std::string read_group;
  /// MAPQ ceiling (mapper/mapq.hpp): the sink buffers each read's
  /// verified mappings until its multiplicity is complete
  /// (PairBatch::last_of_read), scores them with AssignMapqs, and emits —
  /// the same computation the record-list writers run, so golden SAMs stay
  /// byte-identical across drivers.
  int mapq_cap = kDefaultMapqCap;
  /// Multi-mapping output mode (mapper/sam.hpp): best-only (default) or
  /// report-secondary (FLAG 0x100, MAPQ 0) — identical semantics to the
  /// record-list writers.  CLI --report-secondary.
  SecondaryPolicy secondary = SecondaryPolicy::kBestOnly;
};

struct ReadToSamStats {
  PipelineStats pipeline;
  std::uint64_t reads = 0;
  std::uint64_t skipped_reads = 0;  // length != engine read length
  std::uint64_t candidates = 0;
  std::uint64_t mappings = 0;
  std::uint64_t mapped_reads = 0;
};

/// Streams `fastq` through seed -> candidate filtration -> verify -> SAM.
/// The engine's read length defines which reads are mappable; its
/// reference is loaded from the mapper's genome on first use.  `sam` may
/// be null to run the pipeline for its statistics only (the header is
/// written by the caller so multiple streams can share one file; use
/// WriteSamHeader(out, mapper.reference()) for the matching @SQ lines).
ReadToSamStats StreamFastqToSam(std::istream& fastq, const ReadMapper& mapper,
                                GateKeeperGpuEngine* engine,
                                const ReadToSamConfig& config,
                                std::ostream* sam);

/// Streams an in-memory pair set through the pipeline and collects
/// per-pair results (and, when `edits` is non-null and verification is
/// enabled, exact banded distances) in input order.
PipelineStats FilterPairsStreaming(GateKeeperGpuEngine* engine,
                                   const PipelineConfig& config,
                                   const std::vector<std::string>& reads,
                                   const std::vector<std::string>& refs,
                                   std::vector<PairResult>* results,
                                   std::vector<int>* edits = nullptr);

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_READ_TO_SAM_HPP
