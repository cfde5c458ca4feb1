// Test helper: runs in-memory mate lists through PairedEndMapper::MapPairs,
// the one paired driver, by writing them as dual-file FASTQ streams.
// Records with an empty quality string get WriteFastq's 'I' qualities.
#ifndef GKGPU_TESTS_PAIRED_STREAM_HPP
#define GKGPU_TESTS_PAIRED_STREAM_HPP

#include <ostream>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "io/fastq.hpp"
#include "io/paired_fastq.hpp"
#include "paired/paired.hpp"
#include "pipeline/pipeline.hpp"

namespace gkgpu {

inline PairedStats MapPairRecords(PairedEndMapper& paired,
                                  const std::vector<FastqRecord>& r1,
                                  const std::vector<FastqRecord>& r2,
                                  GateKeeperGpuEngine* engine,
                                  std::ostream* sam,
                                  pipeline::PipelineConfig pcfg = {}) {
  std::stringstream fq1, fq2;
  WriteFastq(fq1, r1);
  WriteFastq(fq2, r2);
  PairedFastqReader reader(fq1, fq2);
  return paired.MapPairs(reader, engine, pcfg, sam);
}

}  // namespace gkgpu

#endif  // GKGPU_TESTS_PAIRED_STREAM_HPP
