#include "pipeline/read_to_sam.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <exception>
#include <mutex>
#include <ostream>
#include <utility>

#include "io/fastq.hpp"
#include "mapper/sam.hpp"
#include "pipeline/candidate_packer.hpp"
#include "pipeline/sam_group.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gkgpu::pipeline {

namespace {

/// Reads the source parses and seeds per fan-out.  A constant, so batches
/// do not depend on the helper count.
constexpr std::size_t kSeedChunk = 512;
/// Reads per ParallelFor claim within a chunk, seeded as one prefetched
/// group.
constexpr std::size_t kSeedGrain = 16;

/// One read of the current chunk and its seeding result.
struct SeededRead {
  FastqRecord rec;
  std::vector<OrientedCandidate> positions;
};

}  // namespace

ReadToSamStats StreamFastqToSam(std::istream& fastq, const ReadMapper& mapper,
                                GateKeeperGpuEngine* engine,
                                const ReadToSamConfig& config,
                                std::ostream* sam) {
  ReadToSamStats out;
  if (engine != nullptr && !engine->HasReference()) {
    engine->LoadReference(mapper.genome());
  }

  PipelineConfig pcfg = config.pipeline;
  pcfg.reference_text = mapper.genome();
  pcfg.reference_fingerprint = mapper.reference().fingerprint();
  // The caller's verify flag is honored: with verification off the run is
  // stats-only and no mapping is confirmed (no SAM lines), by design.
  pcfg.verify_threshold = mapper.config().error_threshold;
  pcfg.emit_cigar = sam != nullptr;
  StreamingPipeline pipeline(engine, pcfg);

  const ReferenceSet& ref = mapper.reference();
  const SeedIndex& index = mapper.index();
  // The filter's lanes are one read length wide; without a filter every
  // read maps, whatever its length.
  const std::size_t read_length =
      engine != nullptr
          ? static_cast<std::size_t>(engine->config().read_length)
          : 0;
  std::vector<std::uint64_t> shard_candidates(
      index.shard_count() > 1 ? index.shard_count() : 0, 0);

  // Seeding fans out per chunk: the source parses kSeedChunk reads, seeds
  // them on the helper pool plus itself (each read into its own slot),
  // then packs them serially in input order.  The helpers take the encode
  // workers' share of the thread budget; in candidate mode the encode
  // stage is nearly idle.
  ThreadPool seed_pool(static_cast<unsigned>(pipeline.config().encode_workers),
                       "gkgpu-seed");
  FastqStreamReader reader(fastq);
  std::vector<SeededRead> chunk(kSeedChunk);
  std::size_t chunk_size = 0;
  std::size_t chunk_next = 0;
  const auto refill_chunk = [&] {
    chunk_size = 0;
    chunk_next = 0;
    while (chunk_size < kSeedChunk && reader.Next(&chunk[chunk_size].rec)) {
      ++out.reads;
      const std::size_t length = chunk[chunk_size].rec.seq.size();
      if (read_length != 0 && length != read_length) {
        ++out.skipped_reads;  // its slot takes the next record
        continue;
      }
      ++chunk_size;
    }
    WallTimer seed_timer;
    // ThreadPool does not carry exceptions across threads: keep the first
    // and rethrow it here, on the source thread.
    std::mutex error_mu;
    std::exception_ptr error;
    seed_pool.ParallelFor(0, chunk_size, kSeedGrain, [&](std::size_t b,
                                                         std::size_t e) {
      try {
        std::vector<SeedTask> tasks;
        tasks.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) {
          tasks.push_back({chunk[i].rec.seq, &chunk[i].positions});
        }
        SeedGroupScratch scratch;
        mapper.CollectCandidatesGroup(tasks, &scratch);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
      }
    });
    out.seed_seconds += seed_timer.Seconds();
    if (error) std::rethrow_exception(error);
    return chunk_size > 0;
  };

  // The read whose candidates are being packed; its record stays in the
  // chunk until every candidate is out (a read whose candidates split
  // across batches; PackCandidateBatch repeats its sequence in each
  // batch's read table).
  const SeededRead* current = nullptr;
  std::uint32_t read_counter = 0;
  CandidateStream stream;

  const BatchSource source = [&](PairBatch* batch) {
    const std::size_t target = std::max<std::size_t>(
        1, std::min(batch->target_size, pipeline.config().batch_size));
    PackCandidateBatch(
        batch, target, &stream,
        [&](std::vector<OrientedCandidate>* positions) -> const std::string* {
          if (chunk_next == chunk_size && !refill_chunk()) {
            return nullptr;  // FASTQ exhausted
          }
          SeededRead& r = chunk[chunk_next++];
          positions->swap(r.positions);
          out.candidates += positions->size();
          if (!shard_candidates.empty()) {
            for (const OrientedCandidate& oc : *positions) {
              ++shard_candidates[index.plan().ShardOf(oc.pos)];
            }
          }
          ++read_counter;
          current = &r;
          return &r.rec.seq;
        },
        [&](const OrientedCandidate&, bool last) {
          if (batch->read_index.empty() ||
              batch->read_index.back() != read_counter - 1) {
            batch->read_names.push_back(current->rec.name);
          }
          batch->read_index.push_back(read_counter - 1);
          batch->last_of_read.push_back(last ? 1 : 0);
        });
    return batch->size() > 0;
  };

  // The sink sees batches in input order, and within a batch pairs keep
  // the seeding order, so each read's mappings arrive contiguously (even
  // across a batch split).  The grouping, scoring, and formatting live in
  // SamGroupBuffer, shared with the daemon's per-session demultiplexer.
  SamGroupBuffer groups(
      SamGroupOptions{config.read_group, config.mapq_cap, config.secondary});
  std::uint32_t last_mapped = 0;
  bool any_mapped = false;
  const BatchSink sink = [&](PairBatch&& batch) {
    std::size_t name = 0;  // read_names slot of pair i's read
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i > 0 && batch.read_index[i] != batch.read_index[i - 1]) ++name;
      if (batch.edits[i] >= 0) {
        ++out.mappings;
        if (!any_mapped || batch.read_index[i] != last_mapped) {
          ++out.mapped_reads;
          last_mapped = batch.read_index[i];
          any_mapped = true;
        }
        if (sam != nullptr) {
          // Seeding only emits in-chromosome windows.
          const std::int64_t pos = batch.candidates[i].ref_pos;
          const int chrom = ref.Locate(pos);
          assert(chrom >= 0);
          groups.AddMapping(batch, i, batch.read_names[name], chrom,
                            ref.ToLocal(chrom, pos));
        }
      }
      if (sam != nullptr && batch.last_of_read[i] != 0) {
        groups.FlushGroup(*sam, ref);
      }
    }
  };

  out.pipeline = pipeline.Run(source, sink);
  assert(groups.empty());  // every read's last candidate flushes its group
  MappingStats published;
  published.reads = out.reads - out.skipped_reads;
  published.candidates_total = out.candidates;
  published.shard_candidates = std::move(shard_candidates);
  published.mapped_reads = out.mapped_reads;
  mapper.PublishSeedObservability(published);
  return out;
}

PipelineStats FilterPairsStreaming(GateKeeperGpuEngine* engine,
                                   const PipelineConfig& config,
                                   const std::vector<std::string>& reads,
                                   const std::vector<std::string>& refs,
                                   std::vector<PairResult>* results,
                                   std::vector<int>* edits) {
  assert(reads.size() == refs.size());
  StreamingPipeline pipeline(engine, config);
  const std::size_t capacity = pipeline.config().batch_size;
  const std::size_t n = reads.size();
  if (results != nullptr) results->assign(n, PairResult{});
  if (edits != nullptr) edits->assign(n, -1);

  std::size_t offset = 0;
  const BatchSource source = [&](PairBatch* batch) {
    if (offset >= n) return false;
    const std::size_t target = std::max<std::size_t>(
        1, std::min(batch->target_size, capacity));
    const std::size_t count = std::min(target, n - offset);
    batch->reads.assign(reads.begin() + offset,
                        reads.begin() + offset + count);
    batch->refs.assign(refs.begin() + offset, refs.begin() + offset + count);
    offset += count;
    return true;
  };
  const BatchSink sink = [&](PairBatch&& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (results != nullptr) {
        (*results)[batch.first_pair + i] = batch.results[i];
      }
      if (edits != nullptr) (*edits)[batch.first_pair + i] = batch.edits[i];
    }
  };
  return pipeline.Run(source, sink);
}

}  // namespace gkgpu::pipeline
