#include "mapper/mapper.hpp"

#include <algorithm>
#include <stdexcept>

#include "encode/revcomp.hpp"
#include "mapper/minimizer.hpp"
#include "obs/names.hpp"
#include "pipeline/candidate_packer.hpp"
#include "util/timer.hpp"

namespace gkgpu {

ReadMapper::ReadMapper(ReferenceSet reference, MapperConfig config)
    : ref_(std::move(reference)),
      config_(config),
      index_(SeedIndex::Build(ref_,
                              SeedConfig{config.k, config.seed_mode,
                                         config.minimizer_w,
                                         config.shard_max_bp})) {}

ReadMapper::ReadMapper(std::string genome, MapperConfig config)
    : ReadMapper(ReferenceSet("synthetic_chr1", std::move(genome)), config) {}

ReadMapper::ReadMapper(ReferenceSet reference, SeedIndex index,
                       MapperConfig config)
    : ref_(std::move(reference)),
      config_(config),
      index_(std::move(index)) {
  if (index_.k() != config_.k) {
    throw std::invalid_argument(
        "ReadMapper: preloaded index was built with k=" +
        std::to_string(index_.k()) + " but the mapper is configured for k=" +
        std::to_string(config_.k));
  }
  if (index_.genome_length() != static_cast<std::size_t>(ref_.length())) {
    throw std::invalid_argument(
        "ReadMapper: preloaded index covers " +
        std::to_string(index_.genome_length()) +
        " bases but the reference holds " + std::to_string(ref_.length()));
  }
  // Seeding must run the strategy the persisted CSR encodes.
  config_.seed_mode = index_.mode();
  if (index_.mode() == SeedMode::kMinimizer) {
    config_.minimizer_w = index_.minimizer_w();
  }
}

void ReadMapper::AppendSeeds(std::string_view read,
                             std::vector<SeedHit>* seeds,
                             std::vector<MinimizerHit>* minimizers) const {
  if (config_.seed_mode == SeedMode::kMinimizer) {
    // Anchoring the read so its minimizer coincides with the reference's:
    // both sides select the same k-mer of any shared error-free window of
    // w+k-1 bases (selection is a pure function of window content).
    minimizers->clear();
    CollectMinimizers(read, index_.k(), index_.minimizer_w(), minimizers);
    for (const MinimizerHit& m : *minimizers) {
      seeds->push_back({static_cast<std::int64_t>(m.code),
                        static_cast<std::int32_t>(m.pos)});
    }
    return;
  }
  // Pigeonhole seeding: e+1 non-overlapping k-mers guarantee that a read
  // within the threshold shares at least one exact seed with its locus.
  const int k = config_.k;
  const int n_seeds =
      std::min(config_.error_threshold + 1, static_cast<int>(read.size()) / k);
  for (int s = 0; s < n_seeds; ++s) {
    const int offset = s * k;
    const std::int64_t code = index_.shard(0).Encode(
        read.substr(static_cast<std::size_t>(offset),
                    static_cast<std::size_t>(k)));
    if (code >= 0) seeds->push_back({code, offset});
  }
}

void ReadMapper::CollectFromSeeds(const SeedHit* begin, const SeedHit* end,
                                  int length,
                                  std::vector<std::int64_t>* candidates)
    const {
  candidates->clear();
  const std::int64_t genome_len = ref_.length();
  const std::size_t shards = index_.shard_count();
  for (const SeedHit* seed = begin; seed != end; ++seed) {
    for (std::size_t sh = 0; sh < shards; ++sh) {
      const std::int64_t shard_base = index_.plan().shard(sh).text_offset;
      for (const std::uint32_t pos : index_.shard(sh).LookupCode(seed->code)) {
        // Shard-local hit -> global candidate window.  Because shards tile
        // chromosome groups, every window that survives the junction check
        // below lies inside one shard; the merged set across shards is
        // exactly what one monolithic index would seed.
        const std::int64_t start =
            shard_base + static_cast<std::int64_t>(pos) - seed->offset;
        if (start < 0 || start + length > genome_len) continue;
        // A window reaching across a chromosome junction would align the
        // read against a chimeric segment; drop it at seeding time.
        if (ref_.chromosome_count() > 1 &&
            !ref_.WindowWithinChromosome(start, length)) {
          continue;
        }
        candidates->push_back(start);
      }
    }
  }
  std::sort(candidates->begin(), candidates->end());
  candidates->erase(std::unique(candidates->begin(), candidates->end()),
                    candidates->end());
}

void ReadMapper::CollectCandidates(std::string_view read,
                                   std::vector<std::int64_t>* candidates)
    const {
  thread_local std::vector<SeedHit> seeds;
  thread_local std::vector<MinimizerHit> minimizers;
  seeds.clear();
  AppendSeeds(read, &seeds, &minimizers);
  CollectFromSeeds(seeds.data(), seeds.data() + seeds.size(),
                   static_cast<int>(read.size()), candidates);
}

void ReadMapper::CollectCandidatesOriented(
    std::string_view read, std::string* rc,
    std::vector<std::int64_t>* scratch,
    std::vector<OrientedCandidate>* candidates) const {
  candidates->clear();
  CollectCandidates(read, scratch);
  for (const std::int64_t pos : *scratch) candidates->push_back({pos, 0});
  // Reverse strand: a read sampled from the reverse strand equals the
  // reverse complement of a forward window, so seeding rc(read) against
  // the forward index finds exactly those loci.
  ReverseComplementInto(read, rc);
  CollectCandidates(*rc, scratch);
  for (const std::int64_t pos : *scratch) candidates->push_back({pos, 1});
}

void ReadMapper::CollectCandidatesGroup(std::span<const SeedTask> tasks,
                                        SeedGroupScratch* scratch) const {
  // Reads per prefetch slice: their ~200 seed lookups' lines stay well
  // inside L1 between the prefetch and the collect passes.
  constexpr std::size_t kSlice = 16;
  const std::size_t shards = index_.shard_count();
  if (scratch->rc.size() < kSlice) scratch->rc.resize(kSlice);
  for (std::size_t first = 0; first < tasks.size(); first += kSlice) {
    const std::size_t n = std::min(kSlice, tasks.size() - first);
    // Pass 1: hash every seed of both strands; prefetch its offsets.
    scratch->seeds.clear();
    scratch->seed_begin.clear();
    for (std::size_t t = 0; t < n; ++t) {
      const std::string_view read = tasks[first + t].read;
      ReverseComplementInto(read, &scratch->rc[t]);
      scratch->seed_begin.push_back(scratch->seeds.size());
      AppendSeeds(read, &scratch->seeds, &scratch->minimizers);
      scratch->seed_begin.push_back(scratch->seeds.size());
      AppendSeeds(scratch->rc[t], &scratch->seeds, &scratch->minimizers);
    }
    scratch->seed_begin.push_back(scratch->seeds.size());
    for (std::size_t sh = 0; sh < shards; ++sh) {
      const std::span<const std::uint32_t> offsets = index_.shard(sh).offsets();
      for (const SeedHit& seed : scratch->seeds) {
        if (static_cast<std::size_t>(seed.code) + 1 < offsets.size()) {
          __builtin_prefetch(offsets.data() + seed.code);
        }
      }
    }
    // Pass 2: the offsets are in flight or cached; prefetch each run.
    for (std::size_t sh = 0; sh < shards; ++sh) {
      const KmerIndex& shard = index_.shard(sh);
      for (const SeedHit& seed : scratch->seeds) {
        const std::span<const std::uint32_t> run = shard.LookupCode(seed.code);
        if (!run.empty()) __builtin_prefetch(run.data());
      }
    }
    // Pass 3: collect, exactly as CollectCandidatesOriented does.
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<OrientedCandidate>* out = tasks[first + t].candidates;
      const int length = static_cast<int>(tasks[first + t].read.size());
      out->clear();
      for (std::uint8_t strand = 0; strand < 2; ++strand) {
        const std::size_t b = scratch->seed_begin[2 * t + strand];
        const std::size_t e = scratch->seed_begin[2 * t + strand + 1];
        CollectFromSeeds(scratch->seeds.data() + b, scratch->seeds.data() + e,
                         length, &scratch->positions);
        for (const std::int64_t pos : scratch->positions) {
          out->push_back({pos, strand});
        }
      }
    }
  }
}

void ReadMapper::PublishSeedObservability(const MappingStats& stats) const {
  obs::CandidatesSeeded().Inc(stats.candidates_total);
  obs::SeederCandidates(SeedModeName(config_.seed_mode))
      .Inc(stats.candidates_total);
  for (std::size_t s = 0; s < stats.shard_candidates.size(); ++s) {
    obs::ShardCandidates(std::to_string(s)).Inc(stats.shard_candidates[s]);
  }
  obs::ReadsMapped().Inc(stats.mapped_reads);
  obs::ReadsUnmapped().Inc(stats.reads - stats.mapped_reads);
}

MappingStats ReadMapper::MapReads(const std::vector<std::string>& reads,
                                  GateKeeperGpuEngine* filter,
                                  pipeline::PipelineConfig pcfg,
                                  std::vector<MappingRecord>* out) {
  if (filter != nullptr) {
    const std::size_t expected =
        static_cast<std::size_t>(filter->config().read_length);
    for (const std::string& r : reads) {
      if (r.size() != expected) {
        throw std::invalid_argument(
            "MapReads: with a filter every read must match the engine's "
            "configured read length " + std::to_string(expected));
      }
    }
  }

  MappingStats stats;
  stats.reads = reads.size();
  if (index_.shard_count() > 1) {
    stats.shard_candidates.assign(index_.shard_count(), 0);
  }
  WallTimer total;
  if (filter != nullptr && !filter->HasReference()) {
    WallTimer prep;
    filter->LoadReference(ref_.text());
    stats.preprocess_seconds += prep.Seconds();
  }

  pcfg.reference_text = ref_.text();
  pcfg.reference_fingerprint = ref_.fingerprint();
  pcfg.verify = true;
  pcfg.verify_threshold = config_.error_threshold;
  pipeline::StreamingPipeline pipe(filter, pcfg);

  // Source: seed reads in input order and pack candidate batches (the
  // read-table dedup and mid-read batch-split carry-over live in
  // PackCandidateBatch).
  pipeline::CandidateStream stream;
  std::size_t next_read = 0;
  std::size_t cur_read = 0;
  double seed_seconds = 0.0;
  std::uint64_t candidates_total = 0;
  std::string rc_buf;
  std::vector<std::int64_t> seed_scratch;

  const pipeline::BatchSource source = [&](pipeline::PairBatch* batch) {
    WallTimer seed_timer;
    const std::size_t target =
        std::max<std::size_t>(1, std::min(batch->target_size,
                                          pipe.config().batch_size));
    pipeline::PackCandidateBatch(
        batch, target, &stream,
        [&](std::vector<OrientedCandidate>* positions) -> const std::string* {
          if (next_read >= reads.size()) return nullptr;
          cur_read = next_read++;
          CollectCandidatesOriented(reads[cur_read], &rc_buf, &seed_scratch,
                                    positions);
          candidates_total += positions->size();
          if (!stats.shard_candidates.empty()) {
            for (const OrientedCandidate& oc : *positions) {
              ++stats.shard_candidates[index_.plan().ShardOf(oc.pos)];
            }
          }
          return &reads[cur_read];
        },
        [&](const OrientedCandidate&, bool) {
          batch->read_index.push_back(static_cast<std::uint32_t>(cur_read));
        });
    seed_seconds += seed_timer.Seconds();
    return batch->size() > 0;
  };

  std::vector<bool> read_mapped(reads.size(), false);
  const pipeline::BatchSink sink = [&](pipeline::PairBatch&& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.edits[i] < 0) continue;
      ++stats.mappings;
      read_mapped[batch.read_index[i]] = true;
      if (out != nullptr) {
        out->push_back(MappingRecord{batch.read_index[i],
                                     batch.candidates[i].ref_pos,
                                     batch.edits[i],
                                     batch.candidates[i].strand});
      }
    }
  };

  const pipeline::PipelineStats ps = pipe.Run(source, sink);
  stats.seeding_seconds = seed_seconds;
  stats.candidates_total = candidates_total;
  stats.verification_pairs = ps.verified_pairs;
  stats.rejected_pairs = ps.rejected;
  stats.bypassed_pairs = ps.bypassed;
  stats.filter_seconds = ps.filter_seconds;
  stats.filter_kernel_seconds = ps.kernel_seconds;
  stats.filter_encode_seconds = ps.encode_seconds;
  stats.verification_seconds = ps.verify_seconds;
  stats.mapped_reads = static_cast<std::uint64_t>(
      std::count(read_mapped.begin(), read_mapped.end(), true));
  stats.total_seconds = total.Seconds();
  PublishSeedObservability(stats);
  return stats;
}

}  // namespace gkgpu
