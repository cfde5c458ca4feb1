// Streaming pipeline vs. the blocking engine path: throughput of
// StreamingPipeline (asynchronous, double-buffered, multi-device) against
// GateKeeperGpuEngine::FilterPairs (lockstep rounds, host preprocessing
// serialized with the device pipeline) on the same pair sets.
//
// The comparable quantity is the filtration makespan: for the blocking
// path FilterRunStats::filter_seconds (measured host work + simulated
// device time, serialized), for the pipeline PipelineStats::filter_seconds
// (the overlapped timeline where encoding streams concurrently with
// kernels and transfers).  Verification is disabled on both sides.
//
// The headline configuration is the paper's "encoding in device" design,
// where host staging and simulated device time are of comparable
// magnitude and the overlap discipline pays: the streaming path must show
// >= 1.3x on the 2-GPU setups.  Host-encoded rows are included for
// completeness; there the (real, single-machine) preprocessing dominates
// the simulated kernels by ~100x, so overlap gains are bounded by the
// device share — on real multicore hardware the encode worker pool closes
// that gap instead.
//
// A second gate covers the host-side batch filtration core: the same
// input pairs run once through the per-pair seed path (virtual
// Filter(string_view, string_view) per candidate — per-pair dispatch,
// per-pair encoding) and once through the batch API (one PairBlock,
// encode once, FilterBatch on uint64_t lanes / AVX2 / AVX-512 behind
// runtime dispatch).  The batched GateKeeper must clear 1.2x and the
// batched SneakySnake — whose decode-free maze build replaces a much
// heavier per-pair walk — 1.5x; throughputs and the dispatched kernel
// tier land in BENCH_pipeline.json next to the streaming numbers.
//
// Two service-mode gates ride along: the persistent index must mmap-load
// >= 10x faster than a cold in-memory rebuild (index + 2-bit encoding) of
// the same reference, and the daemon's served throughput over two
// concurrent Unix-socket clients is recorded as a trajectory point.
//
// The genome scale-out machinery is measured on a forced multi-shard
// layout (8 chromosomes, shard budget a quarter of the genome): per-shard
// CSR builds serial vs concurrent, and dense pigeonhole vs (w,k)
// minimizer seeding mapped filter-free on the same repeat-dense
// reference.  Two gates: winnowing must seed strictly fewer candidate
// pairs than the exhaustive every-read-k-mer scheme it subsamples, and —
// because every candidate is verified with banded DP on this path — must
// lose zero mapped reads against the dense pigeonhole default.
//
// Observability rides the same run: per-filter false-accept rates are
// computed from the metrics registry's funnel counters against banded-DP
// ground truth, a gate proves the always-on instrumentation costs <= 2%
// on the hot FilterBatch path (registry enabled vs disabled, legs of
// >= 250 ms interleaved batch by batch, median of per-rep ratios), and
// the full registry snapshot — funnel plus p99 stage latencies — is
// embedded in BENCH_pipeline.json.
//
// Scale with GKGPU_PAIRS (default 200,000), GKGPU_GENOME, GKGPU_READS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "align/banded.hpp"
#include "common.hpp"
#include "encode/dna.hpp"
#include "encode/revcomp.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/sneakysnake.hpp"
#include "io/index_io.hpp"
#include "io/reference.hpp"
#include "mapper/index.hpp"
#include "mapper/mapper.hpp"
#include "obs/metrics.hpp"
#include "pipeline/read_to_sam.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "simd/dispatch.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace gkgpu;
using namespace gkgpu::bench;

namespace {

struct RunResult {
  double sync_ft = 0.0;
  double pipe_ft = 0.0;
  double speedup() const { return pipe_ft > 0.0 ? sync_ft / pipe_ft : 0.0; }
};

RunResult RunOne(const Dataset& data, int length, int e, EncodingActor actor,
                 int setup, int ndev, std::size_t batch, int reps) {
  // Host staging/encoding is measured wall time on ~millisecond scales;
  // min-of-reps suppresses scheduler noise the same way for both paths.
  RunResult r;
  for (int rep = 0; rep < reps; ++rep) {
    auto devices =
        setup == 1 ? gpusim::MakeSetup1(ndev) : gpusim::MakeSetup2(ndev);
    const FilterRunStats s = RunEngine(data, length, e, actor, Ptrs(devices));
    r.sync_ft = rep == 0 ? s.filter_seconds
                         : std::min(r.sync_ft, s.filter_seconds);
  }
  for (int rep = 0; rep < reps; ++rep) {
    auto devices =
        setup == 1 ? gpusim::MakeSetup1(ndev) : gpusim::MakeSetup2(ndev);
    auto ptrs = Ptrs(devices);
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    cfg.encoding = actor;
    GateKeeperGpuEngine engine(cfg, ptrs);
    pipeline::PipelineConfig pcfg;
    pcfg.batch_size = batch;
    pcfg.encode_workers = 2;
    pcfg.slots_per_device = 2;
    pcfg.verify = false;
    // Occupancy-driven batch sizing with the batcher in the loop.  The
    // tuned size is the ceiling: growing past it would cut the batch
    // count below the >= ~24 the fill/drain amortization needs, so the
    // batcher starts there and only shrinks under sink backpressure.
    pcfg.adaptive = true;
    pcfg.adaptive_config.min_size = std::max<std::size_t>(512, batch / 2);
    pcfg.adaptive_config.max_size = batch;
    std::vector<PairResult> results;
    const pipeline::PipelineStats s = pipeline::FilterPairsStreaming(
        &engine, pcfg, data.reads, data.refs, &results);
    r.pipe_ft = rep == 0 ? s.filter_seconds
                         : std::min(r.pipe_ft, s.filter_seconds);
  }
  return r;
}

struct BatchFilterResult {
  double per_pair_s = 0.0;  // virtual Filter() per candidate
  double batch_s = 0.0;     // PairBlock build + FilterBatch
  std::uint64_t per_pair_accepts = 0;
  std::uint64_t batch_accepts = 0;
  double speedup() const {
    return batch_s > 0.0 ? per_pair_s / batch_s : 0.0;
  }
};

/// Times the filter stage both ways on identical inputs.  Both sides pay
/// their own preprocessing: the seed path encodes inside every Filter()
/// call, the batch path builds the encoded block once and filters it.
/// Undefined ('N') pairs bypass on both sides — the per-pair loop mirrors
/// the seed path's bypass policy, which the block builder encodes as the
/// bypass bit — so the accept counts are comparable for every filter, not
/// just those whose Filter() bypasses internally.
BatchFilterResult RunBatchFilterBench(const PreAlignmentFilter& filter,
                                      const Dataset& data, int length, int e,
                                      int reps) {
  const std::size_t n = data.size();
  BatchFilterResult r;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    std::uint64_t accepts = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ContainsUnknown(data.reads[i]) || ContainsUnknown(data.refs[i])) {
        ++accepts;
        continue;
      }
      accepts += filter.Filter(data.reads[i], data.refs[i], e).accept ? 1 : 0;
    }
    const double s = t.Seconds();
    r.per_pair_s = rep == 0 ? s : std::min(r.per_pair_s, s);
    r.per_pair_accepts = accepts;
  }
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    PairBlockStorage block(length);
    for (std::size_t i = 0; i < n; ++i) {
      block.Add(data.reads[i], data.refs[i]);
    }
    std::vector<PairResult> results(n);
    filter.FilterBatch(block.view(), e, results.data());
    const double s = t.Seconds();
    r.batch_s = rep == 0 ? s : std::min(r.batch_s, s);
    std::uint64_t accepts = 0;
    for (const PairResult& pr : results) accepts += pr.accept;
    r.batch_accepts = accepts;
  }
  return r;
}

/// Host-tier accepts of one filter, read from the registry's funnel
/// counters (the same series `gkgpu stats` exposes).
std::uint64_t RegistryAccepts(const char* filter) {
  return static_cast<std::uint64_t>(
      obs::Registry::Global().Snapshot().Value(
          "gkgpu_filter_accepts_total",
          {{"filter", filter},
           {"tier", simd::LevelName(simd::ActiveLevel())}}));
}

struct OverheadResult {
  int reps = 0;
  std::size_t batches_per_leg = 0;
  double enabled_s = 0.0;   // median leg, registry enabled
  double disabled_s = 0.0;  // median leg, registry disabled
  double ratio = 1.0;       // median of the per-rep enabled/disabled ratios
  double ratio_lo = 1.0;    // smallest and largest per-rep ratio
  double ratio_hi = 1.0;
  /// Clamped at zero: a negative median is measurement noise (the enabled
  /// leg cannot be faster), and reporting it as negative overhead only
  /// destabilizes trend plots.
  double overhead_pct() const { return std::max(0.0, (ratio - 1.0) * 100.0); }
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The always-on-cheap gate: the hot host filtration path timed with the
/// metrics registry enabled vs disabled.  One FilterBatch takes a few
/// milliseconds, too short a window to resolve a 2% difference, so each
/// leg of a rep repeats it until the leg adds up to at least
/// kMinLegSeconds.  The host's speed drifts over seconds, so the two legs
/// are interleaved batch by batch (alternating which goes first) and both
/// sample the same conditions; the gate reads the median of the per-rep
/// enabled/disabled ratios.
OverheadResult RunMetricsOverheadBench(const PreAlignmentFilter& filter,
                                       const Dataset& data, int length,
                                       int e, int reps) {
  constexpr double kMinLegSeconds = 0.25;
  const std::size_t n = data.size();
  PairBlockStorage block(length);
  for (std::size_t i = 0; i < n; ++i) {
    block.Add(data.reads[i], data.refs[i]);
  }
  std::vector<PairResult> results(n);
  const PairBlock view = block.view();
  const auto timed_batch = [&](bool enabled) {
    obs::SetEnabled(enabled);
    WallTimer t;
    filter.FilterBatch(view, e, results.data());
    return t.Seconds();
  };

  // Warm both legs up (cold caches and lazy counter resolution otherwise
  // land on whichever leg runs first); the disabled warmup also sizes the
  // legs: as many batches as fill kMinLegSeconds.
  timed_batch(true);
  OverheadResult r;
  r.reps = reps;
  for (double warm_s = 0.0; warm_s < kMinLegSeconds; ++r.batches_per_leg) {
    warm_s += timed_batch(false);
  }

  std::vector<double> on_s, off_s, ratios;
  for (int rep = 0; rep < reps; ++rep) {
    double on = 0.0;
    double off = 0.0;
    for (std::size_t k = 0; k < r.batches_per_leg; ++k) {
      const bool on_first = (k + static_cast<std::size_t>(rep)) % 2 == 0;
      if (on_first) on += timed_batch(true);
      off += timed_batch(false);
      if (!on_first) on += timed_batch(true);
    }
    on_s.push_back(on);
    off_s.push_back(off);
    ratios.push_back(on / off);
  }
  obs::SetEnabled(true);
  r.enabled_s = Median(on_s);
  r.disabled_s = Median(off_s);
  r.ratio = Median(ratios);
  r.ratio_lo = *std::min_element(ratios.begin(), ratios.end());
  r.ratio_hi = *std::max_element(ratios.begin(), ratios.end());
  return r;
}

struct IndexLoadResult {
  double build_s = 0.0;  // cold rebuild: CSR index + 2-bit encoding
  double load_s = 0.0;   // MappedIndexFile::Open
  double speedup() const { return load_s > 0.0 ? build_s / load_s : 0.0; }
};

/// Startup cost both ways on the same reference: rebuilding the mapper's
/// startup artifacts from the text vs mmap-loading the persisted file.
IndexLoadResult RunIndexLoadBench(const ReferenceSet& ref,
                                  const std::string& path, int reps) {
  IndexLoadResult r;
  BuildAndWriteIndexFile(path, ref, 12);
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    const KmerIndex index(ref.text(), 12);
    const ReferenceEncoding enc = EncodeReference(ref.text());
    // Consume both so the builds cannot be elided.
    const double s =
        index.positions().size() + enc.words.size() > 0 ? t.Seconds() : 0.0;
    r.build_s = rep == 0 ? s : std::min(r.build_s, s);
  }
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    const MappedIndexFile mapped = MappedIndexFile::Open(path);
    const double s = mapped.file_bytes() > 0 ? t.Seconds() : 0.0;
    r.load_s = rep == 0 ? s : std::min(r.load_s, s);
  }
  return r;
}

struct ServedResult {
  double wall_s = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t coalesced_batches = 0;
};

/// Daemon throughput: a MapServer resident on the mmap'd index, two
/// concurrent clients each submitting half the reads over the socket.
ServedResult RunServedBench(const MappedIndexFile& mapped,
                            std::size_t read_count) {
  MapperConfig mcfg;
  mcfg.k = mapped.k();
  mcfg.read_length = 100;
  mcfg.error_threshold = 5;
  const ReadMapper mapper(mapped.reference(), mapped.seed_index().Alias(),
                          mcfg);

  auto devices = gpusim::MakeSetup1(2);
  auto ptrs = Ptrs(devices);
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 5;
  GateKeeperGpuEngine engine(cfg, ptrs);
  engine.LoadReference(mapped.encoding(), mapped.reference_fingerprint());

  serve::ServeConfig scfg;
  scfg.socket_path = (std::filesystem::temp_directory_path() /
                      "gkgpu_bench_pipeline.sock")
                         .string();
  scfg.threads = 4;
  serve::MapServer server(mapper, &engine, scfg);
  std::thread run([&] { server.Run(); });
  while (!server.serving()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto seqs = SimulateReadSequences(
      mapped.reference().text(), read_count, 100,
      ReadErrorProfile::Illumina(), 733);
  std::string fastq_a, fastq_b;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    std::string& dst = i % 2 == 0 ? fastq_a : fastq_b;
    dst += "@b" + std::to_string(i) + "\n" + seqs[i] + "\n+\n" +
           std::string(seqs[i].size(), 'I') + "\n";
  }

  ServedResult r;
  WallTimer t;
  const auto client = [&](const std::string& text) {
    std::istringstream fastq(text);
    std::ostringstream sam;
    serve::MapOverSocket(scfg.socket_path, fastq, sam);
  };
  std::thread ca([&] { client(fastq_a); });
  std::thread cb([&] { client(fastq_b); });
  ca.join();
  cb.join();
  r.wall_s = t.Seconds();
  server.Shutdown();
  run.join();
  const serve::ServeStats stats = server.stats();
  r.reads = stats.reads;
  r.coalesced_batches = stats.coalesced_batches;
  return r;
}

struct ShardBuildResult {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  std::size_t shard_count = 0;
  double speedup() const {
    return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  }
};

/// Per-shard build concurrency on a forced multi-shard layout: the same
/// SeedIndex built with one worker vs one thread per shard.  k = 10 keeps
/// the per-shard offset tables small enough that the bench exercises the
/// scheduling, not the allocator.
ShardBuildResult RunShardBuildBench(const ReferenceSet& ref,
                                    std::int64_t shard_max_bp, int reps) {
  SeedConfig cfg;
  cfg.k = 10;
  cfg.shard_max_bp = shard_max_bp;
  ShardBuildResult r;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    const SeedIndex idx = SeedIndex::Build(ref, cfg, 1);
    const double s = idx.indexed_positions() > 0 ? t.Seconds() : 0.0;
    r.serial_s = rep == 0 ? s : std::min(r.serial_s, s);
    r.shard_count = idx.shard_count();
  }
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    const SeedIndex idx = SeedIndex::Build(ref, cfg, 0);
    const double s = idx.indexed_positions() > 0 ? t.Seconds() : 0.0;
    r.parallel_s = rep == 0 ? s : std::min(r.parallel_s, s);
  }
  return r;
}

struct MinimizerBenchResult {
  std::uint64_t dense_exhaustive_candidates = 0;  // every read k-mer seeded
  std::uint64_t dense_candidates = 0;             // pigeonhole (e+1 seeds)
  std::uint64_t minimizer_candidates = 0;
  std::uint64_t dense_mapped = 0;
  std::uint64_t minimizer_mapped = 0;
  std::uint64_t lost_mappings = 0;  // reads dense maps, minimizer misses
  double dense_seed_s = 0.0;
  double minimizer_seed_s = 0.0;
  int minimizer_w = 0;
  double candidate_ratio() const {
    return dense_exhaustive_candidates > 0
               ? static_cast<double>(minimizer_candidates) /
                     static_cast<double>(dense_exhaustive_candidates)
               : 0.0;
  }
};

/// The unwinnowed counterpart of minimizer seeding: every k-mer of the
/// read (both strands) against the dense index, window-checked and
/// deduplicated per strand exactly like the mapper's seeders.  This — not
/// the e+1-lookup pigeonhole scheme, which belongs to a different
/// sensitivity class and is unavailable on a sparse index — is the
/// baseline winnowing subsamples, and the volume the reduction gate is
/// measured against.
std::uint64_t ExhaustiveDenseCandidates(const ReadMapper& mapper,
                                        const std::vector<std::string>& reads) {
  const SeedIndex& idx = mapper.index();
  const ReferenceSet& ref = mapper.reference();
  const int k = idx.k();
  const std::int64_t genome_len = ref.length();
  std::uint64_t total = 0;
  std::vector<std::int64_t> cands;
  std::string rc;
  for (const std::string& read : reads) {
    const int L = static_cast<int>(read.size());
    ReverseComplementInto(read, &rc);
    for (const std::string_view seq :
         {std::string_view(read), std::string_view(rc)}) {
      cands.clear();
      for (int i = 0; i + k <= L; ++i) {
        const std::int64_t code = idx.shard(0).Encode(
            seq.substr(static_cast<std::size_t>(i),
                       static_cast<std::size_t>(k)));
        if (code < 0) continue;
        for (std::size_t sh = 0; sh < idx.shard_count(); ++sh) {
          const std::int64_t base = idx.plan().shard(sh).text_offset;
          for (const std::uint32_t pos : idx.shard(sh).LookupCode(code)) {
            const std::int64_t start =
                base + static_cast<std::int64_t>(pos) - i;
            if (start < 0 || start + L > genome_len) continue;
            if (ref.chromosome_count() > 1 &&
                !ref.WindowWithinChromosome(start, L)) {
              continue;
            }
            cands.push_back(start);
          }
        }
      }
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
      total += cands.size();
    }
  }
  return total;
}

/// Dense vs (w,k) minimizer seeding on a repeat-dense reference, both
/// mapped filter-free (every candidate verified with banded DP — the
/// lossless path).  The candidate-volume gate demands winnowing seed
/// strictly fewer pairs than the exhaustive dense scheme it subsamples;
/// the lossless gate demands zero reads lost against the product's dense
/// pigeonhole default.  Losslessness is a guarantee, not luck: a read
/// within e = 5 edits of a 100 bp window keeps an error-free stretch of
/// at least ceil((100-5)/6) = 16 bp = w+k-1, so at least one winnowing
/// window lies inside the shared stretch and selects the same k-mer on
/// both sides.
MinimizerBenchResult RunMinimizerBench(const ReferenceSet& ref,
                                       std::size_t read_count, int length,
                                       int e) {
  const auto reads = SimulateReadSequences(
      ref.text(), read_count, length, ReadErrorProfile::Illumina(), 977);
  MinimizerBenchResult r;
  const auto run = [&](SeedMode mode, std::uint64_t* candidates,
                       double* seed_s, bool exhaustive) {
    MapperConfig mcfg;
    mcfg.read_length = length;
    mcfg.error_threshold = e;
    mcfg.seed_mode = mode;
    ReadMapper mapper(ref, mcfg);
    r.minimizer_w = mapper.config().minimizer_w;
    if (exhaustive) {
      r.dense_exhaustive_candidates = ExhaustiveDenseCandidates(mapper, reads);
    }
    std::vector<MappingRecord> records;
    const MappingStats s =
        mapper.MapReads(reads, /*filter=*/nullptr, {}, &records);
    *candidates = s.candidates_total;
    *seed_s = s.seeding_seconds;
    std::vector<char> mapped(reads.size(), 0);
    for (const MappingRecord& m : records) mapped[m.read_index] = 1;
    return mapped;
  };
  const std::vector<char> dense =
      run(SeedMode::kDense, &r.dense_candidates, &r.dense_seed_s, true);
  const std::vector<char> sparse = run(SeedMode::kMinimizer,
                                       &r.minimizer_candidates,
                                       &r.minimizer_seed_s, false);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    r.dense_mapped += dense[i];
    r.minimizer_mapped += sparse[i];
    r.lost_mappings += dense[i] && !sparse[i] ? 1 : 0;
  }
  return r;
}

}  // namespace

int main() {
  const std::size_t pairs = EnvSize("GKGPU_PAIRS", 200000);
  const int length = 100;
  const int e = 5;
  // Keep >= ~24 batches in flight whatever the dataset size, so the
  // pipeline's fill/drain phases stay a small fraction of the run.
  const std::size_t batch = EnvSize(
      "GKGPU_BATCH", std::clamp<std::size_t>(pairs / 24, 1024, 8192));
  const int reps = static_cast<int>(EnvSize("GKGPU_REPS", 3));
  const Dataset data = MakeDataset(MrFastCandidateProfile(length), pairs, 907);

  std::printf("=== streaming pipeline vs blocking FilterPairs ===\n");
  std::printf("%zu pairs, %d bp, e = %d, batch = %zu (adaptive %zu-%zu), "
              "2 encode workers, double-buffered\n\n",
              pairs, length, e, batch, std::max<std::size_t>(512, batch / 2),
              batch);

  TablePrinter table({"actor", "setup", "GPUs", "blocking ft (s)",
                      "streaming ft (s)", "blocking Mp/s", "streaming Mp/s",
                      "speedup"});
  double headline_speedup = 0.0;
  RunResult headline_run;
  for (const EncodingActor actor :
       {EncodingActor::kDevice, EncodingActor::kHost}) {
    for (const int setup : {1, 2}) {
      const int max_dev = setup == 1 ? 8 : 4;
      for (int ndev = 1; ndev <= max_dev; ndev *= 2) {
        const RunResult r =
            RunOne(data, length, e, actor, setup, ndev, batch, reps);
        table.AddRow({EncodingActorName(actor), std::to_string(setup),
                      std::to_string(ndev), TablePrinter::Num(r.sync_ft, 4),
                      TablePrinter::Num(r.pipe_ft, 4),
                      TablePrinter::Num(MillionsPerSecond(pairs, r.sync_ft), 1),
                      TablePrinter::Num(MillionsPerSecond(pairs, r.pipe_ft), 1),
                      TablePrinter::Num(r.speedup(), 2) + "x"});
        // Acceptance gate: the best device-encoded 2-GPU configuration
        // must clear 1.3x.
        if (actor == EncodingActor::kDevice && ndev == 2 &&
            r.speedup() > headline_speedup) {
          headline_speedup = r.speedup();
          headline_run = r;
        }
      }
    }
  }
  table.Print(std::cout);

  const bool headline_ok = headline_speedup >= 1.3;

  // --- Batch filtration core: per-pair seed path vs FilterBatch --------
  const GateKeeperFilter gk_filter;
  const std::uint64_t gk_accepts_before = RegistryAccepts("GateKeeper-GPU");
  const BatchFilterResult batch_run =
      RunBatchFilterBench(gk_filter, data, length, e, reps);
  const std::uint64_t gk_accepts_reg =
      (RegistryAccepts("GateKeeper-GPU") - gk_accepts_before) /
      static_cast<std::uint64_t>(reps);
  const bool batch_ok = batch_run.speedup() >= 1.2;
  const bool batch_consistent =
      batch_run.per_pair_accepts == batch_run.batch_accepts;
  std::printf(
      "\n=== batch filtration core (GateKeeper, %s kernels) ===\n"
      "per-pair Filter(): %.4f s (%.1f Mp/s)   "
      "PairBlock FilterBatch: %.4f s (%.1f Mp/s)   speedup %.2fx %s 1.2x\n",
      simd::LevelName(simd::ActiveLevel()), batch_run.per_pair_s,
      MillionsPerSecond(pairs, batch_run.per_pair_s), batch_run.batch_s,
      MillionsPerSecond(pairs, batch_run.batch_s), batch_run.speedup(),
      batch_ok ? ">=" : "BELOW");
  if (!batch_consistent) {
    std::printf("batch path DISAGREES with the per-pair path: %llu vs %llu "
                "accepts\n",
                static_cast<unsigned long long>(batch_run.batch_accepts),
                static_cast<unsigned long long>(batch_run.per_pair_accepts));
  }

  // --- Batch SneakySnake: decode-free maze build vs per-pair Filter ----
  // The per-pair path re-walks the character-domain maze per candidate;
  // FilterBatch builds every diagonal bit-parallel from the encoded
  // lanes.  The gate is stiffer than GateKeeper's because the snake's
  // per-pair baseline is so much heavier.
  const SneakySnakeFilter snake_filter;
  const std::uint64_t snake_accepts_before = RegistryAccepts("SneakySnake");
  const BatchFilterResult snake_run =
      RunBatchFilterBench(snake_filter, data, length, e, reps);
  const std::uint64_t snake_accepts_reg =
      (RegistryAccepts("SneakySnake") - snake_accepts_before) /
      static_cast<std::uint64_t>(reps);
  const bool snake_ok = snake_run.speedup() >= 1.5;
  const bool snake_consistent =
      snake_run.per_pair_accepts == snake_run.batch_accepts;
  std::printf(
      "\n=== batch SneakySnake (%s kernels) ===\n"
      "per-pair Filter(): %.4f s (%.1f Mp/s)   "
      "PairBlock FilterBatch: %.4f s (%.1f Mp/s)   speedup %.2fx %s 1.5x\n",
      simd::LevelName(simd::ActiveLevel()), snake_run.per_pair_s,
      MillionsPerSecond(pairs, snake_run.per_pair_s), snake_run.batch_s,
      MillionsPerSecond(pairs, snake_run.batch_s), snake_run.speedup(),
      snake_ok ? ">=" : "BELOW");
  if (!snake_consistent) {
    std::printf("snake batch path DISAGREES with the per-pair path: "
                "%llu vs %llu accepts\n",
                static_cast<unsigned long long>(snake_run.batch_accepts),
                static_cast<unsigned long long>(snake_run.per_pair_accepts));
  }

  // --- per-filter false-accept rate from the registry funnel -----------
  // Ground truth is banded DP over the same pairs.  The filters have no
  // false rejects, so every truly-within-e pair is in the accept set and
  // the excess accepts are exactly the false ones.  Accept counts come
  // from the registry's funnel counters — the series `gkgpu stats`
  // exposes — not from the benches' own tallies.
  std::uint64_t true_pairs = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    true_pairs += WithinEditDistance(data.reads[i], data.refs[i], e) ? 1 : 0;
  }
  const auto false_accept_rate = [&](std::uint64_t accepts) {
    const std::uint64_t false_accepts =
        accepts > true_pairs ? accepts - true_pairs : 0;
    return accepts > 0
               ? static_cast<double>(false_accepts) /
                     static_cast<double>(accepts) * 100.0
               : 0.0;
  };
  const double gk_far = false_accept_rate(gk_accepts_reg);
  const double snake_far = false_accept_rate(snake_accepts_reg);
  std::printf(
      "\n=== false-accept rate (registry funnel vs banded-DP truth) ===\n"
      "%zu pairs, %llu truly within e = %d\n"
      "GateKeeper-GPU: %llu accepts -> %.2f%% false   "
      "SneakySnake: %llu accepts -> %.2f%% false\n",
      data.size(), static_cast<unsigned long long>(true_pairs), e,
      static_cast<unsigned long long>(gk_accepts_reg), gk_far,
      static_cast<unsigned long long>(snake_accepts_reg), snake_far);

  // --- metrics overhead: the always-on-cheap gate ----------------------
  const OverheadResult obs_run = RunMetricsOverheadBench(
      gk_filter, data, length, e, std::max(reps, 11));
  const bool obs_ok = obs_run.overhead_pct() <= 2.0;
  std::printf(
      "\n=== metrics overhead (FilterBatch, registry on vs off) ===\n"
      "%d reps of %zu batches per leg (median leg) enabled: %.4f s   "
      "disabled: %.4f s\n"
      "median per-rep overhead %.2f%% %s 2%% (per-rep %+.2f%% .. %+.2f%%)\n",
      obs_run.reps, obs_run.batches_per_leg, obs_run.enabled_s,
      obs_run.disabled_s, obs_run.overhead_pct(), obs_ok ? "<=" : "ABOVE",
      (obs_run.ratio_lo - 1.0) * 100.0, (obs_run.ratio_hi - 1.0) * 100.0);

  // --- persistent index: mmap load vs cold rebuild ---------------------
  const std::size_t genome_len = EnvSize("GKGPU_GENOME", 1000000);
  const ReferenceSet bench_ref("bench_chr", GenerateGenome(genome_len, 501));
  const std::string index_path =
      (std::filesystem::temp_directory_path() / "gkgpu_bench_pipeline.gki")
          .string();
  const IndexLoadResult index_run =
      RunIndexLoadBench(bench_ref, index_path, reps);
  const bool index_ok = index_run.speedup() >= 10.0;
  std::printf(
      "\n=== persistent index (%zu bp reference, k = 12) ===\n"
      "cold rebuild (CSR + encoding): %.1f ms   mmap load: %.3f ms   "
      "speedup %.0fx %s 10x\n",
      genome_len, index_run.build_s * 1e3, index_run.load_s * 1e3,
      index_run.speedup(), index_ok ? ">=" : "BELOW");

  // --- daemon served throughput (two concurrent clients) ---------------
  const std::size_t served_reads = EnvSize("GKGPU_READS", 20000);
  const MappedIndexFile mapped = MappedIndexFile::Open(index_path);
  const ServedResult served = RunServedBench(mapped, served_reads);
  const double served_mreads =
      served.wall_s > 0.0
          ? static_cast<double>(served.reads) / served.wall_s / 1e6
          : 0.0;
  std::printf(
      "served %llu reads in %.3f s over 2 concurrent clients "
      "(%.2f Mreads/s, %llu coalesced batches)\n",
      static_cast<unsigned long long>(served.reads), served.wall_s,
      served_mreads,
      static_cast<unsigned long long>(served.coalesced_batches));
  std::error_code index_ec;
  std::filesystem::remove(index_path, index_ec);

  // --- sharded index: concurrent vs serial shard builds ----------------
  // An 8-chromosome reference with the shard budget forced down to a
  // quarter of the genome — the small-genome stand-in for a > 4 Gbp
  // layout, where each shard's CSR build is independent work.
  ReferenceSet shard_ref;
  const std::size_t chrom_len = std::max<std::size_t>(genome_len / 8, 2048);
  for (int c = 0; c < 8; ++c) {
    shard_ref.Add("shard_chr" + std::to_string(c + 1),
                  GenerateGenome(chrom_len, 601 + static_cast<unsigned>(c)));
  }
  const std::int64_t shard_budget =
      static_cast<std::int64_t>(shard_ref.text().size() / 4 + 1);
  const ShardBuildResult shard_run =
      RunShardBuildBench(shard_ref, shard_budget, reps);
  std::printf(
      "\n=== sharded index build (%zu bp, 8 chromosomes, %zu shards, "
      "k = 10) ===\n"
      "serial: %.1f ms   concurrent: %.1f ms   speedup %.2fx\n",
      shard_ref.text().size(), shard_run.shard_count,
      shard_run.serial_s * 1e3, shard_run.parallel_s * 1e3,
      shard_run.speedup());

  // --- minimizer vs dense seeding (lossless mapping path) --------------
  const std::size_t map_reads = EnvSize("GKGPU_MAP_READS", 4000);
  const MinimizerBenchResult min_run =
      RunMinimizerBench(shard_ref, map_reads, length, e);
  const bool minimizer_ok =
      min_run.minimizer_candidates < min_run.dense_exhaustive_candidates;
  const bool minimizer_lossless = min_run.lost_mappings == 0;
  std::printf(
      "\n=== minimizer seeding (w = %d, k = 12, %zu reads, no filter) ===\n"
      "dense exhaustive (every read k-mer): %llu candidates   "
      "dense pigeonhole: %llu candidates, %llu reads mapped\n"
      "minimizer: %llu candidates, %llu reads mapped\n"
      "candidate ratio vs exhaustive %.3f %s 1   lost mappings %llu %s 0\n",
      min_run.minimizer_w, map_reads,
      static_cast<unsigned long long>(min_run.dense_exhaustive_candidates),
      static_cast<unsigned long long>(min_run.dense_candidates),
      static_cast<unsigned long long>(min_run.dense_mapped),
      static_cast<unsigned long long>(min_run.minimizer_candidates),
      static_cast<unsigned long long>(min_run.minimizer_mapped),
      min_run.candidate_ratio(), minimizer_ok ? "<" : "NOT BELOW",
      static_cast<unsigned long long>(min_run.lost_mappings),
      minimizer_lossless ? "==" : "ABOVE");

  // Machine-readable trajectory point (uploaded as a CI artifact).
  BenchReport report("pipeline");
  report.Add("pairs", pairs);
  report.Add("reps", reps);
  report.Add("batch", batch);
  report.Add("read_length", length);
  report.Add("error_threshold", e);
  report.Add("blocking_seconds", headline_run.sync_ft);
  report.Add("streaming_seconds", headline_run.pipe_ft);
  report.Add("blocking_mpairs_per_s",
             MillionsPerSecond(pairs, headline_run.sync_ft));
  report.Add("streaming_mpairs_per_s",
             MillionsPerSecond(pairs, headline_run.pipe_ft));
  report.Add("speedup", headline_speedup);
  report.Add("gate_threshold", 1.3);
  report.Add("gate_pass", headline_ok);
  report.Add("batch_simd_level", simd::LevelName(simd::ActiveLevel()));
  report.Add("simd_avx2_compiled", simd::Avx2Compiled());
  report.Add("simd_avx512_compiled", simd::Avx512Compiled());
  report.Add("batch_per_pair_seconds", batch_run.per_pair_s);
  report.Add("batch_seconds", batch_run.batch_s);
  report.Add("batch_per_pair_mpairs_per_s",
             MillionsPerSecond(pairs, batch_run.per_pair_s));
  report.Add("batch_mpairs_per_s",
             MillionsPerSecond(pairs, batch_run.batch_s));
  report.Add("batch_speedup", batch_run.speedup());
  report.Add("batch_gate_threshold", 1.2);
  report.Add("batch_gate_pass", batch_ok);
  report.Add("batch_decisions_consistent", batch_consistent);
  report.Add("snake_batch_per_pair_seconds", snake_run.per_pair_s);
  report.Add("snake_batch_seconds", snake_run.batch_s);
  report.Add("snake_batch_per_pair_mpairs_per_s",
             MillionsPerSecond(pairs, snake_run.per_pair_s));
  report.Add("snake_batch_mpairs_per_s",
             MillionsPerSecond(pairs, snake_run.batch_s));
  report.Add("snake_batch_speedup", snake_run.speedup());
  report.Add("snake_batch_gate_threshold", 1.5);
  report.Add("snake_batch_gate_pass", snake_ok);
  report.Add("snake_batch_decisions_consistent", snake_consistent);
  report.Add("index_genome_bp", genome_len);
  report.Add("index_build_ms", index_run.build_s * 1e3);
  report.Add("index_load_ms", index_run.load_s * 1e3);
  report.Add("index_load_speedup", index_run.speedup());
  report.Add("index_gate_threshold", 10.0);
  report.Add("index_gate_pass", index_ok);
  report.Add("served_reads", served.reads);
  report.Add("served_wall_seconds", served.wall_s);
  report.Add("served_mreads_per_s", served_mreads);
  report.Add("served_coalesced_batches", served.coalesced_batches);
  report.Add("gatekeeper_false_accept_pct", gk_far);
  report.Add("snake_false_accept_pct", snake_far);
  report.Add("metrics_batches_per_leg", obs_run.batches_per_leg);
  report.Add("metrics_enabled_seconds", obs_run.enabled_s);
  report.Add("metrics_disabled_seconds", obs_run.disabled_s);
  report.Add("metrics_overhead_pct", obs_run.overhead_pct());
  report.Add("metrics_gate_threshold_pct", 2.0);
  report.Add("metrics_gate_pass", obs_ok);
  report.Add("shard_count", shard_run.shard_count);
  report.Add("shard_build_serial_ms", shard_run.serial_s * 1e3);
  report.Add("shard_build_parallel_ms", shard_run.parallel_s * 1e3);
  report.Add("shard_build_speedup", shard_run.speedup());
  report.Add("minimizer_w", min_run.minimizer_w);
  report.Add("minimizer_reads", map_reads);
  report.Add("dense_exhaustive_candidates",
             min_run.dense_exhaustive_candidates);
  report.Add("dense_candidates", min_run.dense_candidates);
  report.Add("minimizer_candidates", min_run.minimizer_candidates);
  report.Add("minimizer_candidate_ratio", min_run.candidate_ratio());
  report.Add("dense_mapped_reads", min_run.dense_mapped);
  report.Add("minimizer_mapped_reads", min_run.minimizer_mapped);
  report.Add("minimizer_lost_mappings", min_run.lost_mappings);
  report.Add("minimizer_gate_pass", minimizer_ok);
  report.Add("minimizer_lossless_gate_pass", minimizer_lossless);

  // The whole-run funnel and stage tail latencies, from the same registry
  // snapshot the daemon's `gkgpu stats` would serve.
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  report.Add("funnel_filter_input",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_input_total")));
  report.Add("funnel_accepts",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_accepts_total")));
  report.Add("funnel_rejects",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_rejects_total")));
  report.Add("funnel_bypasses",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_bypasses_total")));
  if (const obs::FamilySnapshot* service =
          snap.Find("gkgpu_stage_service_seconds")) {
    for (const auto& s : service->samples) {
      if (s.labels.empty() || !s.histogram || s.histogram->count == 0) {
        continue;
      }
      report.Add("stage_" + s.labels[0].second + "_p99_seconds",
                 s.histogram->Quantile(0.99));
    }
  }
  report.AddRaw("metrics", snap.RenderJson());
  report.Write();
  std::printf(
      "\nheadline (best device-encoded 2-GPU config): %.2fx %s threshold "
      "1.3x\n",
      headline_speedup, headline_ok ? ">=" : "BELOW");
  std::printf(
      "\nExpected shape: with device encoding the host staging and the\n"
      "simulated kernel+transfer time are comparable, so the overlapped\n"
      "timeline approaches 2x over the serialized blocking path.  With\n"
      "host encoding the measured preprocessing dominates the simulated\n"
      "device by ~100x, so both paths converge on the encode rate; on\n"
      "few-core hosts the streaming rows can even dip below 1x because\n"
      "the concurrently measured encode workers contend with the\n"
      "functionally simulated kernels for the same cores — contention a\n"
      "real GPU would not cause and a multicore host amortizes.\n");
  return (headline_ok && batch_ok && batch_consistent && snake_ok &&
          snake_consistent && index_ok && obs_ok && minimizer_ok &&
          minimizer_lossless)
             ? 0
             : 1;
}
