// Tests for the streaming filtration pipeline: bounded-queue semantics,
// bit-exact equivalence with the blocking FilterPairs path, input-order
// restoration under multi-shard execution, verification correctness with
// and without a filter, and error propagation.
#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "encode/revcomp.hpp"
#include "mapper/mapper.hpp"
#include "pipeline/candidate_packer.hpp"
#include "pipeline/queue.hpp"
#include "pipeline/read_to_sam.hpp"
#include "sim/genome.hpp"
#include "sim/pairgen.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

using pipeline::BoundedQueue;
using pipeline::PairBatch;
using pipeline::PipelineConfig;
using pipeline::PipelineStats;
using pipeline::StreamingPipeline;

// ---------------------------------------------------------------- queue --

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 4; ++i) {
    const auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.Push(2);  // must block until the consumer pops
    second_pushed.store(true);
  });
  // Give the producer a chance to (wrongly) complete.
  for (int i = 0; i < 50 && !second_pushed.load(); ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_GE(q.stats().push_wait_seconds, 0.0);
  EXPECT_EQ(q.stats().max_depth, 1u);
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(8);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // rejected after close
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // drained + closed -> end of stream
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> full(1);
  full.Push(0);
  std::thread producer([&] { EXPECT_FALSE(full.Push(1)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.Pop().has_value()); });
  std::this_thread::yield();
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueueTest, ManyProducersManyConsumersLoseNothing) {
  BoundedQueue<int> q(3);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (const auto v = q.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  const std::int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_LE(q.stats().max_depth, 3u);
  EXPECT_EQ(q.stats().pushed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(q.stats().popped, static_cast<std::uint64_t>(n));
}

// ------------------------------------------------------------- pipeline --

struct Workload {
  std::vector<std::string> reads;
  std::vector<std::string> refs;
};

Workload MakeWorkload(std::size_t n, int length, std::uint64_t seed) {
  PairProfile profile = LowEditProfile(length);
  profile.undefined_rate = 0.01;  // exercise the bypass path
  Workload w;
  for (auto& p : GeneratePairs(n, profile, seed)) {
    w.reads.push_back(std::move(p.read));
    w.refs.push_back(std::move(p.ref));
  }
  return w;
}

struct EngineFixture {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::unique_ptr<GateKeeperGpuEngine> engine;

  EngineFixture(int ndev, int length, int e,
                std::size_t max_pairs_per_batch = 0) {
    devices = gpusim::MakeSetup1(ndev, 2);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    cfg.max_pairs_per_batch = max_pairs_per_batch;
    engine = std::make_unique<GateKeeperGpuEngine>(cfg, ptrs);
  }
};

TEST(StreamingPipelineTest, MatchesFilterPairsBitForBit) {
  const int length = 100;
  const int e = 4;
  const Workload w = MakeWorkload(6000, length, 91);

  EngineFixture sync(2, length, e);
  std::vector<PairResult> expected;
  sync.engine->FilterPairs(w.reads, w.refs, &expected);

  for (const int ndev : {1, 2, 3}) {
    EngineFixture streamed(ndev, length, e);
    PipelineConfig cfg;
    cfg.batch_size = 512;  // force many batches across the shards
    cfg.encode_workers = 2;
    cfg.verify = false;
    std::vector<PairResult> results;
    const PipelineStats stats = pipeline::FilterPairsStreaming(
        streamed.engine.get(), cfg, w.reads, w.refs, &results);
    ASSERT_EQ(results.size(), expected.size()) << ndev;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].accept, expected[i].accept)
          << "ndev " << ndev << " pair " << i;
      ASSERT_EQ(results[i].bypassed, expected[i].bypassed) << i;
      ASSERT_EQ(results[i].edits, expected[i].edits) << i;
    }
    EXPECT_EQ(stats.pairs, w.reads.size());
    EXPECT_EQ(stats.accepted + stats.rejected, stats.pairs);
    EXPECT_GT(stats.kernel_seconds, 0.0);
    EXPECT_GT(stats.filter_seconds, 0.0);
    EXPECT_EQ(stats.batches, (w.reads.size() + 511) / 512);
  }
}

TEST(StreamingPipelineTest, OrderedSinkRestoresInputOrder) {
  const Workload w = MakeWorkload(4000, 100, 17);
  EngineFixture fx(3, 100, 5);
  PipelineConfig cfg;
  cfg.batch_size = 128;  // many small batches over 3 shards
  cfg.encode_workers = 3;
  cfg.verify_workers = 2;
  cfg.verify = false;
  StreamingPipeline pipe(fx.engine.get(), cfg);

  std::size_t offset = 0;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (offset >= w.reads.size()) return false;
    const std::size_t count =
        std::min<std::size_t>(pipe.config().batch_size,
                              w.reads.size() - offset);
    batch->reads.assign(w.reads.begin() + offset,
                        w.reads.begin() + offset + count);
    batch->refs.assign(w.refs.begin() + offset,
                       w.refs.begin() + offset + count);
    offset += count;
    return true;
  };
  std::uint64_t expected_seq = 0;
  std::size_t expected_first = 0;
  std::vector<int> devices_seen;
  const pipeline::BatchSink sink = [&](PairBatch&& batch) {
    EXPECT_EQ(batch.seq, expected_seq);
    EXPECT_EQ(batch.first_pair, expected_first);
    ++expected_seq;
    expected_first += batch.size();
    devices_seen.push_back(batch.device);
  };
  pipe.Run(source, sink);
  EXPECT_EQ(expected_first, w.reads.size());
  // Batches really sharded round-robin over every device.
  for (int d = 0; d < 3; ++d) {
    EXPECT_NE(std::count(devices_seen.begin(), devices_seen.end(), d), 0)
        << "device " << d << " never used";
  }
}

TEST(StreamingPipelineTest, VerificationMatchesBandedDistance) {
  const int e = 5;
  const Workload w = MakeWorkload(1500, 100, 23);
  EngineFixture fx(2, 100, e);
  PipelineConfig cfg;
  cfg.batch_size = 256;
  cfg.verify = true;
  std::vector<PairResult> results;
  std::vector<int> edits;
  const PipelineStats stats = pipeline::FilterPairsStreaming(
      fx.engine.get(), cfg, w.reads, w.refs, &results, &edits);
  std::uint64_t confirmed = 0;
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    if (results[i].accept) {
      EXPECT_EQ(edits[i], BandedEditDistance(w.reads[i], w.refs[i], e)) << i;
      confirmed += edits[i] >= 0;
    } else {
      EXPECT_EQ(edits[i], -1) << i;
    }
  }
  EXPECT_EQ(stats.verified_pairs, stats.accepted);
  EXPECT_EQ(stats.true_mappings, confirmed);
  EXPECT_GT(stats.verified_pairs, 0u);
}

TEST(StreamingPipelineTest, SourceErrorPropagates) {
  EngineFixture fx(2, 100, 3);
  PipelineConfig cfg;
  cfg.batch_size = 64;
  StreamingPipeline pipe(fx.engine.get(), cfg);
  const Workload w = MakeWorkload(256, 100, 5);
  int calls = 0;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (++calls > 3) throw std::runtime_error("synthetic source failure");
    batch->reads.assign(w.reads.begin(), w.reads.begin() + 64);
    batch->refs.assign(w.refs.begin(), w.refs.begin() + 64);
    return true;
  };
  const pipeline::BatchSink sink = [](PairBatch&&) {};
  EXPECT_THROW(pipe.Run(source, sink), std::runtime_error);
}

TEST(StreamingPipelineTest, OversizedBatchIsRejected) {
  EngineFixture fx(1, 100, 3);
  PipelineConfig cfg;
  cfg.batch_size = 32;
  StreamingPipeline pipe(fx.engine.get(), cfg);
  const Workload w = MakeWorkload(64, 100, 7);
  bool sent = false;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (sent) return false;
    sent = true;
    batch->reads = w.reads;  // 64 pairs into a 32-pair pipeline
    batch->refs = w.refs;
    return true;
  };
  const pipeline::BatchSink sink = [](PairBatch&&) {};
  EXPECT_THROW(pipe.Run(source, sink), std::runtime_error);
}

TEST(StreamingPipelineTest, MismatchedPairLengthIsRejected) {
  // The slot encoders stride unified buffers by the configured read
  // length; a stray longer pair must be refused, not encoded.
  EngineFixture fx(1, 100, 3);
  PipelineConfig cfg;
  cfg.batch_size = 16;
  StreamingPipeline pipe(fx.engine.get(), cfg);
  const Workload w = MakeWorkload(8, 100, 3);
  bool sent = false;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (sent) return false;
    sent = true;
    batch->reads = w.reads;
    batch->refs = w.refs;
    batch->reads[3] += "ACGT";  // 104 bp in a 100 bp pipeline
    return true;
  };
  const pipeline::BatchSink sink = [](PairBatch&&) {};
  EXPECT_THROW(pipe.Run(source, sink), std::runtime_error);
}

TEST(StreamingPipelineTest, EmptyStreamCompletesCleanly) {
  EngineFixture fx(2, 100, 3);
  PipelineConfig cfg;
  StreamingPipeline pipe(fx.engine.get(), cfg);
  const pipeline::BatchSource source = [](PairBatch*) { return false; };
  int sunk = 0;
  const pipeline::BatchSink sink = [&](PairBatch&&) { ++sunk; };
  const PipelineStats stats = pipe.Run(source, sink);
  EXPECT_EQ(stats.pairs, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(sunk, 0);
}

TEST(StreamingPipelineTest, StatsAreInternallyConsistent) {
  const Workload w = MakeWorkload(3000, 100, 37);
  EngineFixture fx(2, 100, 5);
  PipelineConfig cfg;
  cfg.batch_size = 500;
  std::vector<PairResult> results;
  const PipelineStats stats = pipeline::FilterPairsStreaming(
      fx.engine.get(), cfg, w.reads, w.refs, &results);
  EXPECT_EQ(stats.pairs, 3000u);
  EXPECT_EQ(stats.accepted + stats.rejected, stats.pairs);
  EXPECT_GT(stats.encode_seconds, 0.0);
  EXPECT_GE(stats.kernel_seconds_total, stats.kernel_seconds);
  EXPECT_GT(stats.wall_seconds, 0.0);
  ASSERT_EQ(stats.stages.size(), 5u);
  EXPECT_EQ(stats.stages[1].items, stats.pairs);  // encode saw every pair
  EXPECT_EQ(stats.stages[2].items, stats.pairs);  // filter saw every pair
  // Queue reports: source queue + per-device + filtered + done.
  ASSERT_EQ(stats.queues.size(), 2u + 2u + 1u);
  for (const auto& q : stats.queues) {
    EXPECT_LE(q.stats.max_depth, q.capacity) << q.name;
    EXPECT_EQ(q.stats.pushed, q.stats.popped) << q.name;
  }
}

// ------------------------------------------------------- candidate mode --

struct CandidateWorkload {
  std::string genome;
  std::vector<std::string> reads;
  std::vector<CandidatePair> candidates;  // global read_index / global pos
};

CandidateWorkload MakeCandidateWorkload(std::size_t n_reads,
                                        std::uint64_t seed) {
  CandidateWorkload w;
  w.genome = GenerateGenome(50000, seed);
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = 100;
  mcfg.error_threshold = 5;
  ReadMapper mapper(w.genome, mcfg);
  const auto sim = SimulateReads(w.genome, n_reads, 100,
                                 ReadErrorProfile::Illumina(), seed + 1);
  std::vector<std::int64_t> positions;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    w.reads.push_back(sim[i].seq);
    mapper.CollectCandidates(sim[i].seq, &positions);
    for (const std::int64_t pos : positions) {
      w.candidates.push_back({static_cast<std::uint32_t>(i), 0, 0, pos});
    }
  }
  return w;
}

/// Streams `w.candidates` through a candidate-mode pipeline in chunks of
/// `chunk`, building a per-batch read table the way the mapper front ends
/// do, and returns per-candidate results in input order.
PipelineStats RunCandidateStream(GateKeeperGpuEngine* engine,
                                 PipelineConfig cfg,
                                 const CandidateWorkload& w,
                                 std::size_t chunk,
                                 std::vector<PairResult>* results,
                                 std::vector<int>* edits = nullptr,
                                 std::vector<std::string>* cigars = nullptr) {
  cfg.reference_text = w.genome;
  cfg.emit_cigar = cigars != nullptr;
  StreamingPipeline pipe(engine, cfg);
  results->assign(w.candidates.size(), PairResult{});
  if (edits != nullptr) edits->assign(w.candidates.size(), -1);
  if (cigars != nullptr) cigars->assign(w.candidates.size(), {});
  std::size_t offset = 0;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (offset >= w.candidates.size()) return false;
    const std::size_t count = std::min(chunk, w.candidates.size() - offset);
    std::uint32_t last_read = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < count; ++i) {
      const CandidatePair c = w.candidates[offset + i];
      if (c.read_index != last_read) {
        batch->cand_reads.push_back(w.reads[c.read_index]);
        last_read = c.read_index;
      }
      batch->candidates.push_back(
          {static_cast<std::uint32_t>(batch->cand_reads.size() - 1),
           c.strand, 0, c.ref_pos});
      batch->read_index.push_back(c.read_index);
    }
    offset += count;
    return true;
  };
  const pipeline::BatchSink sink = [&](PairBatch&& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (*results)[batch.first_pair + i] = batch.results[i];
      if (edits != nullptr) (*edits)[batch.first_pair + i] = batch.edits[i];
      if (cigars != nullptr) {
        (*cigars)[batch.first_pair + i] = std::move(batch.cigars[i]);
      }
    }
  };
  return pipe.Run(source, sink);
}

TEST(CandidatePackerTest, DuplicateSequencesShareOneTableEntry) {
  // Five reads, three distinct sequences, two candidates each, fetched
  // through one reused buffer — the packer must key the table by content
  // and route every candidate's read_index to the shared entry.
  const std::string seq_a(100, 'A');
  const std::string seq_b = seq_a.substr(0, 50) + std::string(50, 'C');
  const std::string seq_c = std::string(50, 'G') + seq_a.substr(0, 50);
  const std::vector<std::string> reads = {seq_a, seq_b, seq_a, seq_c, seq_b};

  PairBatch batch;
  pipeline::CandidateStream stream;
  std::size_t next = 0;
  std::string buf;
  pipeline::PackCandidateBatch(
      &batch, 100, &stream,
      [&](std::vector<OrientedCandidate>* positions) -> const std::string* {
        if (next >= reads.size()) return nullptr;
        positions->push_back({static_cast<std::int64_t>(next) * 10, 0});
        positions->push_back({static_cast<std::int64_t>(next) * 10 + 3, 1});
        buf = reads[next++];
        return &buf;
      },
      [](const OrientedCandidate&, bool) {});

  ASSERT_EQ(batch.candidates.size(), 10u);
  // Read table deduplicated to the three distinct sequences, in first-use
  // order.
  ASSERT_EQ(batch.cand_reads.size(), 3u);
  EXPECT_EQ(batch.cand_reads[0], seq_a);
  EXPECT_EQ(batch.cand_reads[1], seq_b);
  EXPECT_EQ(batch.cand_reads[2], seq_c);
  for (std::size_t i = 0; i < batch.candidates.size(); ++i) {
    const CandidatePair& c = batch.candidates[i];
    EXPECT_EQ(batch.cand_reads[c.read_index], reads[i / 2]) << i;
    EXPECT_EQ(c.ref_pos,
              static_cast<std::int64_t>(i / 2) * 10 +
                  (i % 2 == 0 ? 0 : 3))
        << i;
  }
}

TEST(CandidateStreamingTest, MatchesBlockingFilterCandidatesBitForBit) {
  const CandidateWorkload w = MakeCandidateWorkload(300, 5);
  ASSERT_GT(w.candidates.size(), 1000u);

  EngineFixture blocking(2, 100, 5);
  blocking.engine->LoadReference(w.genome);
  std::vector<PairResult> expected;
  blocking.engine->FilterCandidates(w.reads, w.candidates, &expected);

  for (const int ndev : {1, 2, 3}) {
    EngineFixture streamed(ndev, 100, 5);
    streamed.engine->LoadReference(w.genome);
    PipelineConfig cfg;
    cfg.batch_size = 256;  // many batches across the shards
    cfg.verify = false;
    std::vector<PairResult> results;
    const PipelineStats stats = RunCandidateStream(
        streamed.engine.get(), cfg, w, 256, &results);
    ASSERT_EQ(results.size(), expected.size()) << ndev;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].accept, expected[i].accept)
          << "ndev " << ndev << " candidate " << i;
      ASSERT_EQ(results[i].bypassed, expected[i].bypassed) << i;
      ASSERT_EQ(results[i].edits, expected[i].edits) << i;
    }
    EXPECT_EQ(stats.pairs, w.candidates.size());
    EXPECT_GT(stats.kernel_seconds, 0.0);
  }
}

TEST(CandidateStreamingTest, VerificationSlicesWindowsFromReferenceText) {
  const CandidateWorkload w = MakeCandidateWorkload(120, 9);
  EngineFixture fx(2, 100, 5);
  fx.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 128;
  cfg.verify = true;
  std::vector<PairResult> results;
  std::vector<int> edits;
  RunCandidateStream(fx.engine.get(), cfg, w, 128, &results, &edits);
  std::uint64_t verified = 0;
  for (std::size_t i = 0; i < w.candidates.size(); ++i) {
    const CandidatePair c = w.candidates[i];
    const std::string_view window(w.genome.data() + c.ref_pos, 100);
    if (results[i].accept) {
      EXPECT_EQ(edits[i],
                BandedEditDistance(w.reads[c.read_index], window, 5))
          << i;
      verified += edits[i] >= 0;
    } else {
      EXPECT_EQ(edits[i], -1) << i;
    }
  }
  EXPECT_GT(verified, 0u);
}

TEST(CandidateStreamingTest, AdaptiveCandidateRunStaysBitExact) {
  const CandidateWorkload w = MakeCandidateWorkload(200, 13);
  EngineFixture blocking(2, 100, 5);
  blocking.engine->LoadReference(w.genome);
  std::vector<PairResult> expected;
  blocking.engine->FilterCandidates(w.reads, w.candidates, &expected);

  EngineFixture streamed(2, 100, 5);
  streamed.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 256;
  cfg.verify = false;
  cfg.adaptive = true;
  cfg.adaptive_config.min_size = 64;
  cfg.adaptive_config.max_size = 512;
  std::vector<PairResult> results;
  // The source honors batch->target_size only loosely here (fixed chunks),
  // which is legal: target_size is a hint, capacity the hard bound.
  const PipelineStats stats =
      RunCandidateStream(streamed.engine.get(), cfg, w, 200, &results);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].accept, expected[i].accept) << i;
    ASSERT_EQ(results[i].edits, expected[i].edits) << i;
  }
  EXPECT_LE(stats.batch_size_max, 512u);
}

TEST(CandidateStreamingTest, RejectsInvalidCandidates) {
  const std::string genome = GenerateGenome(20000, 3);
  EngineFixture fx(1, 100, 5);
  fx.engine->LoadReference(genome);
  PipelineConfig cfg;
  cfg.batch_size = 64;
  cfg.reference_text = genome;

  const auto run_one = [&](PairBatch prototype) {
    StreamingPipeline pipe(fx.engine.get(), cfg);
    bool sent = false;
    const pipeline::BatchSource source = [&](PairBatch* batch) {
      if (sent) return false;
      sent = true;
      PairBatch copy = prototype;
      batch->reads = std::move(copy.reads);
      batch->refs = std::move(copy.refs);
      batch->cand_reads = std::move(copy.cand_reads);
      batch->candidates = std::move(copy.candidates);
      return true;
    };
    const pipeline::BatchSink sink = [](PairBatch&&) {};
    pipe.Run(source, sink);
  };

  const std::string read(100, 'A');
  {
    PairBatch b;  // reference window would run off the genome end
    b.cand_reads.push_back(read);
    b.candidates.push_back(
        {0, 0, 0, static_cast<std::int64_t>(genome.size()) - 50});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
  {
    PairBatch b;  // negative offset
    b.cand_reads.push_back(read);
    b.candidates.push_back({0, 0, 0, -1});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
  {
    PairBatch b;  // read_index outside the batch's read table
    b.cand_reads.push_back(read);
    b.candidates.push_back({7, 0, 0, 100});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
  {
    PairBatch b;  // pair batch fed into a candidate-mode pipeline
    b.reads.assign(4, read);
    b.refs.assign(4, read);
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
  {
    PairBatch b;  // wrong-length read in the table
    b.cand_reads.push_back(std::string(80, 'A'));
    b.candidates.push_back({0, 0, 0, 100});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
}

TEST(CandidateStreamingTest, WithoutEngineEveryCandidateIsVerified) {
  // No engine: nothing is encoded or filtered, every candidate reaches
  // verification, and each edit distance is exactly BandedEditDistance
  // over a window as long as the candidate's own read.
  CandidateWorkload w = MakeCandidateWorkload(120, 9);
  const std::string shorter = w.genome.substr(7000, 60);
  w.reads.push_back(ReverseComplement(shorter));
  w.candidates.push_back(
      {static_cast<std::uint32_t>(w.reads.size() - 1), 1, 0, 7000});
  PipelineConfig cfg;
  cfg.batch_size = 128;
  cfg.verify_threshold = 5;
  std::vector<PairResult> results;
  std::vector<int> edits;
  const PipelineStats stats =
      RunCandidateStream(nullptr, cfg, w, 128, &results, &edits);
  ASSERT_EQ(edits.size(), w.candidates.size());
  std::uint64_t confirmed = 0;
  for (std::size_t i = 0; i < w.candidates.size(); ++i) {
    const CandidatePair c = w.candidates[i];
    const std::string& read = w.reads[c.read_index];
    const std::string oriented =
        c.strand != 0 ? ReverseComplement(read) : read;
    const std::string_view window(w.genome.data() + c.ref_pos, read.size());
    EXPECT_TRUE(results[i].accept) << i;
    EXPECT_EQ(edits[i], BandedEditDistance(oriented, window, 5)) << i;
    confirmed += edits[i] >= 0;
  }
  EXPECT_EQ(edits.back(), 0);  // the short reverse-strand read is exact
  EXPECT_GT(confirmed, 1u);
  EXPECT_EQ(stats.pairs, w.candidates.size());
  EXPECT_EQ(stats.accepted, stats.pairs);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.verified_pairs, stats.pairs);
  EXPECT_EQ(stats.true_mappings, confirmed);
  EXPECT_EQ(stats.kernel_seconds, 0.0);
  ASSERT_EQ(stats.stages.size(), 5u);
  EXPECT_EQ(stats.stages[1].workers, 0);  // no encode pool
  EXPECT_EQ(stats.stages[2].workers, 0);  // no filter drivers

  // The source still bounds-checks every candidate.
  cfg.reference_text = w.genome;
  const auto run_one = [&](std::uint32_t read_index, std::uint8_t strand,
                           std::int64_t ref_pos) {
    StreamingPipeline pipe(nullptr, cfg);
    bool sent = false;
    const pipeline::BatchSource source = [&](PairBatch* batch) {
      if (sent) return false;
      sent = true;
      batch->cand_reads.push_back(std::string(40, 'A'));
      batch->candidates.push_back({read_index, strand, 0, ref_pos});
      return true;
    };
    pipe.Run(source, [](PairBatch&&) {});
  };
  const auto end = static_cast<std::int64_t>(w.genome.size());
  EXPECT_NO_THROW(run_one(0, 0, end - 40));
  EXPECT_THROW(run_one(0, 0, end - 39), std::runtime_error);
  EXPECT_THROW(run_one(0, 0, -1), std::runtime_error);
  EXPECT_THROW(run_one(1, 0, 100), std::runtime_error);
  EXPECT_THROW(run_one(0, 2, 100), std::runtime_error);

  // Without an engine there is no pair mode and no default threshold.
  PipelineConfig pair_mode;
  pair_mode.verify_threshold = 5;
  EXPECT_THROW(StreamingPipeline(nullptr, pair_mode), std::invalid_argument);
  PipelineConfig no_threshold;
  no_threshold.reference_text = w.genome;
  EXPECT_THROW(StreamingPipeline(nullptr, no_threshold),
               std::invalid_argument);
}

TEST(CandidateStreamingTest, VerifyEditsAndCigarsMatchTheReferenceAligners) {
  // The verify workers run the fused kernel on eligible candidates and
  // the per-pair aligners on the rest; either way every edit distance is
  // BandedEditDistance and every CIGAR is BandedAlign's at the confirmed
  // distance, whatever the worker count or batch size.  The suite runs
  // once per dispatch tier (GKGPU_NO_AVX512 / GKGPU_NO_AVX2), which pins
  // the kernel's tiers too.
  CandidateWorkload w = MakeCandidateWorkload(150, 21);
  // Reference-only bytes in the windows: 'N' runs and soft-masked bases.
  Rng rng(22);
  for (int e = 0; e < 400; ++e) {
    char& c = w.genome[rng.Uniform(w.genome.size())];
    c = e % 2 == 0 ? 'N' : static_cast<char>(c - 'A' + 'a');
  }
  // Both strands of every read, plus reads the kernel cannot take: an
  // 'N' in the read, a read over 128 bp, and a short read (a length
  // change inside a lane group).
  const std::size_t forward = w.candidates.size();
  for (std::size_t i = 0; i < forward; ++i) {
    CandidatePair c = w.candidates[i];
    c.strand = 1;
    w.candidates.push_back(c);
  }
  const auto add_read = [&](std::string read, std::int64_t pos,
                            std::uint8_t strand) {
    w.reads.push_back(std::move(read));
    w.candidates.push_back(
        {static_cast<std::uint32_t>(w.reads.size() - 1), strand, 0, pos});
  };
  std::string with_n = w.genome.substr(1000, 100);
  for (char& c : with_n) c = static_cast<char>(std::toupper(c));
  with_n[50] = 'N';
  add_read(with_n, 1000, 0);
  add_read(with_n, 1001, 0);
  add_read(w.genome.substr(2000, 150), 2000, 0);
  add_read(ReverseComplement(w.genome.substr(3000, 40)), 3000, 1);
  add_read(w.genome.substr(4000, 100), 4000, 0);
  for (std::string& r : w.reads) {
    for (char& c : r) {
      if (c >= 'a') c = static_cast<char>(c - 'a' + 'A');
    }
  }

  std::vector<int> want_edits;
  std::vector<std::string> want_cigars;
  std::size_t confirmed = 0;
  for (const CandidatePair& c : w.candidates) {
    const std::string& read = w.reads[c.read_index];
    const std::string oriented =
        c.strand != 0 ? ReverseComplement(read) : read;
    const std::string_view window(w.genome.data() + c.ref_pos, read.size());
    const int d = BandedEditDistance(oriented, window, 5);
    want_edits.push_back(d);
    want_cigars.emplace_back();
    if (d >= 0) want_cigars.back() = BandedAlign(oriented, window, d).cigar;
    confirmed += d >= 0 ? 1 : 0;
  }
  ASSERT_GT(confirmed, 100u);
  ASSERT_LT(confirmed, want_edits.size());

  for (const int workers : {1, 2, 4}) {
    for (const std::size_t chunk : {std::size_t{61}, std::size_t{1000}}) {
      PipelineConfig cfg;
      cfg.batch_size = 1024;
      cfg.verify_workers = workers;
      cfg.verify_threshold = 5;
      std::vector<PairResult> results;
      std::vector<int> edits;
      std::vector<std::string> cigars;
      RunCandidateStream(nullptr, cfg, w, chunk, &results, &edits, &cigars);
      EXPECT_EQ(edits, want_edits) << workers << " workers, chunk " << chunk;
      EXPECT_EQ(cigars, want_cigars) << workers << " workers, chunk " << chunk;
    }
  }
}

TEST(CandidateStreamingTest, CandidateBatchInPairModeIsRejected) {
  EngineFixture fx(1, 100, 5);
  PipelineConfig cfg;
  cfg.batch_size = 64;  // no reference_text: pair mode
  StreamingPipeline pipe(fx.engine.get(), cfg);
  bool sent = false;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (sent) return false;
    sent = true;
    batch->cand_reads.push_back(std::string(100, 'A'));
    batch->candidates.push_back({0, 0, 0, 0});
    return true;
  };
  const pipeline::BatchSink sink = [](PairBatch&&) {};
  EXPECT_THROW(pipe.Run(source, sink), std::runtime_error);
}

TEST(CandidateStreamingTest, CandidateModeRequiresLoadedReference) {
  EngineFixture fx(1, 100, 5);
  const std::string genome = GenerateGenome(10000, 4);
  PipelineConfig cfg;
  cfg.reference_text = genome;  // engine never loaded it
  EXPECT_THROW(StreamingPipeline(fx.engine.get(), cfg), std::invalid_argument);
}

TEST(CandidateStreamingTest, CandidateModeDetectsWrongGenomeOfSameLength) {
  // An engine reused across same-length genomes must fail loudly, not
  // silently filter candidates against the previously loaded reference.
  EngineFixture fx(1, 100, 5);
  const std::string genome_a = GenerateGenome(10000, 4);
  const std::string genome_b = GenerateGenome(10000, 8);
  ASSERT_EQ(genome_a.size(), genome_b.size());
  fx.engine->LoadReference(genome_a);
  PipelineConfig cfg;
  cfg.reference_text = genome_b;
  EXPECT_THROW(StreamingPipeline(fx.engine.get(), cfg), std::invalid_argument);
  cfg.reference_text = genome_a;
  EXPECT_NO_THROW(StreamingPipeline(fx.engine.get(), cfg));
}

}  // namespace
}  // namespace gkgpu
