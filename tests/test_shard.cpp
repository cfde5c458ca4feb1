// Tests for shard planning (mapper/shard.hpp) and the sharded seeding
// path: chromosome-group partitioning under a byte budget, the persisted
// plan validator, shard lookup, and the property the whole design rests
// on — a forced multi-shard mapper produces the exact candidate set and
// the exact SAM of a monolithic one, including reads at chromosome and
// shard edges.
#include "mapper/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace gkgpu {
namespace {

ReferenceSet MakeReference(const std::vector<std::int64_t>& lengths) {
  ReferenceSet ref;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    ref.Add("chr" + std::to_string(i + 1),
            GenerateGenome(static_cast<std::size_t>(lengths[i]), 40 + i));
  }
  return ref;
}

TEST(ShardPlanTest, DefaultBudgetIsOneShard) {
  const ReferenceSet ref = MakeReference({1000, 2000, 1500});
  const ShardPlan plan = ShardPlan::Partition(ref);
  ASSERT_EQ(plan.shard_count(), 1u);
  EXPECT_EQ(plan.shard(0).chrom_begin, 0u);
  EXPECT_EQ(plan.shard(0).chrom_end, 3u);
  EXPECT_EQ(plan.shard(0).text_offset, 0);
  EXPECT_EQ(plan.shard(0).text_length, 4500);
  EXPECT_EQ(plan.total_length(), 4500);
}

TEST(ShardPlanTest, GreedyFirstFitRespectsTheBudget) {
  const ReferenceSet ref = MakeReference({1000, 2000, 1500, 900});
  const ShardPlan plan = ShardPlan::Partition(ref, 3000);
  ASSERT_EQ(plan.shard_count(), 2u);
  EXPECT_EQ(plan.shard(0).chrom_begin, 0u);
  EXPECT_EQ(plan.shard(0).chrom_end, 2u);
  EXPECT_EQ(plan.shard(0).text_length, 3000);
  EXPECT_EQ(plan.shard(1).chrom_begin, 2u);
  EXPECT_EQ(plan.shard(1).chrom_end, 4u);
  EXPECT_EQ(plan.shard(1).text_offset, 3000);
  EXPECT_EQ(plan.shard(1).text_length, 2400);
  // Shards tile the concatenated text with no gaps.
  EXPECT_EQ(plan.total_length(), ref.length());
}

TEST(ShardPlanTest, EveryChromosomeItsOwnShardUnderATightBudget) {
  const ReferenceSet ref = MakeReference({800, 600, 700});
  const ShardPlan plan = ShardPlan::Partition(ref, 800);
  ASSERT_EQ(plan.shard_count(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.shard(s).chrom_begin, s);
    EXPECT_EQ(plan.shard(s).chrom_end, s + 1);
    EXPECT_EQ(plan.shard(s).text_offset, ref.chromosome(s).offset);
    EXPECT_EQ(plan.shard(s).text_length, ref.chromosome(s).length);
  }
}

TEST(ShardPlanTest, OversizedChromosomeIsNamedInTheError) {
  const ReferenceSet ref = MakeReference({500, 1200, 400});
  EXPECT_THROW(
      {
        try {
          ShardPlan::Partition(ref, 1000);
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("chr2"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::invalid_argument);
}

TEST(ShardPlanTest, RejectsEmptyReferenceAndOversizedBudget) {
  EXPECT_THROW(ShardPlan::Partition(ReferenceSet()), std::invalid_argument);
  const ReferenceSet ref = MakeReference({100});
  EXPECT_THROW(ShardPlan::Partition(ref, std::int64_t{1} << 40),
               std::invalid_argument);
}

TEST(ShardPlanTest, ShardOfResolvesBoundaries) {
  const ReferenceSet ref = MakeReference({1000, 1000, 1000});
  const ShardPlan plan = ShardPlan::Partition(ref, 1000);
  ASSERT_EQ(plan.shard_count(), 3u);
  EXPECT_EQ(plan.ShardOf(0), 0u);
  EXPECT_EQ(plan.ShardOf(999), 0u);
  EXPECT_EQ(plan.ShardOf(1000), 1u);
  EXPECT_EQ(plan.ShardOf(1999), 1u);
  EXPECT_EQ(plan.ShardOf(2000), 2u);
  EXPECT_EQ(plan.ShardOf(2999), 2u);
}

TEST(ShardPlanTest, FromShardsAcceptsItsOwnPartitionAndRejectsDamage) {
  const ReferenceSet ref = MakeReference({1000, 2000, 1500});
  const ShardPlan plan = ShardPlan::Partition(ref, 3000);
  const ShardPlan rebuilt = ShardPlan::FromShards(plan.shards(), ref);
  ASSERT_EQ(rebuilt.shard_count(), plan.shard_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    EXPECT_EQ(rebuilt.shard(s).text_offset, plan.shard(s).text_offset);
    EXPECT_EQ(rebuilt.shard(s).text_length, plan.shard(s).text_length);
  }

  // A gap in the chromosome coverage.
  std::vector<ShardInfo> gap = plan.shards();
  gap.front().chrom_end -= 1;
  EXPECT_THROW(ShardPlan::FromShards(gap, ref), std::invalid_argument);
  // A slice that disagrees with the chromosome table.
  std::vector<ShardInfo> skew = plan.shards();
  skew.back().text_length += 8;
  EXPECT_THROW(ShardPlan::FromShards(skew, ref), std::invalid_argument);
  // Dropping the tail shard leaves chromosomes uncovered.
  std::vector<ShardInfo> short_plan(plan.shards().begin(),
                                    plan.shards().end() - 1);
  EXPECT_THROW(ShardPlan::FromShards(short_plan, ref),
               std::invalid_argument);
}

// The byte-identity property.  Shard boundaries are chromosome
// boundaries and junction-spanning windows are dropped at seeding time,
// so the merged per-shard candidates must equal the monolithic ones —
// candidate for candidate, and therefore SAM byte for SAM byte.
class ShardedMappingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ref_ = MakeReference({6000, 5000, 4000, 5000});
    config_.k = 8;
    config_.read_length = 64;
    config_.error_threshold = 3;
  }

  std::vector<std::string> EdgeAndBodyReads() const {
    const std::string_view text = ref_.text();
    std::vector<std::string> reads;
    for (const ChromosomeInfo& c : ref_.chromosomes()) {
      const auto at = [&](std::int64_t pos) {
        reads.emplace_back(text.substr(static_cast<std::size_t>(pos), 64));
      };
      at(c.offset);                    // first window of the chromosome
      at(c.offset + c.length - 64);    // last window
      at(c.offset + c.length / 2);     // interior
      if (c.offset + c.length < ref_.length()) {
        at(c.offset + c.length - 32);  // spans the junction: maps nowhere
      }
    }
    const auto sim = SimulateReadSequences(text, 200, 64,
                                           ReadErrorProfile::Illumina(), 71);
    reads.insert(reads.end(), sim.begin(), sim.end());
    return reads;
  }

  ReferenceSet ref_;
  MapperConfig config_;
};

TEST_F(ShardedMappingTest, CandidatesMatchMonolithicExactly) {
  ReadMapper mono(ref_, config_);
  MapperConfig sharded_cfg = config_;
  sharded_cfg.shard_max_bp = 6000;  // every chromosome its own shard
  ReadMapper sharded(ref_, sharded_cfg);
  ASSERT_EQ(mono.index().shard_count(), 1u);
  ASSERT_EQ(sharded.index().shard_count(), 4u);

  std::vector<std::int64_t> a, b;
  for (const std::string& read : EdgeAndBodyReads()) {
    a.clear();
    b.clear();
    mono.CollectCandidates(read, &a);
    sharded.CollectCandidates(read, &b);
    EXPECT_EQ(a, b) << "candidate sets diverge for read " << read;
  }
}

TEST_F(ShardedMappingTest, SamOutputIsByteIdentical) {
  const std::vector<std::string> reads = EdgeAndBodyReads();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    names.push_back("r" + std::to_string(i));
  }
  const auto render = [&](const MapperConfig& cfg,
                          GateKeeperGpuEngine* engine = nullptr) {
    ReadMapper mapper(ref_, cfg);
    std::vector<MappingRecord> records;
    mapper.MapReads(reads, engine, {}, &records);
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), "");
    WriteSamRecordsMultiChrom(sam, reads, names, records,
                              mapper.reference());
    return sam.str();
  };
  const std::string mono = render(config_);
  MapperConfig sharded_cfg = config_;
  sharded_cfg.shard_max_bp = 11000;  // two chromosomes per shard
  EXPECT_EQ(render(sharded_cfg), mono);
  sharded_cfg.shard_max_bp = 6000;  // four shards
  EXPECT_EQ(render(sharded_cfg), mono);
  EXPECT_FALSE(mono.empty());

  // Filtering loses nothing here either, junction-spanning reads included.
  auto devices = gpusim::MakeSetup1(2, 2);
  EngineConfig ecfg;
  ecfg.read_length = config_.read_length;
  ecfg.error_threshold = config_.error_threshold;
  GateKeeperGpuEngine engine(ecfg, {devices[0].get(), devices[1].get()});
  EXPECT_EQ(render(sharded_cfg, &engine), mono);
}

TEST_F(ShardedMappingTest, ShardCandidateTallySumsToTotal) {
  MapperConfig sharded_cfg = config_;
  sharded_cfg.shard_max_bp = 6000;
  ReadMapper mapper(ref_, sharded_cfg);
  const MappingStats stats = mapper.MapReads(EdgeAndBodyReads(), nullptr);
  ASSERT_EQ(stats.shard_candidates.size(), 4u);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : stats.shard_candidates) sum += c;
  EXPECT_EQ(sum, stats.candidates_total);
  EXPECT_GT(stats.candidates_total, 0u);

  // Single-shard runs carry no per-shard breakdown.
  ReadMapper mono(ref_, config_);
  const MappingStats mono_stats = mono.MapReads(EdgeAndBodyReads(), nullptr);
  EXPECT_TRUE(mono_stats.shard_candidates.empty());
}

TEST_F(ShardedMappingTest, ConcurrentBuildMatchesSerial) {
  SeedConfig scfg;
  scfg.k = 8;
  scfg.shard_max_bp = 6000;
  const SeedIndex serial = SeedIndex::Build(ref_, scfg, 1);
  const SeedIndex parallel = SeedIndex::Build(ref_, scfg, 4);
  ASSERT_EQ(serial.shard_count(), parallel.shard_count());
  EXPECT_EQ(serial.indexed_positions(), parallel.indexed_positions());
  for (std::size_t s = 0; s < serial.shard_count(); ++s) {
    const KmerIndex& a = serial.shard(s);
    const KmerIndex& b = parallel.shard(s);
    ASSERT_EQ(a.positions().size(), b.positions().size());
    EXPECT_TRUE(std::equal(a.positions().begin(), a.positions().end(),
                           b.positions().begin()));
  }
}

}  // namespace
}  // namespace gkgpu
