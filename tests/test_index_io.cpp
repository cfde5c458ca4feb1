// Tests for the persistent on-disk index (io/index_io.hpp): byte-exact
// round trips through the mmap'd view types, SAM parity between a mapper
// built from FASTA and one rehydrated from the file, and the rejection
// paths — bad magic, version skew, truncation, payload corruption,
// fingerprint tampering — that keep a stale or damaged index from
// producing silent garbage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "encode/encoded.hpp"
#include "io/index_io.hpp"
#include "io/reference.hpp"
#include "mapper/index.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/fingerprint.hpp"

namespace gkgpu {
namespace {

namespace fs = std::filesystem;

// Small k keeps the offset table (4^k+1 entries) test-sized.
constexpr int kTestK = 6;

ReferenceSet TestReference() {
  ReferenceSet ref;
  ref.Add("chrA", GenerateGenome(5000, 11));
  ref.Add("chrB", GenerateGenome(3000, 12));
  return ref;
}

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("gkgpu_index_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".gki"))
                .string();
    ref_ = TestReference();
    BuildAndWriteIndexFile(path_, ref_, kTestK);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove(path_, ec);
  }

  /// Flips one byte at `offset` in the written file.
  void CorruptByte(std::uint64_t offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  std::string path_;
  ReferenceSet ref_;
};

TEST_F(IndexIoTest, RoundTripPreservesEverything) {
  const MappedIndexFile mapped = MappedIndexFile::Open(path_);
  EXPECT_EQ(mapped.k(), kTestK);
  EXPECT_EQ(mapped.reference_fingerprint(), ref_.fingerprint());

  const ReferenceSet& back = mapped.reference();
  ASSERT_EQ(back.chromosome_count(), ref_.chromosome_count());
  for (std::size_t i = 0; i < ref_.chromosome_count(); ++i) {
    EXPECT_EQ(back.chromosome(i).name, ref_.chromosome(i).name);
    EXPECT_EQ(back.chromosome(i).offset, ref_.chromosome(i).offset);
    EXPECT_EQ(back.chromosome(i).length, ref_.chromosome(i).length);
  }
  EXPECT_EQ(back.text(), ref_.text());
  EXPECT_EQ(back.fingerprint(), ref_.fingerprint());

  EXPECT_EQ(mapped.format_version(), kIndexFormatVersion);
  EXPECT_EQ(mapped.seed_mode(), SeedMode::kDense);
  ASSERT_EQ(mapped.shard_count(), 1u);
  const KmerIndex fresh(ref_.text(), kTestK);
  const KmerIndex& view = mapped.seed_index().shard(0);
  EXPECT_EQ(view.k(), fresh.k());
  EXPECT_EQ(view.genome_length(), fresh.genome_length());
  ASSERT_EQ(view.offsets().size(), fresh.offsets().size());
  EXPECT_TRUE(std::equal(view.offsets().begin(), view.offsets().end(),
                         fresh.offsets().begin()));
  ASSERT_EQ(view.positions().size(), fresh.positions().size());
  EXPECT_TRUE(std::equal(view.positions().begin(), view.positions().end(),
                         fresh.positions().begin()));

  const ReferenceEncoding enc = EncodeReference(ref_.text());
  const ReferenceEncodingView& ev = mapped.encoding();
  EXPECT_EQ(ev.length, enc.length);
  ASSERT_EQ(ev.words.size(), enc.words.size());
  EXPECT_TRUE(
      std::equal(ev.words.begin(), ev.words.end(), enc.words.begin()));
  ASSERT_EQ(ev.n_mask.size(), enc.n_mask.size());
  EXPECT_TRUE(
      std::equal(ev.n_mask.begin(), ev.n_mask.end(), enc.n_mask.begin()));
}

TEST_F(IndexIoTest, PayloadChecksumVerificationPasses) {
  IndexLoadOptions options;
  options.verify_checksum = true;
  EXPECT_NO_THROW(MappedIndexFile::Open(path_, options));
}

TEST_F(IndexIoTest, MappedMapperProducesIdenticalSam) {
  const auto reads_sim = SimulateReads(ref_.text(), 300, 64,
                                       ReadErrorProfile::Illumina(), 21);
  std::vector<std::string> reads;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < reads_sim.size(); ++i) {
    reads.push_back(reads_sim[i].seq);
    names.push_back("r" + std::to_string(i));
  }
  MapperConfig mcfg;
  mcfg.k = kTestK;
  mcfg.read_length = 64;
  mcfg.error_threshold = 3;

  const auto render = [&](ReadMapper& mapper) {
    std::vector<MappingRecord> records;
    mapper.MapReads(reads, nullptr, {}, &records);
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), "");
    WriteSamRecordsMultiChrom(sam, reads, names, records,
                              mapper.reference());
    return sam.str();
  };

  ReadMapper from_fasta(TestReference(), mcfg);
  const std::string golden = render(from_fasta);

  const MappedIndexFile mapped = MappedIndexFile::Open(path_);
  ReadMapper from_index(mapped.reference(), mapped.seed_index().Alias(),
                        mcfg);
  EXPECT_EQ(render(from_index), golden);
  EXPECT_FALSE(golden.empty());
}

TEST_F(IndexIoTest, RejectsBadMagic) {
  CorruptByte(0);
  EXPECT_THROW(
      {
        try {
          MappedIndexFile::Open(path_);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IndexIoTest, RejectsVersionSkew) {
  // The format version is the u32 straight after the 8-byte magic.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t future = kIndexFormatVersion + 7;
  f.seekp(8);
  f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  f.close();
  EXPECT_THROW(
      {
        try {
          MappedIndexFile::Open(path_);
        } catch (const std::runtime_error& e) {
          // The diagnosis names both the version found and the range this
          // build supports.
          const std::string what = e.what();
          EXPECT_NE(what.find("version " +
                              std::to_string(kIndexFormatVersion + 7)),
                    std::string::npos)
              << what;
          EXPECT_NE(
              what.find(std::to_string(kIndexMinSupportedVersion) +
                        " through " + std::to_string(kIndexFormatVersion)),
              std::string::npos)
              << what;
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IndexIoTest, RejectsTruncatedFile) {
  const auto size = fs::file_size(path_);
  fs::resize_file(path_, size / 2);
  EXPECT_THROW(MappedIndexFile::Open(path_), std::runtime_error);
  // Even a header-only stub must be rejected.
  fs::resize_file(path_, 16);
  EXPECT_THROW(MappedIndexFile::Open(path_), std::runtime_error);
}

TEST_F(IndexIoTest, RejectsHeaderTampering) {
  // Flip a byte inside the stored k field: the header checksum (and the
  // derived index fingerprint) no longer match.
  CorruptByte(12);
  EXPECT_THROW(MappedIndexFile::Open(path_), std::runtime_error);
}

TEST_F(IndexIoTest, PayloadCorruptionCaughtByOptInChecksum) {
  const auto size = fs::file_size(path_);
  CorruptByte(size - 9);  // inside the trailing section-checksum table
  // The default load trusts the header checks and still opens...
  EXPECT_NO_THROW(MappedIndexFile::Open(path_));
  // ...while the opt-in full-payload scan catches the damage.
  IndexLoadOptions options;
  options.verify_checksum = true;
  EXPECT_THROW(
      {
        try {
          MappedIndexFile::Open(path_, options);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("checksum"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IndexIoTest, ChecksumFailureNamesTheCorruptSection) {
  // The v2 layout is frozen: a 176-byte header, then the chromosome table
  // ((8 + name + 16) bytes per chromosome, 8-byte padded), then the
  // reference text.  Flip a byte well inside the text.
  const std::uint64_t chrom_table_bytes = (8 + 4 + 16) * 2;  // chrA, chrB
  CorruptByte(176 + chrom_table_bytes + 100);
  IndexLoadOptions options;
  options.verify_checksum = true;
  EXPECT_THROW(
      {
        try {
          MappedIndexFile::Open(path_, options);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("reference-text"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IndexIoTest, V1FilesStillLoadAsOneShard) {
  const KmerIndex index(ref_.text(), kTestK);
  const ReferenceEncoding enc = EncodeReference(ref_.text());
  WriteIndexFileV1(path_, ref_, index, enc);

  IndexLoadOptions options;
  options.verify_checksum = true;
  const MappedIndexFile mapped = MappedIndexFile::Open(path_, options);
  EXPECT_EQ(mapped.format_version(), 1u);
  EXPECT_EQ(mapped.seed_mode(), SeedMode::kDense);
  ASSERT_EQ(mapped.shard_count(), 1u);
  EXPECT_EQ(mapped.reference().text(), ref_.text());

  const KmerIndex& view = mapped.seed_index().shard(0);
  EXPECT_EQ(view.k(), index.k());
  ASSERT_EQ(view.positions().size(), index.positions().size());
  EXPECT_TRUE(std::equal(view.positions().begin(), view.positions().end(),
                         index.positions().begin()));
  EXPECT_TRUE(std::equal(view.offsets().begin(), view.offsets().end(),
                         index.offsets().begin()));
}

TEST_F(IndexIoTest, MultiShardRoundTripMatchesMonolithicSam) {
  // Force one shard per chromosome and prove the persisted sharded index
  // maps byte-for-byte like the single-shard one.
  SeedConfig scfg;
  scfg.k = kTestK;
  scfg.shard_max_bp = 5000;  // chrA alone fills a shard
  BuildAndWriteIndexFile(path_, ref_, scfg);

  IndexLoadOptions options;
  options.verify_checksum = true;
  const MappedIndexFile mapped = MappedIndexFile::Open(path_, options);
  ASSERT_EQ(mapped.shard_count(), 2u);
  EXPECT_EQ(mapped.seed_index().genome_length(), ref_.text().size());

  const auto reads_sim = SimulateReads(ref_.text(), 300, 64,
                                       ReadErrorProfile::Illumina(), 33);
  std::vector<std::string> reads;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < reads_sim.size(); ++i) {
    reads.push_back(reads_sim[i].seq);
    names.push_back("r" + std::to_string(i));
  }
  MapperConfig mcfg;
  mcfg.k = kTestK;
  mcfg.read_length = 64;
  mcfg.error_threshold = 3;
  const auto render = [&](ReadMapper& mapper) {
    std::vector<MappingRecord> records;
    mapper.MapReads(reads, nullptr, {}, &records);
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), "");
    WriteSamRecordsMultiChrom(sam, reads, names, records,
                              mapper.reference());
    return sam.str();
  };
  ReadMapper monolithic(TestReference(), mcfg);
  ReadMapper sharded(mapped.reference(), mapped.seed_index().Alias(), mcfg);
  const std::string golden = render(monolithic);
  EXPECT_EQ(render(sharded), golden);
  EXPECT_FALSE(golden.empty());
}

TEST_F(IndexIoTest, MinimizerIndexRoundTripsWithItsParameters) {
  SeedConfig scfg;
  scfg.k = kTestK;
  scfg.mode = SeedMode::kMinimizer;
  scfg.minimizer_w = 4;
  BuildAndWriteIndexFile(path_, ref_, scfg);

  IndexLoadOptions options;
  options.verify_checksum = true;
  const MappedIndexFile mapped = MappedIndexFile::Open(path_, options);
  EXPECT_EQ(mapped.seed_mode(), SeedMode::kMinimizer);
  EXPECT_EQ(mapped.minimizer_w(), 4);

  const SeedIndex fresh = SeedIndex::Build(ref_, scfg);
  ASSERT_EQ(mapped.shard_count(), fresh.shard_count());
  EXPECT_EQ(mapped.seed_index().indexed_positions(),
            fresh.indexed_positions());

  // A mapper over the rehydrated index adopts the persisted parameters.
  MapperConfig mcfg;
  mcfg.k = kTestK;
  mcfg.read_length = 64;
  mcfg.error_threshold = 3;
  const ReadMapper mapper(mapped.reference(), mapped.seed_index().Alias(),
                          mcfg);
  EXPECT_EQ(mapper.config().seed_mode, SeedMode::kMinimizer);
  EXPECT_EQ(mapper.config().minimizer_w, 4);
}

TEST(IndexFingerprintTest, DistinguishesContentKAndVersion) {
  const std::uint64_t ref_a = FingerprintText("ACGTACGT");
  const std::uint64_t ref_b = FingerprintText("ACGTACGA");
  EXPECT_NE(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_b, 12, 1));
  EXPECT_NE(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_a, 13, 1));
  EXPECT_NE(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_a, 12, 2));
  EXPECT_EQ(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_a, 12, 1));
}

TEST(ReferenceViewTest, ValidatesTilingAndForbidsMutation) {
  const std::string text = "ACGTACGTGGGG";
  std::vector<ChromosomeInfo> good{{"c1", 0, 8}, {"c2", 8, 4}};
  const ReferenceSet view =
      ReferenceSet::View(good, text, FingerprintText(text));
  EXPECT_EQ(view.text(), text);
  EXPECT_EQ(view.chromosome_count(), 2u);

  std::vector<ChromosomeInfo> gap{{"c1", 0, 8}, {"c2", 9, 3}};
  EXPECT_THROW(ReferenceSet::View(gap, text, 0), std::invalid_argument);
  std::vector<ChromosomeInfo> overrun{{"c1", 0, 8}, {"c2", 8, 5}};
  EXPECT_THROW(ReferenceSet::View(overrun, text, 0), std::invalid_argument);

  ReferenceSet mut = ReferenceSet::View(good, text, FingerprintText(text));
  EXPECT_THROW(mut.Add("c3", "ACGT"), std::logic_error);
}

TEST(IndexIoWriteTest, RefusesEmptyReference) {
  const std::string path =
      (fs::temp_directory_path() / "gkgpu_index_empty.gki").string();
  ReferenceSet empty;
  EXPECT_THROW(BuildAndWriteIndexFile(path, empty, kTestK),
               std::runtime_error);
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace
}  // namespace gkgpu
