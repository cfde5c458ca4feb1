// MAPQ subsystem tests: the score-gap/multiplicity model itself, the fit
// (Smith-Waterman-style) aligner behind mate rescue, and the end-to-end
// properties the subsystem promises — unique simulated placements score
// >= 30, exact tandem-repeat placements score 0, duplicate-pair marking
// flags exactly the later copies, and SW rescue recovers an indel-bearing
// mate the per-offset banded scans it replaced could not place.
#include "mapper/mapq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "align/local.hpp"
#include "encode/dna.hpp"
#include "encode/revcomp.hpp"
#include "io/fastq.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "paired/paired.hpp"
#include "paired_stream.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

constexpr int kReadLength = 100;

// ---------------------------------------------------------------- model --

TEST(ComputeMapqTest, TiedBestPlacementsScoreZero) {
  EXPECT_EQ(ComputeMapq(0.0, 0.0, 2, kDefaultMapqCap), 0);
  EXPECT_EQ(ComputeMapq(3.0, 3.0, 5, kDefaultMapqCap), 0);
}

TEST(ComputeMapqTest, UniqueHitScoresHighAndFallsWithEdits) {
  EXPECT_EQ(ComputeMapq(0.0, -1.0, 1, kDefaultMapqCap), kDefaultMapqCap);
  EXPECT_EQ(ComputeMapq(2.0, -1.0, 1, kDefaultMapqCap),
            kDefaultMapqCap - 2 * kEditDiscount);
  // The per-edit discount never drives the value below zero.
  EXPECT_EQ(ComputeMapq(100.0, -1.0, 1, kDefaultMapqCap), 0);
}

TEST(ComputeMapqTest, RunnerUpGapBoundsTheQuality) {
  // A runner-up one edit behind caps MAPQ at one gap unit.
  EXPECT_EQ(ComputeMapq(1.0, 2.0, 1, kDefaultMapqCap), kGapScale);
  // Three edits behind: three units, still below the base confidence.
  EXPECT_EQ(ComputeMapq(0.0, 3.0, 1, kDefaultMapqCap), 3 * kGapScale);
  // A distant runner-up stops mattering: the base confidence rules.
  EXPECT_EQ(ComputeMapq(0.0, 50.0, 1, kDefaultMapqCap), kDefaultMapqCap);
}

TEST(ComputeMapqTest, GapScaleMatchesTheAlignmentScoreStep) {
  // One edit of penalty gap equals one AlignmentScore step doubled — the
  // MAPQ gap scale and the aligner's match-scaled scoring agree.
  const int score_step =
      AlignmentScore(kReadLength, 0) - AlignmentScore(kReadLength, 1);
  EXPECT_EQ(kGapScale, 2 * score_step);
}

TEST(AssignMapqsTest, BestRecordCarriesTheReadQuality) {
  const std::vector<int> mapqs = AssignMapqs({3, 1, 2}, kDefaultMapqCap);
  ASSERT_EQ(mapqs.size(), 3u);
  // Best (1 edit) is unique; runner-up has 2 -> gap-limited quality.
  EXPECT_EQ(mapqs[1], kGapScale);
  EXPECT_EQ(mapqs[0], 0);  // secondary placements are never the one to trust
  EXPECT_EQ(mapqs[2], 0);
}

TEST(AssignMapqsTest, TiedRepeatPlacementsAllScoreZero) {
  for (const int mapq : AssignMapqs({2, 2, 2}, kDefaultMapqCap)) {
    EXPECT_EQ(mapq, 0);
  }
}

TEST(AssignMapqsTest, SingleRecordGetsBaseConfidence) {
  const std::vector<int> mapqs = AssignMapqs({2}, kDefaultMapqCap);
  ASSERT_EQ(mapqs.size(), 1u);
  EXPECT_EQ(mapqs[0], kDefaultMapqCap - 2 * kEditDiscount);
}

// -------------------------------------------------------- fit alignment --

TEST(LocalAlignerTest, FindsExactInfixAtItsOffset) {
  const std::string genome = GenerateGenome(4000, 5);
  const std::string read = genome.substr(1234, kReadLength);
  LocalAligner aligner;
  const LocalAlignment fit =
      aligner.BestFit(read, std::string_view(genome).substr(1000, 600), 4);
  ASSERT_EQ(fit.edits, 0);
  EXPECT_EQ(fit.ref_begin, 234);
  EXPECT_EQ(fit.ref_span, kReadLength);
  EXPECT_EQ(fit.cigar, std::to_string(kReadLength) + "M");
}

TEST(LocalAlignerTest, RespectsTheEditBudget) {
  LocalAligner aligner;
  const LocalAlignment fit = aligner.BestFit("AAAA", "CCCCCCCC", 2);
  EXPECT_EQ(fit.edits, -1);
}

TEST(LocalAlignerTest, MaxBeginExcludesLaterStartsWithoutShadowing) {
  // An exact copy beyond the start bound must neither be returned nor
  // shadow the (worse) admissible placement — rescue windows extend past
  // the last admissible start only to avoid clipping indel spans.
  const std::string genome = GenerateGenome(4000, 9);
  const std::string read = genome.substr(2000, kReadLength);
  const std::string_view window = std::string_view(genome).substr(1900, 300);
  LocalAligner aligner;
  // Bound admits the exact copy (ref_begin 100): found.
  const LocalAlignment in = aligner.BestFit(read, window, 2, 100);
  ASSERT_EQ(in.edits, 0);
  EXPECT_EQ(in.ref_begin, 100);
  // Bound one base short, zero budget: the exact copy is out of reach
  // and a start inside the bound would need a (budget-charged) leading
  // deletion to use it.
  const LocalAlignment out = aligner.BestFit(read, window, 0, 99);
  EXPECT_EQ(out.edits, -1);
}

TEST(LocalAlignerTest, RecoversAnIndelPlacementTheOffsetScanCannot) {
  const std::string genome = GenerateGenome(50000, 17);
  // A read sampled over 103 reference bases with three deleted: every
  // fixed 100-wide window pays each deletion twice (once as the indel,
  // once as the shifted tail), but the fit alignment spans 103 bases and
  // pays three.
  const std::int64_t origin = 20000;
  std::string read = genome.substr(origin, kReadLength + 3);
  read.erase(80, 1);
  read.erase(40, 1);
  read.erase(10, 1);
  ASSERT_EQ(static_cast<int>(read.size()), kReadLength);

  LocalAligner aligner;
  const std::string_view window =
      std::string_view(genome).substr(origin - 50, 300);
  const LocalAlignment fit = aligner.BestFit(read, window, 3);
  ASSERT_EQ(fit.edits, 3);
  EXPECT_EQ(fit.ref_begin, 50);
  EXPECT_EQ(fit.ref_span, kReadLength + 3);
  // The CIGAR's implied edits agree with the reported distance against
  // the exact span the traceback claims.
  EXPECT_EQ(CigarEdits(read,
                       window.substr(static_cast<std::size_t>(fit.ref_begin),
                                     static_cast<std::size_t>(fit.ref_span)),
                       fit.cigar),
            3);
  EXPECT_NE(fit.cigar.find('D'), std::string::npos);

  // The replaced per-offset scan: no fixed 100-wide window in the region
  // fits the read within the same budget.
  for (std::int64_t p = origin - 50; p < origin + 200; ++p) {
    EXPECT_LT(BandedEditDistance(
                  read, std::string_view(genome).substr(
                            static_cast<std::size_t>(p), kReadLength), 3),
              0)
        << p;
  }
}

// ------------------------------------------------- end-to-end properties --

MapperConfig MakeMapperConfig(int e = 4) {
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = kReadLength;
  mcfg.error_threshold = e;
  return mcfg;
}

/// Parses SAM body lines into (qname, flag, mapq, nm) tuples.
struct ParsedRecord {
  std::string qname;
  int flag = 0;
  int mapq = -1;
};

std::vector<ParsedRecord> ParseSam(const std::string& sam) {
  std::vector<ParsedRecord> out;
  std::istringstream in(sam);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '@') continue;
    std::istringstream fields(line);
    ParsedRecord rec;
    std::string rname, pos;
    fields >> rec.qname >> rec.flag >> rname >> pos >> rec.mapq;
    out.push_back(std::move(rec));
  }
  return out;
}

TEST(MapqPropertiesTest, UniquePlacementsScoreHighRepeatsScoreZero) {
  // A random genome with an exact 100 bp tandem repeat planted: reads
  // simulated off the random part place uniquely, a read equal to the
  // repeat unit's copy places everywhere the unit does.
  const std::string unit = GenerateGenome(100, 404);
  ASSERT_EQ(unit.find('N'), std::string::npos);
  std::string genome = GenerateGenome(60000, 7);
  std::string repeat;
  for (int i = 0; i < 5; ++i) repeat += unit;
  genome += repeat;
  genome += GenerateGenome(5000, 8);

  ReadMapper mapper(genome, MakeMapperConfig());
  const auto sim = SimulateReads(std::string_view(genome).substr(0, 60000),
                                 200, kReadLength,
                                 ReadErrorProfile::Illumina(), 21);
  std::vector<std::string> reads;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    reads.push_back(sim[i].seq);
    names.push_back("sim" + std::to_string(i));
  }
  // The planted repeat read: one exact copy of the unit.
  reads.push_back(unit);
  names.push_back("repeat_read");

  std::vector<MappingRecord> records;
  mapper.MapReads(reads, nullptr, {}, &records);

  // Report-secondary mode: every verified placement emits, the primary
  // without 0x100 and everything else with it at MAPQ 0.
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference());
  WriteSamRecordsMultiChrom(sam, reads, names, records, mapper.reference(),
                            /*read_group=*/{}, kDefaultMapqCap,
                            SecondaryPolicy::kReportSecondary);
  const auto parsed = ParseSam(sam.str());
  ASSERT_FALSE(parsed.empty());

  std::map<std::string, std::vector<int>> by_read;
  for (const ParsedRecord& rec : parsed) {
    EXPECT_NE(rec.mapq, 255) << rec.qname;  // never "unavailable"
    if ((rec.flag & kSamSecondary) != 0) {
      EXPECT_EQ(rec.mapq, 0) << rec.qname;  // secondaries never score
    }
    by_read[rec.qname].push_back(rec.mapq);
  }

  // Unique placements (exactly one record) are confidently scored.
  std::size_t unique_reads = 0;
  for (const auto& [name, mapqs] : by_read) {
    if (name == "repeat_read" || mapqs.size() != 1) continue;
    ++unique_reads;
    EXPECT_GE(mapqs.front(), 30) << name;
  }
  // The synthetic genome is deliberately repetitive, so only part of the
  // read set places uniquely — but every one of those scores confidently.
  EXPECT_GT(unique_reads, 50u);

  // The tandem-repeat read mapped to every unit copy, all MAPQ 0.
  const auto repeat_it = by_read.find("repeat_read");
  ASSERT_NE(repeat_it, by_read.end());
  EXPECT_GE(repeat_it->second.size(), 5u);
  for (const int mapq : repeat_it->second) EXPECT_EQ(mapq, 0);

  // Best-only (the default): exactly one record per mapped read, no
  // 0x100 anywhere — the repeat read collapses to its (tied, MAPQ 0)
  // primary.
  std::ostringstream best;
  WriteSamRecordsMultiChrom(best, reads, names, records, mapper.reference());
  std::map<std::string, std::size_t> best_counts;
  for (const ParsedRecord& rec : ParseSam(best.str())) {
    EXPECT_EQ(rec.flag & kSamSecondary, 0) << rec.qname;
    ++best_counts[rec.qname];
  }
  for (const auto& [name, count] : best_counts) {
    EXPECT_EQ(count, 1u) << name;
  }
  ASSERT_EQ(best_counts.count("repeat_read"), 1u);
  EXPECT_EQ(best_counts.size(), by_read.size());
}

TEST(DuplicateMarkingTest, LaterFragmentCopiesAreFlagged) {
  const std::string genome = GenerateGenome(80000, 91);
  const std::int64_t frag_start = 25000;
  const int frag_len = 350;
  const std::string fragment = genome.substr(frag_start, frag_len);
  ASSERT_EQ(fragment.find('N'), std::string::npos);
  const std::string r1 = fragment.substr(0, kReadLength);
  const std::string r2 =
      ReverseComplement(fragment.substr(frag_len - kReadLength, kReadLength));

  // A second, distinct fragment for contrast.
  const std::string other = genome.substr(50000, frag_len);
  ASSERT_EQ(other.find('N'), std::string::npos);
  const std::string o1 = other.substr(0, kReadLength);
  const std::string o2 =
      ReverseComplement(other.substr(frag_len - kReadLength, kReadLength));

  // Three copies of the same fragment interleaved with the distinct one:
  // the first copy stays unmarked, both later copies are duplicates.
  const std::vector<FastqRecord> mates1 = {
      {"copyA", r1, ""}, {"other", o1, ""}, {"copyB", r1, ""},
      {"copyC", r1, ""}};
  const std::vector<FastqRecord> mates2 = {
      {"copyA", r2, ""}, {"other", o2, ""}, {"copyB", r2, ""},
      {"copyC", r2, ""}};

  ReadMapper mapper(genome, MakeMapperConfig());
  PairedConfig pconf;
  pconf.max_insert = 800;
  pconf.mark_duplicates = true;
  PairedEndMapper paired(mapper, pconf);
  std::ostringstream sam;
  const PairedStats stats =
      MapPairRecords(paired, mates1, mates2, nullptr, &sam);
  EXPECT_EQ(stats.proper_pairs, 4u);
  EXPECT_EQ(stats.duplicate_pairs, 2u);

  std::map<std::string, int> dup_records;
  for (const ParsedRecord& rec : ParseSam(sam.str())) {
    if ((rec.flag & kSamDuplicate) != 0) ++dup_records[rec.qname];
  }
  // Exactly the later copies, and both mates of each.
  EXPECT_EQ(dup_records.size(), 2u);
  EXPECT_EQ(dup_records["copyB"], 2);
  EXPECT_EQ(dup_records["copyC"], 2);
  EXPECT_EQ(dup_records.count("copyA"), 0u);
  EXPECT_EQ(dup_records.count("other"), 0u);

  // Marking off: identical input, no 0x400 anywhere.
  pconf.mark_duplicates = false;
  PairedEndMapper unmarked(mapper, pconf);
  std::ostringstream sam2;
  const PairedStats stats2 =
      MapPairRecords(unmarked, mates1, mates2, nullptr, &sam2);
  EXPECT_EQ(stats2.duplicate_pairs, 0u);
  for (const ParsedRecord& rec : ParseSam(sam2.str())) {
    EXPECT_EQ(rec.flag & kSamDuplicate, 0) << rec.qname;
  }
}

TEST(DuplicateMarkingTest, OpticalDistanceClassifiesTileAdjacentCopies) {
  const std::string genome = GenerateGenome(80000, 93);
  const std::int64_t frag_start = 30000;
  const int frag_len = 350;
  const std::string fragment = genome.substr(frag_start, frag_len);
  ASSERT_EQ(fragment.find('N'), std::string::npos);
  const std::string r1 = fragment.substr(0, kReadLength);
  const std::string r2 =
      ReverseComplement(fragment.substr(frag_len - kReadLength, kReadLength));

  // Five copies of one fragment with Illumina-style names: the first
  // stays unmarked; of the four later copies only the tile-adjacent one
  // classifies optical — different tile, far pixels, and an unparseable
  // name all stay plain PCR duplicates.
  const std::vector<std::string> names = {
      "M00001:7:FC1:1:101:1000:2000",  // first copy (unmarked)
      "M00001:7:FC1:1:101:1005:2003",  // same tile, 5x3 px away: optical
      "M00001:7:FC1:1:102:1000:2000",  // different tile
      "M00001:7:FC1:1:101:5000:9000",  // same tile, far away
      "no_coordinates_here",           // unparseable name
  };
  std::vector<FastqRecord> mates1, mates2;
  for (const std::string& name : names) {
    mates1.push_back({name, r1, ""});
    mates2.push_back({name, r2, ""});
  }

  ReadMapper mapper(genome, MakeMapperConfig());
  PairedConfig pconf;
  pconf.max_insert = 800;
  pconf.mark_duplicates = true;
  pconf.optical_dup_distance = 100;
  PairedEndMapper paired(mapper, pconf);
  std::ostringstream sam;
  const PairedStats stats =
      MapPairRecords(paired, mates1, mates2, nullptr, &sam);
  EXPECT_EQ(stats.proper_pairs, 5u);
  EXPECT_EQ(stats.duplicate_pairs, 4u);
  EXPECT_EQ(stats.optical_duplicate_pairs, 1u);

  // Optical classification refines the stats only — every later copy
  // still flags 0x400, so the SAM bytes match a plain-duplicates run.
  int dup_records = 0;
  for (const ParsedRecord& rec : ParseSam(sam.str())) {
    if ((rec.flag & kSamDuplicate) != 0) ++dup_records;
  }
  EXPECT_EQ(dup_records, 8);  // both mates of the four later copies

  pconf.optical_dup_distance = 0;  // default off
  PairedEndMapper plain(mapper, pconf);
  std::ostringstream sam2;
  const PairedStats stats2 =
      MapPairRecords(plain, mates1, mates2, nullptr, &sam2);
  EXPECT_EQ(stats2.duplicate_pairs, 4u);
  EXPECT_EQ(stats2.optical_duplicate_pairs, 0u);
  EXPECT_EQ(sam2.str(), sam.str());
}

TEST(DuplicateMarkingTest, SingleEndAndDiscordantCopiesAreFlagged) {
  const std::string genome = GenerateGenome(80000, 92);
  const std::string r1 = genome.substr(20000, kReadLength);
  ASSERT_EQ(r1.find('N'), std::string::npos);
  // A mate that maps nowhere: a 4-periodic pattern a random genome does
  // not contain as a 100 bp near-match.
  std::string junk;
  while (junk.size() < kReadLength) junk += "ACGT";
  junk.resize(kReadLength);
  // A far-downstream reverse mate: both ends map, but the fragment is way
  // past max_insert, so the pair is discordant.
  const std::string far =
      ReverseComplement(genome.substr(60000, kReadLength));
  ASSERT_EQ(far.find('N'), std::string::npos);

  // Three copies of the single-end pair, then three of the discordant
  // pair: the first of each class stays unmarked, later copies are
  // flagged — in their own signature spaces, not the proper-pair one.
  const std::vector<FastqRecord> mates1 = {
      {"seA", r1, ""}, {"seB", r1, ""}, {"seC", r1, ""},
      {"dcA", r1, ""}, {"dcB", r1, ""}, {"dcC", r1, ""}};
  const std::vector<FastqRecord> mates2 = {
      {"seA", junk, ""}, {"seB", junk, ""}, {"seC", junk, ""},
      {"dcA", far, ""}, {"dcB", far, ""}, {"dcC", far, ""}};

  ReadMapper mapper(genome, MakeMapperConfig());
  PairedConfig pconf;
  pconf.max_insert = 500;
  pconf.mark_duplicates = true;
  pconf.mate_rescue = false;  // keep the unmappable mate single-end
  PairedEndMapper paired(mapper, pconf);
  std::ostringstream sam;
  const PairedStats stats =
      MapPairRecords(paired, mates1, mates2, nullptr, &sam);
  ASSERT_EQ(stats.single_end_pairs, 3u);
  ASSERT_EQ(stats.discordant_pairs, 3u);
  EXPECT_EQ(stats.duplicate_pairs, 0u);
  EXPECT_EQ(stats.duplicate_singletons, 2u);
  EXPECT_EQ(stats.duplicate_discordant_pairs, 2u);

  std::map<std::string, int> dup_records;
  for (const ParsedRecord& rec : ParseSam(sam.str())) {
    if ((rec.flag & kSamDuplicate) != 0) ++dup_records[rec.qname];
  }
  // Later single-end copies: only the mapped record carries the bit.
  EXPECT_EQ(dup_records.count("seA"), 0u);
  EXPECT_EQ(dup_records["seB"], 1);
  EXPECT_EQ(dup_records["seC"], 1);
  // Later discordant copies: both ends restate the same fragment claim.
  EXPECT_EQ(dup_records.count("dcA"), 0u);
  EXPECT_EQ(dup_records["dcB"], 2);
  EXPECT_EQ(dup_records["dcC"], 2);
}

TEST(SwRescueTest, RecoversAnIndelMateTheBandedScanMissed) {
  // Uniform-random genome (GenerateGenome plants repeats, which would
  // legitimately zero the anchor's MAPQ and muddy the assertion).
  std::string genome(120000, 'A');
  Rng rng(71);
  for (auto& ch : genome) ch = kBases[rng.NextU64() & 0x3u];
  const std::int64_t frag_start = 30000;
  const int frag_len = 400;
  const std::string fragment = genome.substr(frag_start, frag_len);
  ASSERT_EQ(fragment.find('N'), std::string::npos);

  // R1: exact 5' end.  R2 (before strand flip): the 3' end sampled over
  // 108 reference bases with eight single-base deletions placed so every
  // pigeonhole seed crosses one — the read seeds nowhere, and no fixed
  // 100-wide window fits it within e = 8 (each deletion also costs a
  // shifted tail), so only the fit alignment can place it.
  const std::string r1 = fragment.substr(0, kReadLength);
  const std::string source = fragment.substr(frag_len - 108, 108);
  std::string r2_fwd;
  const std::vector<int> deleted = {6, 19, 32, 45, 58, 71, 84, 97};
  for (int i = 0; i < 108; ++i) {
    if (std::find(deleted.begin(), deleted.end(), i) == deleted.end()) {
      r2_fwd.push_back(source[static_cast<std::size_t>(i)]);
    }
  }
  ASSERT_EQ(static_cast<int>(r2_fwd.size()), kReadLength);

  MapperConfig mcfg = MakeMapperConfig(8);
  ReadMapper mapper(genome, mcfg);

  // Effectively seed-starved: any chance seed hit (a random 12-mer can
  // collide) leads to a window that cannot verify within e, so only
  // rescue can place this mate.
  std::vector<OrientedCandidate> cands;
  std::string rc_buf;
  std::vector<std::int64_t> scratch;
  const std::string r2 = ReverseComplement(r2_fwd);
  mapper.CollectCandidatesOriented(r2, &rc_buf, &scratch, &cands);
  for (const OrientedCandidate& oc : cands) {
    const std::string& oriented = oc.strand != 0 ? rc_buf : r2;
    ASSERT_LT(BandedEditDistance(
                  oriented, std::string_view(genome).substr(
                                static_cast<std::size_t>(oc.pos), kReadLength),
                  8),
              0)
        << oc.pos;
  }

  // The replaced per-offset scan cannot place it anywhere in the window
  // rescue searches.
  const std::int64_t true_pos = frag_start + frag_len - 108;
  for (std::int64_t p = frag_start; p <= frag_start + 700; ++p) {
    ASSERT_LT(BandedEditDistance(
                  r2_fwd, std::string_view(genome).substr(
                              static_cast<std::size_t>(p), kReadLength), 8),
              0)
        << p;
  }

  PairedConfig pconf;
  pconf.max_insert = 800;
  PairedEndMapper paired(mapper, pconf);
  std::ostringstream sam;
  const PairedStats stats = MapPairRecords(
      paired, {{"indel", r1, ""}}, {{"indel", ReverseComplement(r2_fwd), ""}},
      nullptr, &sam);
  EXPECT_EQ(stats.rescued_mates, 1u);
  EXPECT_EQ(stats.proper_pairs, 1u);
  EXPECT_EQ(stats.single_end_pairs, 0u);

  // The rescued record: FLAG 147, the fit placement's position, a CIGAR
  // with real deletion runs whose NM matches the eight deletions.
  const std::string out = sam.str();
  EXPECT_NE(out.find("indel\t147\tsynthetic_chr1\t" +
                     std::to_string(true_pos + 1)),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("NM:i:8"), std::string::npos) << out;
  // TLEN spans the whole fragment: the rescued placement consumes 108
  // reference bases, so the outer distance is the true fragment length —
  // not read-length arithmetic that would understate it by the deletions.
  EXPECT_NE(out.find("\t" + std::to_string(frag_len) + "\t"),
            std::string::npos)
      << out;
  std::istringstream lines(out);
  std::string line;
  bool saw_rescued = false;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '@') continue;
    std::istringstream fields(line);
    std::string qname, flag, rname, pos, mapq, cigar;
    fields >> qname >> flag >> rname >> pos >> mapq >> cigar;
    if (flag != "147") continue;
    saw_rescued = true;
    EXPECT_NE(cigar.find('D'), std::string::npos) << cigar;
    EXPECT_GT(std::stoi(mapq), 0);
    EXPECT_NE(mapq, "255");
  }
  EXPECT_TRUE(saw_rescued);
}

TEST(SwRescueTest, RepeatTornRescueWindowScoresZero) {
  // Two identical copies of the lost mate's source planted inside the
  // rescue window: rescue still restores the proper pair (the placement
  // is chosen deterministically) but the placement is a coin flip, so
  // its MAPQ must be 0 like every other tie.
  std::string genome(60000, 'A');
  Rng rng(123);
  for (auto& ch : genome) ch = kBases[rng.NextU64() & 0x3u];
  std::string block(108, 'A');
  for (auto& ch : block) ch = kBases[rng.NextU64() & 0x3u];
  genome.replace(20200, block.size(), block);
  genome.replace(20480, block.size(), block);

  const std::string r1 = genome.substr(20000, kReadLength);
  std::string r2_fwd;
  const std::vector<int> deleted = {6, 19, 32, 45, 58, 71, 84, 97};
  for (int i = 0; i < 108; ++i) {
    if (std::find(deleted.begin(), deleted.end(), i) == deleted.end()) {
      r2_fwd.push_back(block[static_cast<std::size_t>(i)]);
    }
  }

  MapperConfig mcfg = MakeMapperConfig(8);
  ReadMapper mapper(genome, mcfg);
  PairedConfig pconf;
  pconf.max_insert = 800;
  PairedEndMapper paired(mapper, pconf);
  std::ostringstream sam;
  const PairedStats stats = MapPairRecords(
      paired, {{"torn", r1, ""}}, {{"torn", ReverseComplement(r2_fwd), ""}},
      nullptr, &sam);
  ASSERT_EQ(stats.rescued_mates, 1u);
  ASSERT_EQ(stats.proper_pairs, 1u);
  bool saw_rescued = false;
  for (const ParsedRecord& rec : ParseSam(sam.str())) {
    if (rec.flag != 147) continue;
    saw_rescued = true;
    EXPECT_EQ(rec.mapq, 0);
  }
  EXPECT_TRUE(saw_rescued);
}

TEST(GoldenFilesTest, CommittedGoldensCarryNoMapq255) {
  for (const char* rel : {"/tests/data/multi_chrom_golden.sam",
                          "/tests/data/paired_golden.sam"}) {
    std::ifstream in(std::string(GKGPU_SOURCE_DIR) + rel);
    ASSERT_TRUE(in) << rel;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '@') continue;
      std::istringstream fields(line);
      std::string qname, flag, rname, pos, mapq;
      fields >> qname >> flag >> rname >> pos >> mapq;
      EXPECT_NE(mapq, "255") << rel << ": " << line;
    }
  }
}

}  // namespace
}  // namespace gkgpu
