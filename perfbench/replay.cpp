// Traced in-process replay of one perfbench workload.
//
//   perfbench_replay --mode single|paired|jobs --ref DIR --data DIR --e 5
//                    [--threads N] [--jobs J] --spans SPANS.tsv
//                    --stats STATS.json
//
// Replays what the `gkgpu` CLI does for the workload by calling each
// layer's public functions, one call per span: MappedIndexFile::Open
// (io), the ReadMapper constructor the way the CLI builds it (mapper),
// FASTQ parsing (io), CollectCandidatesOriented (mapper), the
// candidate PairBlock fill (encode), PreAlignmentFilter::FilterBatch
// (filters), BandedVerifier (align) and the SAM writers (mapper).  A
// warm-up pass is followed by unrecorded and recorded passes in ABBA
// order; each pass is timed, so the walls of the two kinds give the cost
// of recording spans.  After the passes a
// "breakdown" run measures work the CLI does not do on its own: verifying
// the rejected candidates (what the filter saved), BandedAlign on every
// confirmed pair, and the index build.
//
// Paired mode treats each mate as a single-end read: insert-window
// pruning, pairing and rescue are internal to the paired driver, so the
// benchmark takes those from the driver's reported counters instead.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "encode/encoded.hpp"
#include "encode/revcomp.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/pair_block.hpp"
#include "io/fastq.hpp"
#include "io/index_io.hpp"
#include "io/paired_fastq.hpp"
#include "io/reference.hpp"
#include "mapper/mapper.hpp"
#include "mapper/mapq.hpp"
#include "mapper/sam.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace gkgpu;
using Clock = std::chrono::steady_clock;

/// In-memory span store: spans nest through an explicit parent stack and
/// are written out once, after the replay.
class SpanRecorder {
 public:
  struct Record {
    std::string run;
    int id = 0;
    int parent = -1;
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
  };

  bool enabled = false;
  std::string run;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  int Open(const char* name) {
    const int id = static_cast<int>(records_.size());
    records_.push_back(
        {run, id, stack_.empty() ? -1 : stack_.back(), name, NowUs(), 0.0});
    stack_.push_back(id);
    return id;
  }
  void Close(int id) {
    records_[static_cast<std::size_t>(id)].end_us = NowUs();
    stack_.pop_back();
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    out << "run\tid\tparent\tname\tstart_us\tend_us\n";
    for (const Record& r : records_) {
      out << r.run << '\t' << r.id << '\t' << r.parent << '\t' << r.name
          << '\t' << r.start_us << '\t' << r.end_us << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

SpanRecorder g_rec;

class Span {
 public:
  explicit Span(const char* name) : id_(g_rec.enabled ? g_rec.Open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) g_rec.Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// Counters from one pass; every pass does identical work, so the last
/// pass's counters describe them all.
struct Counts {
  std::uint64_t reads = 0;
  std::uint64_t fastq_bytes = 0;
  std::uint64_t candidates = 0;
  std::uint64_t accepted = 0;
  std::uint64_t false_accepts = 0;  // accepted, refuted by verification
  std::uint64_t confirmed = 0;
  std::uint64_t sam_bytes = 0;
};

struct Options {
  std::string mode;
  std::string ref;   // ref.fa and ref.gki
  std::string data;  // reads; scratch output goes here too
  int e = 5;
  unsigned threads = 0;
  int jobs = 0;
};

/// Whether each pass records spans: an unrecorded warm-up pass, then
/// unrecorded and recorded passes in ABBA order.
constexpr bool kPassRecords[] = {false, false, true, true, false};

/// One read set as the CLI holds it: sequences and names, parallel.
struct ReadSet {
  std::vector<std::string> seqs;
  std::vector<std::string> names;
};

std::uint64_t FileBytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

ReadSet ParseSingle(const std::string& path, Counts* counts) {
  Span span("io.fastq_parse");
  ReadSet set;
  for (FastqRecord& r : ReadFastqFile(path)) {
    set.seqs.push_back(std::move(r.seq));
    set.names.push_back(std::move(r.name));
  }
  counts->fastq_bytes += FileBytes(path);
  return set;
}

/// Mates as reads: all R1 records, then all R2 records.
ReadSet ParsePaired(const std::string& dir, Counts* counts) {
  Span span("io.fastq_parse");
  std::ifstream in1(dir + "/r1.fq");
  std::ifstream in2(dir + "/r2.fq");
  if (!in1 || !in2) throw std::runtime_error("cannot open " + dir + "/r*.fq");
  PairedFastqReader reader(in1, in2);
  ReadSet r1, r2;
  FastqRecord a, b;
  while (reader.Next(&a, &b)) {
    r1.seqs.push_back(std::move(a.seq));
    r1.names.push_back(std::move(a.name));
    r2.seqs.push_back(std::move(b.seq));
    r2.names.push_back(std::move(b.name));
  }
  for (std::size_t i = 0; i < r2.seqs.size(); ++i) {
    r1.seqs.push_back(std::move(r2.seqs[i]));
    r1.names.push_back(std::move(r2.names[i]));
  }
  counts->fastq_bytes += FileBytes(dir + "/r1.fq") + FileBytes(dir + "/r2.fq");
  return r1;
}

/// Breakdown-run tallies: work the CLI does not do on its own.
struct Breakdown {
  std::uint64_t lost_by_filter = 0;  // rejected pairs verification confirms
};

/// The single-end mapping path over one read set: seed, pack, filter and
/// verify in batches of `kBatchReads`, then write the SAM.  With a
/// Breakdown, each batch also verifies its rejected candidates and aligns
/// its confirmed ones, under spans of their own.
class Mapping {
 public:
  static constexpr std::size_t kBatchReads = 8192;

  Mapping(const ReadMapper& mapper, const ReferenceEncodingView& encoding,
          int e)
      : mapper_(mapper), encoding_(encoding), e_(e) {}

  void Run(const ReadSet& reads, const std::string& sam_path, Counts* counts,
           Breakdown* breakdown) {
    const std::string_view genome = mapper_.genome();
    const int length = mapper_.config().read_length;
    std::vector<MappingRecord> records;
    std::vector<std::string> rcs;
    std::vector<CandidatePair> cands;
    std::vector<OrientedCandidate> one;
    std::vector<std::int64_t> scratch;
    std::vector<PairResult> results;
    const int words_per_seq = EncodedWords(length);
    std::vector<Word> read_words;
    std::vector<std::uint8_t> read_has_n;
    for (std::size_t base = 0; base < reads.seqs.size(); base += kBatchReads) {
      Span batch_span("batch");
      const std::size_t count =
          std::min(kBatchReads, reads.seqs.size() - base);
      rcs.resize(count);
      cands.clear();
      {
        Span span("mapper.seed");
        for (std::size_t i = 0; i < count; ++i) {
          mapper_.CollectCandidatesOriented(reads.seqs[base + i], &rcs[i],
                                            &scratch, &one);
          for (const OrientedCandidate oc : one) {
            cands.push_back(
                {static_cast<std::uint32_t>(i), oc.strand, 0, oc.pos});
          }
        }
      }
      counts->candidates += cands.size();
      const auto oriented = [&](const CandidatePair& c) {
        return c.strand != 0 ? std::string_view(rcs[c.read_index])
                             : std::string_view(reads.seqs[base + c.read_index]);
      };
      const auto segment = [&](const CandidatePair& c) {
        return genome.substr(static_cast<std::size_t>(c.ref_pos),
                             static_cast<std::size_t>(length));
      };
      {
        // The candidate-shaped PairBlock the CLI's engine filters: a 2-bit
        // read table plus (read, strand, position) lanes over the encoded
        // genome the index file already holds.
        Span span("encode.pack");
        read_words.resize(count * static_cast<std::size_t>(words_per_seq));
        read_has_n.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
          read_has_n[i] = EncodeSequence(
              reads.seqs[base + i],
              read_words.data() + i * static_cast<std::size_t>(words_per_seq));
        }
      }
      PairBlock block;
      block.size = cands.size();
      block.length = length;
      block.words_per_seq = words_per_seq;
      block.reads_enc = read_words.data();
      block.bypass = read_has_n.data();
      block.candidates = cands.data();
      block.ref_words = encoding_.words.data();
      block.ref_n_mask = encoding_.n_mask.data();
      block.ref_len = encoding_.length;
      results.assign(cands.size(), PairResult{});
      {
        Span span("filters.filter");
        filter_.FilterBatch(block, e_, results.data());
      }
      const std::size_t first_record = records.size();
      {
        Span span("align.verify");
        for (std::size_t i = 0; i < cands.size(); ++i) {
          const CandidatePair& c = cands[i];
          if (results[i].accept == 0) continue;
          const int d = verifier_.Distance(oriented(c), segment(c), e_);
          if (d < 0) {
            ++counts->false_accepts;
            continue;
          }
          records.push_back({static_cast<std::uint32_t>(base + c.read_index),
                             c.ref_pos, d, c.strand});
        }
      }
      for (const PairResult& r : results) counts->accepted += r.accept;
      if (breakdown == nullptr) continue;
      {
        Span span("align.verify_rejected");
        for (std::size_t i = 0; i < cands.size(); ++i) {
          if (results[i].accept != 0) continue;
          if (verifier_.Distance(oriented(cands[i]), segment(cands[i]), e_) >=
              0) {
            ++breakdown->lost_by_filter;
          }
        }
      }
      {
        Span span("align.cigar");
        std::string rc;
        for (std::size_t r = first_record; r < records.size(); ++r) {
          const MappingRecord& m = records[r];
          const std::string& seq = reads.seqs[m.read_index];
          if (m.strand != 0) ReverseComplementInto(seq, &rc);
          const Alignment a = BandedAlign(
              m.strand != 0 ? std::string_view(rc) : std::string_view(seq),
              genome.substr(static_cast<std::size_t>(m.pos),
                            static_cast<std::size_t>(length)),
              m.edit_distance);
          if (a.distance != m.edit_distance) {
            throw std::runtime_error(
                "BandedAlign disagrees with BandedVerifier");
          }
        }
      }
    }
    counts->confirmed += records.size();
    {
      Span span("mapper.sam_write");
      std::ofstream sam(sam_path);
      WriteSamHeader(sam, mapper_.reference());
      WriteSamRecordsMultiChrom(sam, reads.seqs, reads.names, records,
                                mapper_.reference(), {}, kDefaultMapqCap,
                                SecondaryPolicy::kBestOnly);
    }
    counts->sam_bytes += FileBytes(sam_path);
  }

 private:
  const ReadMapper& mapper_;
  const ReferenceEncodingView& encoding_;
  int e_;
  GateKeeperFilter filter_;
  BandedVerifier verifier_;
};

std::unique_ptr<ReadMapper> InitMapper(const MappedIndexFile& index,
                                       const Options& opt) {
  Span span("mapper.init");
  MapperConfig mcfg;
  mcfg.k = index.k();
  mcfg.read_length = 100;
  mcfg.error_threshold = opt.e;
  mcfg.verify_threads = opt.threads;
  if (opt.mode == "paired") {
    // `map --paired` seeds from an in-memory index rebuilt from the
    // reference even when given --index.
    mcfg.seed_mode = index.seed_mode();
    mcfg.minimizer_w = index.minimizer_w();
    return std::make_unique<ReadMapper>(index.reference(), mcfg);
  }
  return std::make_unique<ReadMapper>(index.reference(),
                                      index.seed_index().Alias(), mcfg);
}

/// One replay pass; returns its wall seconds.
double Pass(const Options& opt, Counts* counts, Breakdown* breakdown) {
  const Clock::time_point t0 = Clock::now();
  {
    Span root(breakdown != nullptr ? "breakdown" : "replay");
    std::unique_ptr<MappedIndexFile> index;
    {
      Span span("io.index_open");
      index = std::make_unique<MappedIndexFile>(
          MappedIndexFile::Open(opt.ref + "/ref.gki", IndexLoadOptions{}));
    }
    const std::unique_ptr<ReadMapper> mapper = InitMapper(*index, opt);
    Mapping mapping(*mapper, index->encoding(), opt.e);
    const std::string sam_path = opt.data + "/replay.sam";
    if (opt.mode == "jobs") {
      for (int j = 0; j < opt.jobs; ++j) {
        Span job("job");
        char name[32];
        std::snprintf(name, sizeof(name), "/job_%03d.fq", j);
        const ReadSet reads = ParseSingle(opt.data + name, counts);
        counts->reads += reads.seqs.size();
        mapping.Run(reads, sam_path, counts, breakdown);
      }
    } else {
      const ReadSet reads = opt.mode == "paired"
                                ? ParsePaired(opt.data, counts)
                                : ParseSingle(opt.data + "/reads.fq", counts);
      counts->reads += reads.seqs.size();
      mapping.Run(reads, sam_path, counts, breakdown);
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Replays `gkgpu index` on the workload's FASTA; returns its seconds.
double BuildIndex(const Options& opt) {
  const ReferenceSet ref = ReferenceSet::FromFastaFile(opt.ref + "/ref.fa");
  SeedConfig scfg;
  {
    const MappedIndexFile index =
        MappedIndexFile::Open(opt.ref + "/ref.gki", IndexLoadOptions{});
    scfg.k = index.k();
    scfg.mode = index.seed_mode();
    scfg.minimizer_w = index.minimizer_w();
  }
  const std::string tmp = opt.data + "/replay_index.gki";
  const Clock::time_point t0 = Clock::now();
  {
    Span span("mapper.index_build");
    BuildAndWriteIndexFile(tmp, ref, scfg);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::filesystem::remove(tmp);
  return seconds;
}

Options ParseOptions(int argc, char** argv, std::string* spans,
                     std::string* stats) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--mode") opt.mode = val;
    else if (key == "--ref") opt.ref = val;
    else if (key == "--data") opt.data = val;
    else if (key == "--e") opt.e = std::atoi(val.c_str());
    else if (key == "--threads") opt.threads = static_cast<unsigned>(std::atoi(val.c_str()));
    else if (key == "--jobs") opt.jobs = std::atoi(val.c_str());
    else if (key == "--spans") *spans = val;
    else if (key == "--stats") *stats = val;
    else throw std::invalid_argument("unknown option " + key);
  }
  if ((opt.mode != "single" && opt.mode != "paired" && opt.mode != "jobs") ||
      opt.ref.empty() || opt.data.empty() || spans->empty() || stats->empty() ||
      (opt.mode == "jobs" && opt.jobs <= 0)) {
    throw std::invalid_argument(
        "usage: perfbench_replay --mode single|paired|jobs --ref DIR --data DIR "
        "--e N "
        "[--threads N] [--jobs J] --spans FILE --stats FILE");
  }
  return opt;
}

int Run(int argc, char** argv) {
  std::string spans_path, stats_path;
  const Options opt = ParseOptions(argc, argv, &spans_path, &stats_path);

  std::vector<double> walls;
  Counts counts;
  for (std::size_t p = 0; p < std::size(kPassRecords); ++p) {
    counts = Counts{};
    g_rec.enabled = kPassRecords[p];
    g_rec.run = "pass" + std::to_string(p);
    walls.push_back(Pass(opt, &counts, nullptr));
  }

  g_rec.enabled = true;
  g_rec.run = "breakdown";
  Counts breakdown_counts;
  Breakdown breakdown;
  Pass(opt, &breakdown_counts, &breakdown);
  const double index_build_s = BuildIndex(opt);
  g_rec.Write(spans_path);

  std::ofstream out(stats_path);
  out << std::setprecision(9);
  out << "{\"passes\": [";
  for (std::size_t p = 0; p < walls.size(); ++p) {
    out << (p ? ", " : "") << "{\"record\": " << (kPassRecords[p] ? 1 : 0)
        << ", \"wall_s\": " << walls[p] << "}";
  }
  out << "],\n \"reads\": " << counts.reads
      << ", \"fastq_bytes\": " << counts.fastq_bytes
      << ", \"candidates\": " << counts.candidates
      << ", \"accepted\": " << counts.accepted
      << ", \"false_accepts\": " << counts.false_accepts
      << ", \"confirmed\": " << counts.confirmed
      << ", \"lost_by_filter\": " << breakdown.lost_by_filter
      << ", \"sam_bytes\": " << counts.sam_bytes
      << ", \"index_build_s\": " << index_build_s
      << ", \"simd_tier\": " << static_cast<int>(simd::ActiveLevel())
      << ", \"simd_tier_name\": \"" << simd::LevelName(simd::ActiveLevel())
      << "\"}\n";
  if (!out) throw std::runtime_error("cannot write " + stats_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_replay: %s\n", ex.what());
    return 1;
  }
}
