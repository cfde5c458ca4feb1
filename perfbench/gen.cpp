// Seeded workload generator for the perfbench harness.
//
//   perfbench_gen --kind genome --out DIR --seed S --genome-bp N
//                 [--chromosomes C]
//   perfbench_gen --kind single|paired|jobs --ref FASTA --out DIR --seed S
//                 [--profile illumina|richdel] [--reads N] [--pairs N]
//                 [--jobs J --job-reads R]
//
// `genome` writes DIR/ref.fa: C repeat-seeded chromosomes chr1..chrC of
// N/C bases each.  The read kinds sample from FASTA and write, per kind:
//   single  reads.fq, one.fq (its first read), truth.tsv
//   paired  r1.fq, r2.fq, one_1.fq, one_2.fq (the first pair), truth.tsv
//   jobs    job_000.fq ... (J files of R reads), one.fq, truth.tsv
// truth.tsv holds one line per read: name, chromosome, 0-based forward-
// strand origin, strand (0 forward, 1 reverse complement).  Single-end and
// job reads are reverse-complemented with probability 1/2.  Every byte is a
// function of the arguments, so the same seed gives the same files.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "encode/revcomp.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace {

using namespace gkgpu;

constexpr int kReadLength = 100;

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::invalid_argument(std::string("unexpected argument ") +
                                  argv[i]);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

long GetInt(const std::map<std::string, std::string>& args,
            const std::string& key, long fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::atol(it->second.c_str());
}

/// splitmix64: a stream of independent per-purpose seeds from one seed.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Truth {
  std::string name;
  std::string chrom;
  std::int64_t pos = 0;
  int strand = 0;
};

void WriteTruth(const std::string& path, const std::vector<Truth>& truth) {
  std::ofstream out(path);
  for (const Truth& t : truth) {
    out << t.name << '\t' << t.chrom << '\t' << t.pos << '\t' << t.strand
        << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Single-end reads drawn round-robin across the chromosomes, half of them
/// reverse-complemented.
void SimulateSingle(const std::vector<FastaRecord>& chroms, std::size_t count,
                    const ReadErrorProfile& profile, std::uint64_t seed,
                    const std::string& prefix, std::vector<FastqRecord>* fq,
                    std::vector<Truth>* truth) {
  const std::size_t nchrom = chroms.size();
  std::vector<std::vector<SimulatedRead>> per_chrom(nchrom);
  for (std::size_t c = 0; c < nchrom; ++c) {
    const std::size_t n = count / nchrom + (c < count % nchrom ? 1 : 0);
    per_chrom[c] = SimulateReads(chroms[c].seq, n, kReadLength, profile,
                                 Mix(seed ^ (0x100 + c)));
  }
  std::uint64_t strand_state = Mix(seed ^ 0x5757);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t c = i % nchrom;
    const SimulatedRead& r = per_chrom[c][i / nchrom];
    strand_state = Mix(strand_state);
    const int strand = static_cast<int>(strand_state >> 63);
    const std::string name = prefix + std::to_string(i);
    fq->push_back({name, strand != 0 ? ReverseComplement(r.seq) : r.seq, ""});
    truth->push_back({name, chroms[c].name, r.origin, strand});
  }
}

int Usage() {
  std::fputs("usage: perfbench_gen --kind genome --out DIR --seed S "
             "--genome-bp N [--chromosomes C]\n"
             "       perfbench_gen --kind single|paired|jobs --ref FASTA "
             "--out DIR --seed S [--profile illumina|richdel] [--reads N] "
             "[--pairs N] [--jobs J --job-reads R]\n",
             stderr);
  return 2;
}

int Run(const std::map<std::string, std::string>& args) {
  const std::string kind = args.count("kind") ? args.at("kind") : "";
  const std::string out = args.count("out") ? args.at("out") : "";
  const auto seed = static_cast<std::uint64_t>(GetInt(args, "seed", 1));
  if (out.empty()) return Usage();
  if (kind == "genome") {
    const auto genome_bp =
        static_cast<std::size_t>(GetInt(args, "genome-bp", 0));
    const auto nchrom =
        static_cast<std::size_t>(GetInt(args, "chromosomes", 1));
    if (genome_bp < 10000 || nchrom < 1 || nchrom > 64) {
      std::fputs("perfbench_gen: --genome-bp must be >= 10000 and "
                 "--chromosomes in [1, 64]\n",
                 stderr);
      return 2;
    }
    std::vector<FastaRecord> chroms;
    for (std::size_t c = 0; c < nchrom; ++c) {
      chroms.push_back({"chr" + std::to_string(c + 1),
                        GenerateGenome(genome_bp / nchrom, Mix(seed ^ c))});
    }
    WriteFastaFile(out + "/ref.fa", chroms);
    return 0;
  }
  if ((kind != "single" && kind != "paired" && kind != "jobs") ||
      !args.count("ref")) {
    return Usage();
  }
  const std::string profile_name =
      args.count("profile") ? args.at("profile") : "illumina";
  ReadErrorProfile profile = ReadErrorProfile::Illumina();
  if (profile_name == "richdel") {
    profile = ReadErrorProfile::RichDeletion();
  } else if (profile_name != "illumina") {
    std::fprintf(stderr, "perfbench_gen: unknown profile %s\n",
                 profile_name.c_str());
    return 2;
  }
  const long count = kind == "single"   ? GetInt(args, "reads", 0)
                     : kind == "paired" ? GetInt(args, "pairs", 0)
                                        : GetInt(args, "jobs", 0) *
                                              GetInt(args, "job-reads", 0);
  if (count <= 0) {
    std::fputs("perfbench_gen: the workload needs at least one read\n",
               stderr);
    return 2;
  }
  const std::vector<FastaRecord> chroms = ReadFastaFile(args.at("ref"));
  if (chroms.empty()) {
    std::fputs("perfbench_gen: the reference has no sequences\n", stderr);
    return 2;
  }

  std::vector<Truth> truth;
  if (kind == "single") {
    std::vector<FastqRecord> fq;
    SimulateSingle(chroms, static_cast<std::size_t>(GetInt(args, "reads", 0)),
                   profile, seed, "r", &fq, &truth);
    WriteFastqFile(out + "/reads.fq", fq);
    WriteFastqFile(out + "/one.fq", {fq.front()});
  } else if (kind == "jobs") {
    const auto jobs = static_cast<std::size_t>(GetInt(args, "jobs", 0));
    const auto job_reads = static_cast<std::size_t>(GetInt(args, "job-reads", 0));
    std::vector<FastqRecord> fq;
    SimulateSingle(chroms, jobs * job_reads, profile, seed, "j", &fq, &truth);
    for (std::size_t j = 0; j < jobs; ++j) {
      char file[32];
      std::snprintf(file, sizeof(file), "/job_%03zu.fq", j);
      WriteFastqFile(out + file,
                     std::vector<FastqRecord>(
                         fq.begin() + static_cast<std::ptrdiff_t>(j * job_reads),
                         fq.begin() +
                             static_cast<std::ptrdiff_t>((j + 1) * job_reads)));
    }
    WriteFastqFile(out + "/one.fq", {fq.front()});
  } else {
    // Paired fragments come from the first chromosome: the paired
    // simulator samples one sequence.  R2 is reverse-complemented (FR).
    PairSimConfig cfg;
    cfg.read_length = kReadLength;
    cfg.profile = profile;
    const auto pairs =
        SimulatePairs(chroms.front().seq,
                      static_cast<std::size_t>(GetInt(args, "pairs", 0)), cfg,
                      Mix(seed ^ 0x9a1));
    std::vector<FastqRecord> r1, r2;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::string stem = "p" + std::to_string(i);
      r1.push_back({stem + "/1", pairs[i].seq1, ""});
      r2.push_back({stem + "/2", pairs[i].seq2, ""});
      truth.push_back({stem + "/1", chroms.front().name, pairs[i].origin1, 0});
      truth.push_back({stem + "/2", chroms.front().name, pairs[i].origin2, 1});
    }
    WriteFastqFile(out + "/r1.fq", r1);
    WriteFastqFile(out + "/r2.fq", r2);
    WriteFastqFile(out + "/one_1.fq", {r1.front()});
    WriteFastqFile(out + "/one_2.fq", {r2.front()});
  }
  WriteTruth(out + "/truth.tsv", truth);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_gen: %s\n", ex.what());
    return 1;
  }
}
