// Reproduces Table 3, Table 4, Table 5 and Sup. Tables S.24-S.26: whole-
// genome read mapping with and without GateKeeper-GPU pre-alignment
// filtering.
//
//   * Table 3 block: mapping information (mappings, mapped reads,
//     verification pairs, rejected pairs / reduction %) on a real-profile
//     100 bp set at e = 0 and e = 5.
//   * Table 4 block: theoretical vs achieved verification (DP) speedup.
//   * Table 5 block: filtering+DP and overall speedups on both setups and
//     both encoding actors.
//   * S.24/S.25 blocks: sim_set_1 (300 bp, rich deletions, e = 15) and
//     sim_set_2 (150 bp, low indel, e = 8).
//   * S.26 block: 50 bp at e = 0/1, plus 150 bp and 250 bp sets at e = 0.
//
// Scale with GKGPU_GENOME (default 4,000,000 bp) and GKGPU_READS
// (default 40,000 for the headline set; smaller sets scale down).
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "mapper/mapper.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/table.hpp"

using namespace gkgpu;
using namespace gkgpu::bench;

namespace {

struct RunOutcome {
  MappingStats plain;
  MappingStats filtered[2];  // [0]=device-encoded, [1]=host-encoded
  int setup = 1;
};

// Heavily repetitive genome: diverged segmental-duplication-like copies
// make seeding produce many above-threshold candidates, the workload the
// paper's 45-billion-candidate runs are made of.
GenomeProfile WholeGenomeProfile() {
  GenomeProfile g;
  g.repeat_families = 48;
  g.repeat_length = 2500;
  g.repeat_copies = 20;
  g.repeat_mutation_rate = 0.12;  // copies diverge well beyond e = 5%
  g.n_runs_per_mb = 2.0;
  return g;
}

MapperConfig MakeMapperConfig(int length, int e) {
  MapperConfig m;
  m.k = 12;
  m.read_length = length;
  m.error_threshold = e;
  return m;
}

// mrFAST verifies single-threaded; keeping verification serial preserves
// the paper's DP-time bottleneck that Tables 4/5 measure.
pipeline::PipelineConfig SerialVerify() {
  pipeline::PipelineConfig p;
  p.verify_workers = 1;
  return p;
}

MappingStats RunFiltered(ReadMapper& mapper,
                         const std::vector<std::string>& reads, int length,
                         int e, int setup, EncodingActor actor) {
  auto devices = setup == 1 ? gpusim::MakeSetup1(1) : gpusim::MakeSetup2(1);
  EngineConfig ecfg;
  ecfg.read_length = length;
  ecfg.error_threshold = e;
  ecfg.encoding = actor;
  GateKeeperGpuEngine engine(ecfg, Ptrs(devices));
  return mapper.MapReads(reads, &engine, SerialVerify());
}

void PrintMappingInfo(const char* title, const MappingStats& plain,
                      const MappingStats& filtered) {
  std::printf("\n-- %s --\n", title);
  TablePrinter t({"mrFAST w/", "mappings", "mapped reads",
                  "verification pairs", "rejected pairs", "reduction"});
  t.AddRow({"No Filter", TablePrinter::Count(plain.mappings),
            TablePrinter::Count(plain.mapped_reads),
            TablePrinter::Count(plain.verification_pairs), "NA", "NA"});
  t.AddRow({"GateKeeper-GPU", TablePrinter::Count(filtered.mappings),
            TablePrinter::Count(filtered.mapped_reads),
            TablePrinter::Count(filtered.verification_pairs),
            TablePrinter::Count(filtered.rejected_pairs),
            TablePrinter::Percent(filtered.ReductionPercent(), 0)});
  t.Print(std::cout);
}

void PrintSpeedups(const char* title, const RunOutcome s1,
                   const RunOutcome s2) {
  std::printf("\n-- %s --\n", title);
  // Table 4: theoretical speedup = candidates / surviving pairs; achieved =
  // measured DP time ratio.
  {
    TablePrinter t({"mrFAST w/", "theoretical DP speedup",
                    "achieved DP speedup (S1)", "achieved DP speedup (S2)"});
    const MappingStats& f1 = s1.filtered[0];
    const double theo =
        f1.verification_pairs
            ? static_cast<double>(f1.candidates_total) /
                  static_cast<double>(f1.verification_pairs)
            : 0.0;
    auto achieved = [](const MappingStats& plain, const MappingStats& f) {
      return f.verification_seconds > 0
                 ? plain.verification_seconds / f.verification_seconds
                 : 0.0;
    };
    t.AddRow({"No Filter", "NA", "NA", "NA"});
    t.AddRow({"GateKeeper-GPU",
              TablePrinter::Num(theo, 1) + "x",
              TablePrinter::Num(achieved(s1.plain, s1.filtered[0]), 1) + "x",
              TablePrinter::Num(achieved(s2.plain, s2.filtered[0]), 1) + "x"});
    t.Print(std::cout);
  }
  // Table 5: filtering + DP, and overall.
  {
    TablePrinter t({"mrFAST w/", "filt+DP S1 (s)", "speedup",
                    "filt+DP S2 (s)", "speedup", "overall S1 (s)", "speedup",
                    "overall S2 (s)", "speedup"});
    auto add = [&](const char* name, const RunOutcome& o1,
                   const RunOutcome& o2, int enc) {
      const MappingStats& f1 = o1.filtered[enc];
      const MappingStats& f2 = o2.filtered[enc];
      const double fd1 = f1.filter_kernel_seconds + f1.verification_seconds;
      const double fd2 = f2.filter_kernel_seconds + f2.verification_seconds;
      t.AddRow({name, TablePrinter::Num(fd1, 2),
                TablePrinter::Num(o1.plain.verification_seconds / fd1, 1) + "x",
                TablePrinter::Num(fd2, 2),
                TablePrinter::Num(o2.plain.verification_seconds / fd2, 1) + "x",
                TablePrinter::Num(f1.total_seconds, 2),
                TablePrinter::Num(
                    o1.plain.total_seconds / f1.total_seconds, 1) +
                    "x",
                TablePrinter::Num(f2.total_seconds, 2),
                TablePrinter::Num(
                    o2.plain.total_seconds / f2.total_seconds, 1) +
                    "x"});
    };
    t.AddRow({"No Filter", TablePrinter::Num(s1.plain.verification_seconds, 2),
              "NA", TablePrinter::Num(s2.plain.verification_seconds, 2), "NA",
              TablePrinter::Num(s1.plain.total_seconds, 2), "NA",
              TablePrinter::Num(s2.plain.total_seconds, 2), "NA"});
    add("GateKeeper-GPU (d)", s1, s2, 0);
    add("GateKeeper-GPU (h)", s1, s2, 1);
    t.Print(std::cout);
  }
}

}  // namespace

int main() {
  const std::size_t genome_len = EnvSize("GKGPU_GENOME", 4000000);
  const std::size_t n_reads = EnvSize("GKGPU_READS", 40000);
  std::printf("=== Tables 3/4/5, S.24-S.26: whole-genome mapping ===\n");
  std::printf("(synthetic genome %zu bp with repeat families)\n", genome_len);
  const std::string genome =
      GenerateGenome(genome_len, 33, WholeGenomeProfile());

  // ---- ERR240727_1-like real-profile 100 bp set, e = 0 and e = 5. ----
  {
    const auto reads = SimulateReadSequences(
        genome, n_reads, 100, ReadErrorProfile::Illumina(), 34);
    for (const int e : {0, 5}) {
      MapperConfig mcfg = MakeMapperConfig(100, e);
      ReadMapper mapper(genome, mcfg);
      RunOutcome s1;
      RunOutcome s2;
      s1.plain = mapper.MapReads(reads, nullptr, SerialVerify());
      s2.plain = s1.plain;
      s1.filtered[0] = RunFiltered(mapper, reads, 100, e, 1,
                                   EncodingActor::kDevice);
      s1.filtered[1] = RunFiltered(mapper, reads, 100, e, 1,
                                   EncodingActor::kHost);
      s2.filtered[0] = RunFiltered(mapper, reads, 100, e, 2,
                                   EncodingActor::kDevice);
      s2.filtered[1] = RunFiltered(mapper, reads, 100, e, 2,
                                   EncodingActor::kHost);
      char title[128];
      std::snprintf(title, sizeof(title),
                    "Table 3: real-profile 100bp set, e = %d", e);
      PrintMappingInfo(title, s1.plain, s1.filtered[0]);
      if (e == 5) {
        PrintSpeedups("Tables 4 & 5: verification and overall speedups "
                      "(100bp, e = 5)",
                      s1, s2);
      }
    }
  }

  // ---- sim_set_1-like: 300 bp rich-deletion profile, e = 15 (S.24). ----
  {
    const auto reads = SimulateReadSequences(
        genome, n_reads / 8, 300, ReadErrorProfile::RichDeletion(), 35);
    MapperConfig mcfg = MakeMapperConfig(300, 15);
    ReadMapper mapper(genome, mcfg);
    const MappingStats plain = mapper.MapReads(reads, nullptr, SerialVerify());
    const MappingStats filtered =
        RunFiltered(mapper, reads, 300, 15, 1, EncodingActor::kDevice);
    PrintMappingInfo("Table S.24: sim_set_1-like (300bp rich deletions, "
                     "e = 15)",
                     plain, filtered);
  }

  // ---- sim_set_2-like: 150 bp low-indel profile, e = 8 (S.25). ----
  {
    const auto reads = SimulateReadSequences(
        genome, n_reads / 2, 150, ReadErrorProfile::LowIndel(), 36);
    MapperConfig mcfg = MakeMapperConfig(150, 8);
    ReadMapper mapper(genome, mcfg);
    const MappingStats plain = mapper.MapReads(reads, nullptr, SerialVerify());
    const MappingStats filtered =
        RunFiltered(mapper, reads, 150, 8, 1, EncodingActor::kHost);
    PrintMappingInfo("Table S.25: sim_set_2-like (150bp low indel, e = 8)",
                     plain, filtered);
  }

  // ---- S.26: additional real-like sets at tight thresholds. ----
  {
    struct Extra {
      int length;
      int e;
      const char* label;
    };
    for (const Extra x : {Extra{50, 0, "50bp, e = 0"},
                          Extra{50, 1, "50bp, e = 1"},
                          Extra{150, 0, "150bp, e = 0"},
                          Extra{250, 0, "250bp, e = 0"}}) {
      const auto reads = SimulateReadSequences(
          genome, n_reads / 4, x.length, ReadErrorProfile::Illumina(),
          37 + static_cast<std::uint64_t>(x.length) + x.e);
      MapperConfig mcfg = MakeMapperConfig(x.length, x.e);
      ReadMapper mapper(genome, mcfg);
      const MappingStats plain =
          mapper.MapReads(reads, nullptr, SerialVerify());
      const MappingStats filtered = RunFiltered(mapper, reads, x.length, x.e,
                                                1, EncodingActor::kHost);
      char title[96];
      std::snprintf(title, sizeof(title), "Table S.26: real-profile %s",
                    x.label);
      PrintMappingInfo(title, plain, filtered);
      if (plain.mappings != filtered.mappings) {
        std::printf("WARNING: mapping count changed with filtering!\n");
      }
    }
  }

  std::printf(
      "\nExpected shapes (paper): identical mappings/mapped reads with and\n"
      "without the filter; 81-97%% candidate reduction depending on the\n"
      "set; achieved DP speedup below the theoretical ratio; overall\n"
      "speedup smaller still (Amdahl); Setup 2 consistently behind Setup 1.\n");
  return 0;
}
