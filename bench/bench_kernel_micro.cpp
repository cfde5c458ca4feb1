// Google-benchmark microbenchmarks of the filtration core itself: per-pair
// latency of GateKeeperFiltration across read lengths and error thresholds,
// the amendment/count primitives, the encoded reverse complement, the
// baselines, the exact aligners and the fused verification kernel — the
// numbers behind the throughput tables.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/banded_bv.hpp"
#include "align/cigar.hpp"
#include "align/local.hpp"
#include "align/myers.hpp"
#include "align/needleman_wunsch.hpp"
#include "encode/encoded.hpp"
#include "encode/revcomp.hpp"
#include "filters/gatekeeper_core.hpp"
#include "filters/magnet.hpp"
#include "filters/shouji.hpp"
#include "filters/sneakysnake.hpp"
#include "sim/genome.hpp"
#include "sim/pairgen.hpp"

namespace gkgpu {
namespace {

struct EncodedPair {
  Word read[kMaxEncodedWords];
  Word ref[kMaxEncodedWords];
};

EncodedPair MakeEncoded(int length, int edits, std::uint64_t seed) {
  const SequencePair p = MakePairWithEdits(length, edits, 0.3, seed);
  EncodedPair enc;
  EncodeSequence(p.read, enc.read);
  EncodeSequence(p.ref, enc.ref);
  return enc;
}

void BM_GateKeeperFiltration(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int e = static_cast<int>(state.range(1));
  const EncodedPair p = MakeEncoded(length, e + 2, 99);
  GateKeeperParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GateKeeperFiltration(p.read, p.ref, length, e, params));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GateKeeperFiltration)
    ->ArgsProduct({{100, 150, 250}, {0, 2, 5, 10}});

void BM_GateKeeperFiltrationLut(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int e = static_cast<int>(state.range(1));
  const EncodedPair p = MakeEncoded(length, e + 2, 99);
  GateKeeperParams params;
  params.use_lut = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GateKeeperFiltration(p.read, p.ref, length, e, params));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GateKeeperFiltrationLut)->Args({100, 5})->Args({250, 10});

void BM_Amendment(benchmark::State& state) {
  Word mask[kMaxMaskWords];
  for (int i = 0; i < kMaxMaskWords; ++i) {
    mask[i] = 0x5A5A5A5Au ^ (0x01010101u * i);
  }
  const int nwords = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Word scratch[kMaxMaskWords];
    std::memcpy(scratch, mask, sizeof(scratch));
    AmendShortZeroRuns(scratch, nwords);
    benchmark::DoNotOptimize(scratch[0]);
  }
}
BENCHMARK(BM_Amendment)->Arg(4)->Arg(8)->Arg(16);

void BM_CountOneRuns(benchmark::State& state) {
  Word mask[kMaxMaskWords];
  for (int i = 0; i < kMaxMaskWords; ++i) {
    mask[i] = 0x93A5C71Eu * (i + 1);
  }
  const int nwords = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountOneRuns(mask, nwords));
  }
}
BENCHMARK(BM_CountOneRuns)->Arg(4)->Arg(16);

// The filter's lane loader reverse-complements the encoded read of every
// reverse-strand candidate.
void BM_ReverseComplementEncoded(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const EncodedPair p = MakeEncoded(length, 0, 5);
  Word out[kMaxEncodedWords];
  for (auto _ : state) {
    ReverseComplementEncoded(p.read, length, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetLabel("ReverseComplementEncoded-" + std::to_string(length));
}
BENCHMARK(BM_ReverseComplementEncoded)->Arg(100);

void BM_BaselineFilter(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const int e = 5;
  const SequencePair p = MakePairWithEdits(100, 7, 0.3, 7);
  MagnetFilter magnet;
  ShoujiFilter shouji;
  SneakySnakeFilter snake;
  PreAlignmentFilter* filter =
      which == 0 ? static_cast<PreAlignmentFilter*>(&magnet)
                 : which == 1 ? static_cast<PreAlignmentFilter*>(&shouji)
                              : static_cast<PreAlignmentFilter*>(&snake);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter->Filter(p.read, p.ref, e));
  }
  state.SetLabel(std::string(filter->name()));
}
BENCHMARK(BM_BaselineFilter)->DenseRange(0, 2);

void BM_ExactAligners(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const SequencePair p = MakePairWithEdits(100, 7, 0.3, 11);
  MyersAligner myers;
  BandedVerifier verifier;
  // Rescue-shaped fit: a 100 bp mate with 3 edits planted at offset 200 of
  // a 345 bp window, starts admitted up to 240 (the insert-size window
  // plus an e-base tail, as mate rescue scans it).
  const std::string window = GenerateGenome(345, 13);
  std::string rescued = window.substr(200, 100);
  rescued[20] = rescued[20] == 'A' ? 'C' : 'A';
  rescued.erase(50, 1);
  rescued[80] = rescued[80] == 'G' ? 'T' : 'G';
  LocalAligner local;
  // CIGAR-shaped: a verified 100 bp candidate (two substitutions, one
  // deletion, one insertion) aligned with its confirmed distance as the
  // band, as the verify workers call it.
  const std::string v_ref = GenerateGenome(100, 17);
  std::string v_read = v_ref;
  v_read[15] = v_read[15] == 'A' ? 'C' : 'A';
  v_read.erase(40, 1);
  v_read.insert(70, 1, v_read[70] == 'G' ? 'T' : 'G');
  v_read[90] = v_read[90] == 'T' ? 'A' : 'T';
  const int v_edits = BandedEditDistance(v_read, v_ref, 5);
  for (auto _ : state) {
    switch (which) {
      case 0:
        benchmark::DoNotOptimize(NwEditDistance(p.read, p.ref));
        break;
      case 1:
        benchmark::DoNotOptimize(myers.Distance(p.read, p.ref));
        break;
      case 2:
        benchmark::DoNotOptimize(BandedEditDistance(p.read, p.ref, 10));
        break;
      case 3:
        benchmark::DoNotOptimize(verifier.Distance(p.read, p.ref, 5));
        break;
      case 4:
        benchmark::DoNotOptimize(local.BestFit(rescued, window, 5, 240));
        break;
      default:
        benchmark::DoNotOptimize(BandedAlign(v_read, v_ref, v_edits));
        break;
    }
  }
  static constexpr const char* kLabels[] = {
      "NW-DP", "Myers", "Banded-k10", "BandedVerifier-k5",
      "BestFit-rescue-345bp", "BandedAlign-k5"};
  state.SetLabel(kLabels[which]);
}
BENCHMARK(BM_ExactAligners)->DenseRange(0, 5);

// The fused verification kernel at the active tier, one eight-lane call
// per iteration; items are pairs, so items_per_second compares with the
// per-pair BandedVerifier-k5 (refuted) and BandedVerifier-k5 +
// BandedAlign-k5 (confirmed) rows above.
void BM_FusedVerify(benchmark::State& state) {
  const bool confirmed = state.range(0) != 0;
  std::vector<std::string> reads;
  std::vector<std::string> windows;
  for (int l = 0; l < BandedBvVerifier::kLanes; ++l) {
    // Confirmed: 4 edits; refuted: 7 edits against e = 5.
    const SequencePair p =
        MakePairWithEdits(100, confirmed ? 4 : 7, 0.3, 31 + l);
    reads.push_back(p.read);
    windows.push_back(p.ref);
  }
  BandedBvVerifier bv;
  std::vector<std::string> cigars(BandedBvVerifier::kLanes);
  BvLane lanes[BandedBvVerifier::kLanes];
  for (auto _ : state) {
    for (int l = 0; l < BandedBvVerifier::kLanes; ++l) {
      lanes[l] = {reads[l], windows[l], confirmed ? &cigars[l] : nullptr};
    }
    bv.Verify(lanes, BandedBvVerifier::kLanes, 5);
    benchmark::DoNotOptimize(lanes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * BandedBvVerifier::kLanes);
  const std::string what =
      confirmed ? "BandedBv-k5-confirmed-cigar-x8-" : "BandedBv-k5-refuted-x8-";
  state.SetLabel(what + (bv.vectorized() ? "avx512" : "scalar"));
}
BENCHMARK(BM_FusedVerify)->DenseRange(0, 1);

}  // namespace
}  // namespace gkgpu

BENCHMARK_MAIN();
