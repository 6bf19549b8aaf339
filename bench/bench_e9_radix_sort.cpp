// E9 — Theorem 7.2 + Observation 7.2: RadixSort takes about
// (1+nu) log(N/M)/log(M/B) + 1 passes; at N = M^2, B = sqrt(M), C = 4 the
// paper quotes <= 3.6. Sweeps N and the key range; reports the measured
// gap (padding compounding across MSD rounds) and the staged ablation.
#include "bench_support.h"
#include "core/radix_sort.h"

using namespace pdm;
using namespace pdm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  banner("E9 / Theorem 7.2 + Observation 7.2",
         "RadixSort: (1+nu) log(N/M)/log(M/B) + 1 passes for random "
         "integers; Obs 7.2 example (N = M^2, C = 4) quotes <= 3.6.");

  const u64 mem = cli.get_u64("m", 1024);
  const auto g = Geom::square(mem);
  const double digits = std::log2(static_cast<double>(mem) / g.rpb);

  Table t({"N", "key bits", "mode", "rounds formula", "paper passes",
           "measured passes", "read-p", "write-p"});
  for (u64 n : {16 * mem, 128 * mem, mem * mem}) {
    const double rounds =
        std::log2(static_cast<double>(n) / static_cast<double>(mem)) /
        digits;
    const double paper = 1.25 * std::ceil(rounds) + 1.0;  // mu = 1/C = 0.25
    for (bool staged : {false, true}) {
      auto ctx = make_ctx(g);
      Rng rng(n + staged);
      std::vector<u64> data(static_cast<usize>(n));
      for (auto& x : data) x = rng.below(mem * mem);
      auto in = stage<u64>(*ctx, data);
      RadixSortOptions opt;
      opt.mem_records = mem;
      opt.key_bits = static_cast<u32>(2 * ilog2(mem));
      opt.staged = staged;
      auto res = radix_sort<u64>(*ctx, in, opt);
      check_sorted<u64>(res.output, n);
      t.row()
          .cell(fmt_count(n))
          .cell(u64{opt.key_bits})
          .cell(staged ? "staged" : "paper")
          .cell(rounds, 2)
          .cell(paper, 2)
          .cell(res.report.passes, 3)
          .cell(res.report.read_passes, 3)
          .cell(res.report.write_passes, 3);
    }
  }
  t.print(std::cout);
  std::cout
      << "Expected shape: a small constant number of passes at every N "
         "(the theorem's substance: ~rounds+1, not log N). The measured "
         "figure exceeds the paper's 3.6 at N = M^2 because the paper's "
         "write-step analysis counts each round's padding but not its "
         "compounding: every MSD round rereads the previous round's "
         "padded blocks (~1.5x per level in paper mode). The staged "
         "extension (carrying partial bucket blocks in memory) removes "
         "0.15-0.6 passes of it; docs/ALGORITHMS.md (RadixSort) tabulates "
         "the measured passes.\n";
  return 0;
}
