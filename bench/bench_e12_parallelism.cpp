// E12 — the §1 motivation: oblivious algorithms *guarantee* full disk
// parallelism; merge-based sorts only achieve it in expectation, and only
// with enough prefetching. Measures parallel-I/O utilization of the
// forecasting multiway merge across lookahead depths and disk counts,
// against the oblivious ThreePass2 at the same N.
#include "bench_support.h"
#include "baselines/multiway_merge.h"
#include "core/three_pass_lmm.h"

using namespace pdm;
using namespace pdm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  banner("E12 / obliviousness vs forecasting",
         "Disk utilization (mean blocks per parallel I/O): oblivious "
         "ThreePass2 vs multiway merge at increasing prefetch lookahead. "
         "Paper (§1): oblivious algorithms make guaranteed parallelism; "
         "merge sorts depend on data and prefetch luck.");

  const u64 mem = cli.get_u64("m", 4096);
  const u64 s = isqrt(mem);
  const u64 runs = cli.get_u64("runs", 8);
  const u64 n = runs * mem;  // single merge level at fan-in = runs

  Table t({"D", "algorithm", "read ops", "read util", "total passes"});
  for (u64 c : {8ull, 4ull, 2ull}) {  // D = s/c
    const u32 disks = static_cast<u32>(s / c);
    const Geom g{mem, s, disks};
    Rng rng(c);
    auto data = make_keys(static_cast<usize>(n), Dist::kUniform, rng);
    {
      auto ctx = make_ctx(g);
      auto in = stage<u64>(*ctx, data);
      ThreePassLmmOptions opt;
      opt.mem_records = mem;
      auto res = three_pass_lmm_sort<u64>(*ctx, in, opt);
      check_sorted<u64>(res.output, n);
      const double util = static_cast<double>(res.report.io.blocks_read) /
                          static_cast<double>(res.report.io.read_ops);
      t.row()
          .cell(u64{disks})
          .cell("ThreePass2 (oblivious)")
          .cell(res.report.io.read_ops)
          .cell(fmt_double(util, 2) + "/" + std::to_string(disks))
          .cell(res.report.passes, 3);
    }
    for (usize lookahead : {0ull, 1ull, 2ull, 4ull}) {
      // Skip configurations whose buffer pool does not fit in M.
      if ((runs * (1 + lookahead) + disks) * s > mem) continue;
      auto ctx = make_ctx(g);
      auto in = stage<u64>(*ctx, data);
      MultiwaySortOptions opt;
      opt.mem_records = mem;
      opt.lookahead = lookahead;
      opt.fan_in = runs;  // one merge level for every configuration
      auto res = multiway_merge_sort<u64>(*ctx, in, opt);
      check_sorted<u64>(res.output, n);
      const double util = static_cast<double>(res.report.io.blocks_read) /
                          static_cast<double>(res.report.io.read_ops);
      t.row()
          .cell(u64{disks})
          .cell("Multiway lookahead=" + std::to_string(lookahead))
          .cell(res.report.io.read_ops)
          .cell(fmt_double(util, 2) + "/" + std::to_string(disks))
          .cell(res.report.passes, 3);
    }
  }
  t.print(std::cout);

  // Part 2: the adversary. Keys arranged so every merge "wave" needs all
  // runs' next blocks on the same disk — no lookahead depth helps. The
  // oblivious sort's schedule is input-independent, so it is unaffected
  // by construction.
  {
    Table t2({"D", "input", "algorithm", "read util", "total passes"});
    const u64 c = 4;
    const u32 disks = static_cast<u32>(s / c);
    const Geom g{mem, s, disks};
    auto adv = make_merge_adversary(runs, mem, static_cast<usize>(s), disks);
    Rng rng(3);
    auto rnd = make_keys(static_cast<usize>(n), Dist::kUniform, rng);
    for (bool adversarial : {false, true}) {
      const auto& data = adversarial ? adv : rnd;
      for (usize lookahead : {1ull, 4ull}) {
        if ((runs * (1 + lookahead) + disks) * s > mem) continue;
        auto ctx = make_ctx(g);
        auto in = stage<u64>(*ctx, data);
        MultiwaySortOptions opt;
        opt.mem_records = mem;
        opt.lookahead = lookahead;
        opt.fan_in = runs;
        auto res = multiway_merge_sort<u64>(*ctx, in, opt);
        check_sorted<u64>(res.output, n);
        const double util =
            static_cast<double>(res.report.io.blocks_read) /
            static_cast<double>(res.report.io.read_ops);
        t2.row()
            .cell(u64{disks})
            .cell(adversarial ? "adversarial" : "random")
            .cell("Multiway lookahead=" + std::to_string(lookahead))
            .cell(fmt_double(util, 2) + "/" + std::to_string(disks))
            .cell(res.report.passes, 3);
      }
      {
        auto ctx = make_ctx(g);
        auto in = stage<u64>(*ctx, data);
        ThreePassLmmOptions opt;
        opt.mem_records = mem;
        auto res = three_pass_lmm_sort<u64>(*ctx, in, opt);
        check_sorted<u64>(res.output, n);
        const double util =
            static_cast<double>(res.report.io.blocks_read) /
            static_cast<double>(res.report.io.read_ops);
        t2.row()
            .cell(u64{disks})
            .cell(adversarial ? "adversarial" : "random")
            .cell("ThreePass2 (oblivious)")
            .cell(fmt_double(util, 2) + "/" + std::to_string(disks))
            .cell(res.report.passes, 3);
      }
    }
    std::cout << "-- adversarial merge-order input (defeats any lookahead) "
                 "--\n";
    t2.print(std::cout);
  }
  std::cout
      << "Expected shape: the oblivious sort reads at ~D blocks per op at "
         "every D, on every input. Multiway with lookahead 0 collapses "
         "toward 1 block/op; forecasting with lookahead >= 1-2 recovers "
         "most of the gap on random data — but the adversarial input "
         "pins its utilization near 1 at ANY depth, while ThreePass2 is "
         "untouched. Guaranteed vs expected parallelism: the paper's "
         "argument for oblivious algorithms, quantified.\n";
  return 0;
}
