// Optimizer pass pipeline benches (mzc -O1, core/passes.h) — the perf
// evidence behind the PR's acceptance gates:
//
//   BM_StaticStrided vs BM_RingDispatch
//     The same parallel sum partitioned two ways at ABI level: the
//     zomp_for_static_init strided protocol mzc emits for schedule(static)
//     and the zomp_dispatch_* ring it emits for dynamic schedules.
//
//   BM_FusedRegions vs BM_BackToBackForks
//     Two loop bodies executed inside ONE fork with an internal barrier
//     (the `fuse` lowering) vs two complete fork/join cycles.
//
//   BM_Table1ClassS_*
//     The transpiled NPB kernels at class S, -O0 vs -O1 builds of the
//     same .mz sources — the end-to-end check that the optimizer never
//     regresses whole kernels. Medians come from the repetition set
//     (--benchmark_repetitions; CI stores the JSON as BENCH_mzc_opt.json).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "cg_mz.h"
#include "cg_mz_o0.h"
#include "ep_mz.h"
#include "ep_mz_o0.h"
#include "is_mz.h"
#include "is_mz_o0.h"
#include "mandel_mz.h"
#include "mandel_mz_o0.h"
#include "npb/cg.h"
#include "npb/ep.h"
#include "npb/is.h"
#include "npb/mandel.h"
#include "runtime/abi.h"
#include "runtime/api.h"

namespace {

using bench::slice_of;

constexpr std::int64_t kIters = 1 << 20;
constexpr int kMaxThreads = 64;

struct alignas(64) PaddedSum {
  std::int64_t v;
};
PaddedSum g_sums[kMaxThreads];

const zomp_ident_t kLoc{"mzc_opt.cpp", "bench", 0};

// The two partitioning protocols, each the literal shape mzc emits.

// This thread's share of sum(i * mult) over [0, kIters), schedule(static).
std::int64_t static_sum(std::int32_t gtid, std::int64_t mult) {
  std::int64_t lo = 0, hi = 0, stride = 0;
  std::int32_t last = 0;
  zomp_for_static_init(&kLoc, gtid, 0, 0, kIters, 1, &lo, &hi, &stride,
                       &last);
  std::int64_t s = 0;
  for (std::int64_t blo = lo; blo < kIters; blo += stride) {
    const std::int64_t bhi = blo + (hi - lo) < kIters ? blo + (hi - lo)
                                                      : kIters;
    for (std::int64_t i = blo; i < bhi; ++i) s += i * mult;
  }
  zomp_for_static_fini(&kLoc, gtid);
  return s;
}

void microtask_static_strided(std::int32_t gtid, std::int32_t tid, void**) {
  g_sums[tid].v = static_sum(gtid, 1);
}

void microtask_ring_dispatch(std::int32_t gtid, std::int32_t tid, void**) {
  zomp_dispatch_init(&kLoc, gtid, /*dynamic=*/1, /*chunk=*/64, 0, kIters, 1);
  std::int64_t lo = 0, hi = 0, s = 0;
  std::int32_t last = 0;
  while (zomp_dispatch_next(&kLoc, gtid, &lo, &hi, &last) != 0) {
    for (std::int64_t i = lo; i < hi; ++i) s += i;
  }
  g_sums[tid].v = s;
}

std::int64_t run_fork(zomp_microtask_t fn, int threads) {
  for (auto& p : g_sums) p.v = 0;
  zomp_push_num_threads(&kLoc, threads);
  zomp_fork_call(&kLoc, fn, 0, nullptr);
  std::int64_t total = 0;
  for (const auto& p : g_sums) total += p.v;
  return total;
}

constexpr std::int64_t kExpected = kIters * (kIters - 1) / 2;

void thread_args(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Arg(8);
  b->Unit(benchmark::kMicrosecond);
}

void BM_StaticStrided(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    if (run_fork(microtask_static_strided, threads) != kExpected) {
      state.SkipWithError("bad sum");
    }
  }
}
ZOMP_BENCHMARK(BM_StaticStrided)->Apply(thread_args);

void BM_RingDispatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    if (run_fork(microtask_ring_dispatch, threads) != kExpected) {
      state.SkipWithError("bad sum");
    }
  }
}
ZOMP_BENCHMARK(BM_RingDispatch)->Apply(thread_args);

// -- fusion: one fork + internal barrier vs two fork/join cycles -------------

void body_phase(std::int32_t gtid, std::int32_t tid, std::int64_t mult) {
  g_sums[tid].v += static_sum(gtid, mult);
}

void microtask_fused(std::int32_t gtid, std::int32_t tid, void**) {
  body_phase(gtid, tid, 1);
  zomp_barrier(&kLoc, gtid);
  body_phase(gtid, tid, 2);
}

void microtask_phase1(std::int32_t gtid, std::int32_t tid, void**) {
  body_phase(gtid, tid, 1);
}

void microtask_phase2(std::int32_t gtid, std::int32_t tid, void**) {
  body_phase(gtid, tid, 2);
}

void BM_FusedRegions(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    if (run_fork(microtask_fused, threads) != 3 * kExpected) {
      state.SkipWithError("bad sum");
    }
  }
}
ZOMP_BENCHMARK(BM_FusedRegions)->Apply(thread_args);

void BM_BackToBackForks(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (auto& p : g_sums) p.v = 0;
    zomp_push_num_threads(&kLoc, threads);
    zomp_fork_call(&kLoc, microtask_phase1, 0, nullptr);
    zomp_push_num_threads(&kLoc, threads);
    zomp_fork_call(&kLoc, microtask_phase2, 0, nullptr);
    std::int64_t total = 0;
    for (const auto& p : g_sums) total += p.v;
    if (total != 3 * kExpected) state.SkipWithError("bad sum");
  }
}
ZOMP_BENCHMARK(BM_BackToBackForks)->Apply(thread_args);

// -- table 1, class S, both opt levels ---------------------------------------

void table_args(benchmark::internal::Benchmark* b) {
  // arg: 0 = the -O0 transpile, 1 = the -O1 (default) transpile.
  b->Arg(0)->Arg(1);
  b->Unit(benchmark::kMillisecond);
  b->Iterations(1)->Repetitions(3)->ReportAggregatesOnly(true);
}

void BM_Table1ClassS_Ep(benchmark::State& state) {
  const zomp::npb::EpClass cls = zomp::npb::ep_class('S');
  zomp::set_num_threads(4);
  std::vector<double> q(10, 0.0), res(3, 0.0);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      mzgen_ep_mz_o0::ep_run(cls.m, slice_of(q), slice_of(res));
    } else {
      mzgen_ep_mz::ep_run(cls.m, slice_of(q), slice_of(res));
    }
    benchmark::DoNotOptimize(res[2]);
  }
  state.SetLabel(state.range(0) == 0 ? "-O0" : "-O1");
}
ZOMP_BENCHMARK(BM_Table1ClassS_Ep)->Apply(table_args);

void BM_Table1ClassS_Cg(benchmark::State& state) {
  const zomp::npb::CgClass cls = zomp::npb::cg_class('S');
  zomp::npb::SparseMatrix a = zomp::npb::cg_make_matrix(cls.na, cls.nonzer);
  zomp::set_num_threads(4);
  std::vector<double> x(static_cast<std::size_t>(a.n)), z(x), r(x), p(x),
      q(x);
  std::vector<double> rnorm(1, 0.0);
  for (auto _ : state) {
    const double zeta =
        state.range(0) == 0
            ? mzgen_cg_mz_o0::cg_run(slice_of(a.rowstr), slice_of(a.colidx),
                                     slice_of(a.values), slice_of(x),
                                     slice_of(z), slice_of(r), slice_of(p),
                                     slice_of(q), cls.niter, cls.shift,
                                     slice_of(rnorm))
            : mzgen_cg_mz::cg_run(slice_of(a.rowstr), slice_of(a.colidx),
                                  slice_of(a.values), slice_of(x),
                                  slice_of(z), slice_of(r), slice_of(p),
                                  slice_of(q), cls.niter, cls.shift,
                                  slice_of(rnorm));
    benchmark::DoNotOptimize(zeta);
  }
  state.SetLabel(state.range(0) == 0 ? "-O0" : "-O1");
}
ZOMP_BENCHMARK(BM_Table1ClassS_Cg)->Apply(table_args);

void BM_Table1ClassS_Is(benchmark::State& state) {
  const zomp::npb::IsClass cls = zomp::npb::is_class('S');
  const auto keys0 = zomp::npb::is_make_keys(cls.total_keys, cls.max_key);
  constexpr int kThreads = 4;
  zomp::set_num_threads(kThreads);
  for (auto _ : state) {
    std::vector<std::int64_t> keys = keys0;
    std::vector<std::int64_t> count(static_cast<std::size_t>(cls.max_key));
    std::vector<std::int64_t> hist(
        static_cast<std::size_t>(cls.max_key * kThreads));
    const std::int64_t sum =
        state.range(0) == 0
            ? mzgen_is_mz_o0::is_run(slice_of(keys), cls.max_key,
                                     cls.iterations, slice_of(count),
                                     slice_of(hist))
            : mzgen_is_mz::is_run(slice_of(keys), cls.max_key, cls.iterations,
                                  slice_of(count), slice_of(hist));
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(state.range(0) == 0 ? "-O0" : "-O1");
}
ZOMP_BENCHMARK(BM_Table1ClassS_Is)->Apply(table_args);

void BM_Table1ClassS_Mandel(benchmark::State& state) {
  constexpr std::int64_t w = 256, h = 256, iters = 1500;
  zomp::set_num_threads(4);
  std::vector<std::int64_t> res(2, 0);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      mzgen_mandel_mz_o0::mandel_run(w, h, iters, slice_of(res));
    } else {
      mzgen_mandel_mz::mandel_run(w, h, iters, slice_of(res));
    }
    benchmark::DoNotOptimize(res[1]);
  }
  state.SetLabel(state.range(0) == 0 ? "-O0" : "-O1");
}
ZOMP_BENCHMARK(BM_Table1ClassS_Mandel)->Apply(table_args);

}  // namespace

BENCHMARK_MAIN();
