#include "probes.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "runtime/abi.h"
#include "stats.h"

namespace pb {
namespace {

using i32 = std::int32_t;
using i64 = std::int64_t;
using Clock = std::chrono::steady_clock;

constexpr zomp_ident_t kLoc = {"perfbench/probes.cpp", "probe", 0};
constexpr int kBatches = 11;  // the first is a warm-up and is dropped

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Forks one region running `body(gtid, tid, ctx)` on the current team.
template <typename Ctx>
void fork(void (*body)(i32, i32, void**), Ctx* ctx) {
  void* args[1] = {ctx};
  zomp_fork_call(&kLoc, body, 1, args);
}

/// Runs `batch()` kBatches times; returns the median of all but the first.
template <typename Fn>
double median_of_batches(Fn&& batch) {
  std::vector<double> values;
  for (int b = 0; b < kBatches; ++b) {
    const double v = batch();
    if (b > 0) values.push_back(v);
  }
  return median(values);
}

// BM_ForkJoin (hot team): an almost empty body entered back to back.
struct ForkCtx {
  std::atomic<i64> sink{0};
};
void fork_body(i32, i32, void** args) {
  static_cast<ForkCtx*>(args[0])->sink.fetch_add(1, std::memory_order_relaxed);
}

struct TimedCtx {
  int reps = 0;
  double elapsed_s = 0;
};

void barrier_body(i32 gtid, i32 tid, void** args) {
  auto* c = static_cast<TimedCtx*>(args[0]);
  zomp_barrier(&kLoc, gtid);
  const auto t0 = Clock::now();
  for (int i = 0; i < c->reps; ++i) zomp_barrier(&kLoc, gtid);
  if (tid == 0) c->elapsed_s = since(t0);
}

// BM_DynamicChunkClaim through the ABI: every member claims chunk-1 units of
// a 1<<16-iteration space until it is exhausted.
struct ClaimCtx : TimedCtx {
  std::atomic<i64> claimed{0};
};
void claim_body(i32 gtid, i32 tid, void** args) {
  auto* c = static_cast<ClaimCtx*>(args[0]);
  zomp_barrier(&kLoc, gtid);
  const auto t0 = Clock::now();
  zomp_dispatch_init(&kLoc, gtid, /*dynamic*/ 1, /*chunk*/ 1, 0, c->reps, 1);
  i64 lo = 0, hi = 0, mine = 0;
  i32 last = 0;
  while (zomp_dispatch_next(&kLoc, gtid, &lo, &hi, &last)) mine += hi - lo;
  c->claimed.fetch_add(mine, std::memory_order_relaxed);
  zomp_barrier(&kLoc, gtid);
  if (tid == 0) c->elapsed_s = since(t0);
}

// EP's reduction clause: reduction(+: sx, sy, accepted) packs three f64
// partials into one zomp_reduce payload.
struct Ep3 {
  double sx, sy, accepted;
};
void ep3_combine(void* lhs, const void* rhs) {
  auto* l = static_cast<Ep3*>(lhs);
  const auto* r = static_cast<const Ep3*>(rhs);
  l->sx += r->sx;
  l->sy += r->sy;
  l->accepted += r->accepted;
}
struct ReduceCtx : TimedCtx {
  Ep3 total{0, 0, 0};
};
void reduce_body(i32 gtid, i32 tid, void** args) {
  auto* c = static_cast<ReduceCtx*>(args[0]);
  zomp_barrier(&kLoc, gtid);
  const auto t0 = Clock::now();
  for (int i = 0; i < c->reps; ++i) {
    Ep3 v{1.0, -1.0, 1.0};
    if (zomp_reduce(&kLoc, gtid, &v, sizeof v, &ep3_combine)) {
      ep3_combine(&c->total, &v);
    }
  }
  zomp_barrier(&kLoc, gtid);
  if (tid == 0) c->elapsed_s = since(t0);
}

// EP's q[] pattern: `omp atomic` f64 adds into ten adjacent shared bins.
struct AtomicCtx : TimedCtx {
  double bins[10] = {};
};
void atomic_body(i32 gtid, i32 tid, void** args) {
  auto* c = static_cast<AtomicCtx*>(args[0]);
  zomp_barrier(&kLoc, gtid);
  const auto t0 = Clock::now();
  std::uint32_t h = 2654435761u * static_cast<std::uint32_t>(tid + 1);
  for (int i = 0; i < c->reps; ++i) {
    h = h * 1664525u + 1013904223u;
    zomp_atomic_add_f64(&c->bins[(h >> 16) % 10], 1.0);
  }
  zomp_barrier(&kLoc, gtid);
  if (tid == 0) c->elapsed_s = since(t0);
}

// BM_TaskSpawnDrain through the ABI: one member spawns deferred tasks,
// then waits for them; the others execute them by stealing.
struct SpawnCtx : TimedCtx {
  std::atomic<i64> done{0};
};
void spawn_task(void* arg) {
  (*static_cast<std::atomic<i64>**>(arg))->fetch_add(1,
                                                    std::memory_order_relaxed);
}
void spawn_body(i32 gtid, i32 tid, void** args) {
  auto* c = static_cast<SpawnCtx*>(args[0]);
  zomp_barrier(&kLoc, gtid);
  const auto t0 = Clock::now();
  if (zomp_single(&kLoc, gtid)) {
    std::atomic<i64>* done = &c->done;
    for (int i = 0; i < c->reps; ++i) {
      zomp_task(&kLoc, gtid, &spawn_task, &done, sizeof done);
    }
    zomp_taskwait(&kLoc, gtid);
    zomp_end_single(&kLoc, gtid);
  }
  zomp_barrier(&kLoc, gtid);
  if (tid == 0) c->elapsed_s = since(t0);
}

}  // namespace

ProbeResults run_probes() {
  ProbeResults r;
  const int threads = zomp_get_max_threads();
  auto expect = [&r](bool ok) {
    ++r.attempted;
    if (!ok) ++r.failures;
  };

  r.fork_join_us = median_of_batches([&] {
    constexpr int kForks = 200;
    ForkCtx c;
    const auto t0 = Clock::now();
    for (int i = 0; i < kForks; ++i) fork(&fork_body, &c);
    const double s = since(t0);
    expect(c.sink.load() == i64{kForks} * threads);
    return s / kForks * 1e6;
  });

  r.barrier_us = median_of_batches([&] {
    TimedCtx c;
    c.reps = 1000;
    fork(&barrier_body, &c);
    return c.elapsed_s / c.reps * 1e6;
  });

  r.claim_ns = median_of_batches([&] {
    ClaimCtx c;
    c.reps = 1 << 16;
    fork(&claim_body, &c);
    expect(c.claimed.load() == c.reps);
    return c.elapsed_s / c.reps * 1e9;
  });

  r.combine_us = median_of_batches([&] {
    ReduceCtx c;
    c.reps = 1000;
    fork(&reduce_body, &c);
    expect(c.total.accepted == double(c.reps) * threads &&
           c.total.sx == -c.total.sy);
    return c.elapsed_s / c.reps * 1e6;
  });

  r.atomic_f64_ns = median_of_batches([&] {
    AtomicCtx c;
    c.reps = 1 << 15;
    fork(&atomic_body, &c);
    double sum = 0;
    for (double b : c.bins) sum += b;
    expect(sum == double(c.reps) * threads);
    return c.elapsed_s / c.reps * 1e9;
  });

  r.spawn_ns = median_of_batches([&] {
    SpawnCtx c;
    c.reps = 512;
    fork(&spawn_body, &c);
    expect(c.done.load() == c.reps);
    return c.elapsed_s / c.reps * 1e9;
  });
  return r;
}

}  // namespace pb
