#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

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
#include "npb/fortran_iface.h"
#include "npb/is.h"
#include "npb/mandel.h"
#include "npb/nprandom.h"
#include "runtime/hl.h"
#include "taskgraph_mz.h"
#include "taskgraph_mz_o0.h"

namespace pb {
namespace {

using bench::slice_of;
using i64 = std::int64_t;

// Sizes. NPB-class inputs whose verification constants NPB fixes (CG's
// matrix, EP's stream) stay on NPB's generator; the seed drives the rest.
constexpr char kCgClass = 'W';
constexpr char kIsClass = 'W';
constexpr int kEpM = 22;  // below class S (m=24): ep_serial is the oracle
constexpr i64 kMandelSide = 512;
constexpr i64 kMandelMaxIter = 2000;
constexpr i64 kWaveNb = 64;
constexpr i64 kWaveBs = 48;
constexpr i64 kTaskloopN = i64{1} << 20;
constexpr i64 kTaskloopGrain = 256;
constexpr i64 kTaskloopNumTasks = 1024;
constexpr i64 kTaskgroupN = 20000;

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

bool rel_close(double got, double want) {
  return std::fabs(got - want) <= 1e-8 * std::fabs(want);
}

// --- CG class W ---------------------------------------------------------------

Kernel make_cg(int threads) {
  using namespace zomp::npb;
  struct State {
    CgClass cls = cg_class(kCgClass);
    SparseMatrix a;
    std::vector<double> x, z, r, p, q, rnorm = std::vector<double>(1);
    CgResult serial;
    double zeta = 0, ref_zeta = 0, ref_rnorm = 0;
    i64 n = 0, niter = 0, nth = 0;
  };
  auto s = std::make_shared<State>();
  s->a = cg_make_matrix(s->cls.na, s->cls.nonzer);
  s->n = s->a.n;
  s->niter = s->cls.niter;
  s->nth = threads;
  for (auto* v : {&s->x, &s->z, &s->r, &s->p, &s->q}) {
    v->assign(static_cast<std::size_t>(s->n), 0.0);
  }

  Kernel k;
  k.name = "cg";
  k.serial = {[s] { s->serial = CgResult{}; },
              [s] { s->serial = cg_serial(s->a, s->cls.niter, s->cls.shift); },
              [s] { return cg_verify(s->serial, s->cls); }};
  k.serial.run();
  require(k.serial.check(), "cg_serial disagrees with the class W zeta");

  // Outputs are cleared before every call, so a call that writes nothing
  // fails its check instead of passing on the previous call's results.
  // `cg_run` is the -O1 or the -O0 build of cg.mz (same signature).
  auto mz = [s](auto* cg_run) {
    return Variant{
        [s] { s->zeta = s->rnorm[0] = 0; },
        [s, cg_run] {
          s->zeta = cg_run(slice_of(s->a.rowstr), slice_of(s->a.colidx),
                           slice_of(s->a.values), slice_of(s->x),
                           slice_of(s->z), slice_of(s->r), slice_of(s->p),
                           slice_of(s->q), s->niter, s->cls.shift,
                           slice_of(s->rnorm));
        },
        [s] {
          return cg_verify(CgResult{s->zeta, s->rnorm[0], s->cls.niter},
                           s->cls);
        }};
  };
  k.mz = mz(&mzgen_cg_mz::cg_run);
  k.mz_o0 = mz(&mzgen_cg_mz_o0::cg_run);
  // The paper's CG reference is Fortran+OpenMP: call through the shim.
  k.ref.prepare = [s] { s->ref_zeta = s->ref_rnorm = 0; };
  k.ref.run = [s] {
    cg_solve_(&s->n, s->a.rowstr.data(), s->a.colidx.data(),
              s->a.values.data(), &s->niter, &s->cls.shift, &s->nth,
              &s->ref_zeta, &s->ref_rnorm);
  };
  k.ref.check = [s] {
    return cg_verify(CgResult{s->ref_zeta, s->ref_rnorm, s->cls.niter},
                     s->cls);
  };
  // Per outer iteration: 25 x (matvec 24*nnz + 8n, dot 16n, axpy 48n,
  // r.r 8n, p update 24n) + residual (24*nnz + 16n) + init/norm (72n).
  const double n = static_cast<double>(s->n);
  const double nnz = static_cast<double>(s->a.nnz());
  k.computed_bytes = s->cls.niter * (26 * 24 * nnz + (25 * 104 + 88) * n);
  return k;
}

// --- IS class W, seeded keys ------------------------------------------------------

Kernel make_is(std::uint64_t seed, int threads) {
  using namespace zomp::npb;
  struct State {
    IsClass cls = is_class(kIsClass);
    std::vector<i64> keys0, keys, count, hist, ref_keys;
    i64 mz_checksum = 0, want_mod = 0;
    std::uint64_t ref_checksum = 0, serial_checksum = 0, want_ref = 0;
    int threads = 1;
  };
  auto s = std::make_shared<State>();
  s->threads = threads;
  // NPB's key distribution (sum of four uniforms) on a seed-chosen stream:
  // an odd starting value below 2^46 for the randlc recurrence.
  std::uint64_t sm = seed;
  double x = static_cast<double>((splitmix64(sm) >> 18) | 1u);
  const double scale = static_cast<double>(s->cls.max_key) / 4.0;
  s->keys0.resize(static_cast<std::size_t>(s->cls.total_keys));
  for (auto& key : s->keys0) {
    double u = randlc(&x, kRandA);
    u += randlc(&x, kRandA);
    u += randlc(&x, kRandA);
    u += randlc(&x, kRandA);
    key = static_cast<i64>(scale * u);
  }
  s->count.assign(static_cast<std::size_t>(s->cls.max_key), 0);
  s->hist.assign(static_cast<std::size_t>(s->cls.max_key) *
                     static_cast<std::size_t>(threads),
                 0);

  Kernel k;
  k.name = "is";
  k.serial = {[s] { s->serial_checksum = 0; },
              [s] {
                s->serial_checksum =
                    is_serial(s->keys0, s->cls.max_key, s->cls.iterations,
                              /*full_sort=*/false)
                        .rank_checksum;
              },
              [s] { return s->serial_checksum == s->want_ref; }};
  k.serial.run();
  s->want_ref = s->serial_checksum;
  s->want_mod =
      is_rank_checksum_mod(s->keys0, s->cls.max_key, s->cls.iterations);

  // is_run perturbs keys in place each round: restore them untimed.
  auto mz = [s](auto* is_run) {
    return Variant{[s] {
                     s->keys = s->keys0;
                     s->mz_checksum = 0;
                   },
                   [s, is_run] {
                     s->mz_checksum = is_run(
                         slice_of(s->keys), s->cls.max_key, s->cls.iterations,
                         slice_of(s->count), slice_of(s->hist));
                   },
                   [s] { return s->mz_checksum == s->want_mod; }};
  };
  k.mz = mz(&mzgen_is_mz::is_run);
  k.mz_o0 = mz(&mzgen_is_mz_o0::is_run);
  k.ref = {[s] {
             s->ref_keys = s->keys0;
             s->ref_checksum = 0;
           },
           [s] {
             s->ref_checksum =
                 is_parallel(std::move(s->ref_keys), s->cls.max_key,
                             s->cls.iterations, s->threads,
                             /*full_sort=*/false)
                     .rank_checksum;
           },
           [s] { return s->ref_checksum == s->want_ref; }};
  // Per round: keys read + histogram increment (24 B/key), histogram zero +
  // merge + prefix scan (16*threads + 24 B per key value).
  k.computed_bytes =
      s->cls.iterations *
      (24.0 * static_cast<double>(s->cls.total_keys) +
       static_cast<double>(s->cls.max_key) * (16.0 * threads + 24.0));
  return k;
}

// --- EP m=22 ----------------------------------------------------------------------

Kernel make_ep(int threads) {
  using namespace zomp::npb;
  struct State {
    EpResult want, serial;
    std::vector<double> q = std::vector<double>(10), res = std::vector<double>(3);
    double sx = 0, sy = 0;
    i64 accepted = 0, m = kEpM, nth = 0;
  };
  auto s = std::make_shared<State>();
  s->nth = threads;

  Kernel k;
  k.name = "ep";
  k.serial = {[s] { s->serial = EpResult{}; },
              [s] { s->serial = ep_serial(kEpM); },
              [s] {
                return s->serial.sx == s->want.sx && s->serial.sy == s->want.sy &&
                       s->serial.q == s->want.q;
              }};
  k.serial.run();
  s->want = s->serial;
  i64 binned = 0;
  for (i64 c : s->want.q) binned += c;

  auto mz = [s](auto* ep_run) {
    return Variant{
        [s] {
          std::fill(s->q.begin(), s->q.end(), -1.0);
          std::fill(s->res.begin(), s->res.end(), 0.0);
        },
        [s, ep_run] { ep_run(s->m, slice_of(s->q), slice_of(s->res)); },
        [s] {
          if (!rel_close(s->res[0], s->want.sx) ||
              !rel_close(s->res[1], s->want.sy) ||
              s->res[2] != static_cast<double>(s->want.pairs_in_disc)) {
            return false;
          }
          for (std::size_t b = 0; b < 10; ++b) {
            if (s->q[b] != static_cast<double>(s->want.q[b])) return false;
          }
          return true;
        }};
  };
  k.mz = mz(&mzgen_ep_mz::ep_run);
  k.mz_o0 = mz(&mzgen_ep_mz_o0::ep_run);
  // The paper's EP reference is Fortran+OpenMP: call through the shim.
  k.ref = {[s] { s->sx = s->sy = 0, s->accepted = 0; },
           [s] { ep_kernel_(&s->m, &s->nth, &s->sx, &s->sy, &s->accepted); },
           [s] {
             return rel_close(s->sx, s->want.sx) &&
                    rel_close(s->sy, s->want.sy) &&
                    s->accepted == s->want.pairs_in_disc;
           }};
  k.random_numbers = std::ldexp(1.0, kEpM + 1);
  k.atomics = binned;  // one `omp atomic` q[bin] add per binned pair
  return k;
}

// --- Mandelbrot 512x512, max_iter 2000, schedule(dynamic, 1) -----------------------

Kernel make_mandel(int threads) {
  using namespace zomp::npb;
  struct State {
    MandelParams params{kMandelSide, kMandelSide, kMandelMaxIter};
    MandelResult want, ref, serial;
    std::vector<i64> res = std::vector<i64>(2);
    int threads = 1;
  };
  auto s = std::make_shared<State>();
  s->threads = threads;

  Kernel k;
  k.name = "mandel";
  k.serial = {[s] { s->serial = MandelResult{}; },
              [s] { s->serial = mandel_serial(s->params); },
              [s] {
                return s->serial.inside == s->want.inside &&
                       s->serial.iter_checksum == s->want.iter_checksum;
              }};
  k.serial.run();
  s->want = s->serial;

  auto mz = [s](auto* mandel_run) {
    return Variant{[s] { s->res = {0, 0}; },
                   [s, mandel_run] {
                     mandel_run(s->params.width, s->params.height,
                                s->params.max_iter, slice_of(s->res));
                   },
                   [s] {
                     return s->res[0] == s->want.inside &&
                            static_cast<std::uint64_t>(s->res[1]) ==
                                s->want.iter_checksum;
                   }};
  };
  k.mz = mz(&mzgen_mandel_mz::mandel_run);
  k.mz_o0 = mz(&mzgen_mandel_mz_o0::mandel_run);
  k.ref = {[s] { s->ref = MandelResult{}; },
           [s] {
             s->ref = mandel_parallel(s->params, s->threads,
                                      /*schedule=dynamic*/ 1, 1);
           },
           [s] {
             return s->ref.inside == s->want.inside &&
                    s->ref.iter_checksum == s->want.iter_checksum;
           }};
  return k;
}

// --- wavefront_run: manufactured solution ---------------------------------------------

/// L(i, j) of taskgraph.mz's unit-lower-triangular system, j < i.
inline i64 wave_l(i64 i, i64 j) { return (i + 2 * j) % 3 - 1; }

i64 wave_checksum(const std::vector<i64>& x) {
  i64 sum = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += x[i] * (static_cast<i64>(i) % 13 + 1);
  }
  return sum;
}

/// Hand-written reference: the same blocked wavefront on zomp's C++ task
/// API (task_depend), one task per diagonal solve and per block update.
i64 wavefront_ref(i64 nb, i64 bs, const std::vector<i64>& b,
                  std::vector<i64>& x) {
  x = b;
  i64* xp = x.data();
  zomp::parallel([&] {
    zomp::single([&] {
      for (i64 k = 0; k < nb; ++k) {
        zomp::task_depend({zomp::dep_inout(xp + k * bs)}, [xp, k, bs] {
          for (i64 i = k * bs; i < (k + 1) * bs; ++i) {
            i64 s = 0;
            for (i64 j = k * bs; j < i; ++j) s += wave_l(i, j) * xp[j];
            xp[i] -= s;
          }
        });
        for (i64 j = k + 1; j < nb; ++j) {
          zomp::task_depend(
              {zomp::dep_in(xp + k * bs), zomp::dep_inout(xp + j * bs)},
              [xp, k, j, bs] {
                for (i64 i = j * bs; i < (j + 1) * bs; ++i) {
                  i64 s = 0;
                  for (i64 t = k * bs; t < (k + 1) * bs; ++t) {
                    s += wave_l(i, t) * xp[t];
                  }
                  xp[i] -= s;
                }
              });
        }
      }
    });
  });
  return wave_checksum(x);
}

Kernel make_wavefront(std::uint64_t seed) {
  struct State {
    std::vector<i64> y, b, x, serial;
    i64 want = 0, got = 0;
  };
  auto s = std::make_shared<State>();
  const i64 n = kWaveNb * kWaveBs;
  // The taskgraph.mz comment's system L x = b grows |x| without bound for
  // a random b (i64 overflow near row 120), so the seed picks the solution
  // y instead and b = L y: every intermediate stays below n * max|y|.
  std::uint64_t sm = seed ^ 0x5741564546524F4Eull;
  s->y.resize(static_cast<std::size_t>(n));
  for (auto& v : s->y) v = static_cast<i64>(splitmix64(sm) % 2001) - 1000;
  s->b = s->y;
  for (i64 i = 0; i < n; ++i) {
    for (i64 j = 0; j < i; ++j) s->b[i] += wave_l(i, j) * s->y[j];
  }
  s->x.assign(static_cast<std::size_t>(n), 0);
  s->want = wave_checksum(s->y);

  Kernel k;
  k.name = "wavefront";
  k.serial = {[s] { s->serial.clear(); },
              [s, n] {
                s->serial = s->b;  // forward substitution, row by row
                for (i64 i = 0; i < n; ++i) {
                  i64 acc = 0;
                  for (i64 j = 0; j < i; ++j) acc += wave_l(i, j) * s->serial[j];
                  s->serial[i] -= acc;
                }
              },
              [s] { return s->serial == s->y; }};
  k.serial.run();
  require(k.serial.check(), "serial forward substitution missed y");

  auto prepare = [s] {
    std::fill(s->x.begin(), s->x.end(), 0);
    s->got = 0;
  };
  auto check = [s] { return s->got == s->want && s->x == s->y; };
  auto mz = [s, prepare, check](auto* wavefront_run) {
    return Variant{prepare,
                   [s, wavefront_run] {
                     s->got = wavefront_run(kWaveNb, kWaveBs, slice_of(s->b),
                                            slice_of(s->x));
                   },
                   check};
  };
  k.mz = mz(&mzgen_taskgraph_mz::wavefront_run);
  k.mz_o0 = mz(&mzgen_taskgraph_mz_o0::wavefront_run);
  k.ref = {prepare, [s] { s->got = wavefront_ref(kWaveNb, kWaveBs, s->b, s->x); },
           check};
  return k;
}

// --- taskloop_run / taskgroup_run ----------------------------------------------------

i64 taskloop_ref(i64 n, i64 grain, i64 num_tasks, std::vector<i64>& out) {
  std::atomic<i64> total{0};
  zomp::parallel([&] {
    zomp::single([&] {
      zomp::taskloop(0, n, [&](i64 i) { out[i] = i * i - 3 * i + 7; },
                     zomp::TaskloopOptions{grain, 0});
      zomp::taskloop(
          0, n,
          [&](i64 i) {
            total.fetch_add(out[i] * 2 + 1, std::memory_order_relaxed);
          },
          zomp::TaskloopOptions{0, num_tasks});
    });
  });
  return total.load();
}

i64 taskgroup_ref(i64 n, std::vector<i64>& out) {
  std::atomic<i64> total{0};
  std::atomic<i64> late{0};
  zomp::parallel([&] {
    zomp::single([&] {
      zomp::taskgroup([&] {
        for (i64 i = 0; i < n; ++i) {
          zomp::task([&total, i] {
            zomp::task([&total, i] {
              total.fetch_add(i + 1, std::memory_order_relaxed);
            });
          });
        }
      });
      out[0] = total.load();
      for (i64 i = 0; i < n; ++i) {
        zomp::task(
            [&late, i] { late.fetch_add(i + 1, std::memory_order_relaxed); });
      }
    });
  });
  out[1] = late.load();
  return total.load();
}

/// Seeded size jitter for the task kernels: within +-1/256 of `base`, small
/// enough that timings stay comparable across seeds.
i64 jitter(i64 base, std::uint64_t& sm) {
  const i64 span = base / 256;
  return base - span + static_cast<i64>(splitmix64(sm) % (2 * span + 1));
}

Kernel make_taskloop(std::uint64_t seed) {
  struct State {
    i64 n = 0, want = 0, got = 0, serial_total = 0;
    std::vector<i64> out, serial;
  };
  auto s = std::make_shared<State>();
  std::uint64_t sm = seed ^ 0x544C4F4F50ull;
  s->n = jitter(kTaskloopN, sm);
  s->out.assign(static_cast<std::size_t>(s->n), 0);

  Kernel k;
  k.name = "taskloop";
  s->serial.assign(static_cast<std::size_t>(s->n), 0);
  k.serial = {[s] { s->serial_total = 0; },
              [s] {
                for (i64 i = 0; i < s->n; ++i) s->serial[i] = i * i - 3 * i + 7;
                i64 total = 0;
                for (i64 i = 0; i < s->n; ++i) total += s->serial[i] * 2 + 1;
                s->serial_total = total;
              },
              [s] { return s->serial_total == s->want; }};
  // Closed form of the sum: 2 * sum(i^2) - 6 * sum(i) + 15 n over [0, n).
  const i64 n = s->n;
  s->want = (n - 1) * n * (2 * n - 1) / 3 - 3 * n * (n - 1) + 15 * n;
  k.serial.run();
  require(k.serial.check(), "serial taskloop sum missed its closed form");

  auto check = [s] {
    if (s->got != s->want) return false;
    for (i64 i = 0; i < s->n; ++i) {
      if (s->out[i] != i * i - 3 * i + 7) return false;
    }
    return true;
  };
  auto prepare = [s] {
    std::fill(s->out.begin(), s->out.end(), 0);
    s->got = 0;
  };
  auto mz = [s, prepare, check](auto* taskloop_run) {
    return Variant{prepare,
                   [s, taskloop_run] {
                     s->got = taskloop_run(s->n, kTaskloopGrain,
                                           kTaskloopNumTasks, slice_of(s->out));
                   },
                   check};
  };
  k.mz = mz(&mzgen_taskgraph_mz::taskloop_run);
  k.mz_o0 = mz(&mzgen_taskgraph_mz_o0::taskloop_run);
  k.ref = {prepare,
           [s] {
             s->got = taskloop_ref(s->n, kTaskloopGrain, kTaskloopNumTasks,
                                   s->out);
           },
           check};
  k.atomics = s->n;  // the second taskloop's `omp atomic` per iteration
  return k;
}

Kernel make_taskgroup(std::uint64_t seed) {
  struct State {
    i64 n = 0, want = 0, got = 0, serial_total = 0;
    std::vector<i64> out = std::vector<i64>(2);
  };
  auto s = std::make_shared<State>();
  std::uint64_t sm = seed ^ 0x5447524F5550ull;
  s->n = jitter(kTaskgroupN, sm);

  Kernel k;
  k.name = "taskgroup";
  k.serial = {[s] { s->serial_total = 0; },
              [s] {
                i64 total = 0;
                for (i64 i = 0; i < s->n; ++i) total += i + 1;
                s->serial_total = total;
              },
              [s] { return s->serial_total == s->want; }};
  s->want = s->n * (s->n + 1) / 2;
  k.serial.run();
  require(k.serial.check(), "serial taskgroup sum missed its closed form");

  auto prepare = [s] { s->out = {0, 0}, s->got = 0; };
  auto check = [s] {
    return s->got == s->want && s->out[0] == s->want && s->out[1] == s->want;
  };
  auto mz = [s, prepare, check](auto* taskgroup_run) {
    return Variant{
        prepare,
        [s, taskgroup_run] { s->got = taskgroup_run(s->n, slice_of(s->out)); },
        check};
  };
  k.mz = mz(&mzgen_taskgraph_mz::taskgroup_run);
  k.mz_o0 = mz(&mzgen_taskgraph_mz_o0::taskgroup_run);
  k.ref = {prepare, [s] { s->got = taskgroup_ref(s->n, s->out); }, check};
  k.atomics = 2 * s->n;  // `total` in the group, `late` after it
  return k;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"npb-sync", "npb-compute",
                                                 "tasks"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int threads) {
  Workload w;
  w.name = name;
  if (name == "npb-sync") {
    w.kernels.push_back(make_cg(threads));
    w.kernels.push_back(make_is(seed, threads));
  } else if (name == "npb-compute") {
    w.kernels.push_back(make_ep(threads));
    w.kernels.push_back(make_mandel(threads));
  } else if (name == "tasks") {
    w.kernels.push_back(make_wavefront(seed));
    w.kernels.push_back(make_taskloop(seed));
    w.kernels.push_back(make_taskgroup(seed));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace pb
