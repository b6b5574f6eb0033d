// zomp::algo — parallel algorithms over the runtime (DESIGN.md S11).
//
// A zpc-style algorithms layer: the constructs a directive system cannot
// express as one worksharing loop (scans, sorts, selection) packaged as
// ready-made primitives over hl.h teams. Each entry point is a header-level
// template so element types and user functors inline into the hot loops, but
// the orchestration — phase protocol, scratch management, slice math — lives
// behind a handful of type-erased kernels in algo.cpp, so the multi-phase
// machinery compiles once, not once per instantiation.
//
//   zomp::algo::exclusive_scan(in, out, n, i64{0}, std::plus<>{});
//   zomp::algo::radix_sort(keys, n);
//   zomp::algo::top_k(scores, n, 10, best);
//
// Execution model: every call forks its own region (hl.h `parallel`, so the
// hot-team fast path applies) and joins before returning — calls are
// synchronous and self-contained. Inputs below `Options::serial_cutoff`, or a
// resolved width of one thread, take a serial path with identical results.
//
// Determinism: for integral elements every primitive returns byte-identical
// results at every team width — scans fold slices in index order, the sorts
// produce the unique sorted permutation of a scalar multiset, top_k keeps the
// unique best-k value multiset. Floating-point scans/reductions regroup
// additions per slice, so across widths they agree only to rounding.
//
// Concurrency contract: user functors (combine ops, key extractors,
// comparators) are invoked concurrently from team members and must be safe to
// call concurrently (pure functions of their arguments in practice — the same
// requirement the std parallel algorithms impose).
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "runtime/hl.h"

namespace zomp::algo {

struct Options {
  /// Team-size request for the forked region; 0 = ICV default.
  rt::i32 num_threads = 0;
  /// Inputs with fewer elements than this run the serial path (forking and
  /// phase traffic cost more than the work below roughly this size).
  rt::i64 serial_cutoff = 4096;
};

namespace detail {

// ---------------------------------------------------------------------------
// Type-erased kernel interfaces (implemented in algo.cpp). The thunks carry
// the element type; the kernels carry the protocol. Block-granular calls keep
// the indirection cost at one call per slice, not per element.
// ---------------------------------------------------------------------------

/// Decoupled two-pass scan (block reduce -> cross-member prefix chain on
/// PhaseSync -> block scan-and-add).
struct ScanOps {
  void* ctx;
  std::size_t elem_bytes;
  /// Folds in[lo, hi) (hi > lo) into *out in index order.
  void (*block_sum)(void* ctx, rt::i64 lo, rt::i64 hi, void* out);
  /// Scans in[lo, hi) into out[lo, hi) seeded with *carry (the combined
  /// prefix of everything before lo; nullptr = no prefix, i.e. member 0 of an
  /// init-less inclusive scan). Exclusive/inclusive semantics live here.
  void (*block_scan)(void* ctx, rt::i64 lo, rt::i64 hi, const void* carry);
  /// *lhs = op(*lhs, *rhs).
  void (*combine)(void* ctx, void* lhs, const void* rhs);
};
void scan_run(rt::i64 n, const void* init, const ScanOps& ops,
              const Options& opts);

/// Stable counting sort: per-member bucket counts, one matrix exclusive scan,
/// stable scatter into a temp buffer, parallel copy-back.
struct CountingOps {
  void* ctx;
  std::size_t elem_bytes;
  /// Adds the bucket counts of elems[lo, hi) into counts[0, nbuckets).
  void (*count)(void* ctx, rt::i64 lo, rt::i64 hi, rt::i64* counts);
  /// Scatters elems[lo, hi) into tmp at offsets[bucket]++, preserving index
  /// order within the slice (the stability guarantee).
  void (*scatter)(void* ctx, rt::i64 lo, rt::i64 hi, rt::i64* offsets,
                  void* tmp);
  /// Copies tmp[lo, hi) back over elems[lo, hi).
  void (*copy_back)(void* ctx, rt::i64 lo, rt::i64 hi, const void* tmp);
};
void counting_sort_run(rt::i64 n, rt::i64 nbuckets, const CountingOps& ops,
                       const Options& opts);

/// Radix sort of 1/2/4/8-byte integer keys; `xor_mask` biases digit
/// extraction (sign bit for signed key types). MSD top-byte partition with
/// place-aware bucket-range assignment, then member-local LSD passes.
void radix_sort_run(void* keys, rt::i64 n, std::size_t key_bytes,
                    rt::u64 xor_mask, const Options& opts);

/// Top-k selection: per-member bounded heaps into a candidate matrix, serial
/// merge on the caller.
struct TopKOps {
  void* ctx;
  std::size_t elem_bytes;
  /// Writes the best min(k, hi - lo) elements of in[lo, hi) into out (best
  /// first); returns how many were written.
  rt::i64 (*local_topk)(void* ctx, rt::i64 lo, rt::i64 hi, void* out);
  /// Merges `rows` candidate runs (row r = counts[r] elements at
  /// cand + r * row_elems * elem_bytes) into the best min(k, total) in
  /// result; returns the count.
  rt::i64 (*merge)(void* ctx, const void* cand, const rt::i64* counts,
                   rt::i32 rows, rt::i64 row_elems, void* result);
};
rt::i64 top_k_run(rt::i64 n, rt::i64 k, const TopKOps& ops, void* result,
                  const Options& opts);

/// Shared scratch for the scan thunks: the user op plus the raw buffers.
template <typename T, typename Op>
struct ScanCtx {
  const T* in;
  T* out;
  Op* op;
};

template <typename T, typename Op>
void scan_block_sum(void* ctx, rt::i64 lo, rt::i64 hi, void* out) {
  auto& c = *static_cast<ScanCtx<T, Op>*>(ctx);
  T acc = c.in[lo];
  for (rt::i64 i = lo + 1; i < hi; ++i) acc = (*c.op)(acc, c.in[i]);
  std::memcpy(out, &acc, sizeof(T));
}

template <typename T, typename Op>
void scan_combine(void* ctx, void* lhs, const void* rhs) {
  auto& c = *static_cast<ScanCtx<T, Op>*>(ctx);
  T* a = static_cast<T*>(lhs);
  *a = (*c.op)(*a, *static_cast<const T*>(rhs));
}

template <typename T, typename Op>
void scan_block_exclusive(void* ctx, rt::i64 lo, rt::i64 hi,
                          const void* carry) {
  auto& c = *static_cast<ScanCtx<T, Op>*>(ctx);
  T run = *static_cast<const T*>(carry);  // exclusive always has an init
  for (rt::i64 i = lo; i < hi; ++i) {
    const T v = c.in[i];  // read before write: in == out aliasing is allowed
    c.out[i] = run;
    run = (*c.op)(run, v);
  }
}

template <typename T, typename Op>
void scan_block_inclusive(void* ctx, rt::i64 lo, rt::i64 hi,
                          const void* carry) {
  auto& c = *static_cast<ScanCtx<T, Op>*>(ctx);
  rt::i64 i = lo;
  T run;
  if (carry != nullptr) {
    run = *static_cast<const T*>(carry);
  } else {
    run = c.in[i];
    c.out[i] = run;
    ++i;
  }
  for (; i < hi; ++i) {
    run = (*c.op)(run, c.in[i]);
    c.out[i] = run;
  }
}

template <typename T, typename Op>
ScanOps make_scan_ops(ScanCtx<T, Op>& ctx, bool exclusive) {
  static_assert(std::is_trivially_copyable_v<T>,
                "scan copies T through phase-sync slots");
  static_assert(sizeof(T) + 1 <= rt::PhaseSync::kSlotBytes,
                "scan element exceeds the inline phase payload");
  ScanOps ops;
  ops.ctx = &ctx;
  ops.elem_bytes = sizeof(T);
  ops.block_sum = &scan_block_sum<T, Op>;
  ops.block_scan =
      exclusive ? &scan_block_exclusive<T, Op> : &scan_block_inclusive<T, Op>;
  ops.combine = &scan_combine<T, Op>;
  return ops;
}

template <typename T, typename KeyFn>
struct CountingCtx {
  T* elems;
  KeyFn* key_of;
};

template <typename T, typename KeyFn>
CountingOps make_counting_ops(CountingCtx<T, KeyFn>& ctx) {
  static_assert(std::is_trivially_copyable_v<T>,
                "counting_sort moves elements with memcpy");
  CountingOps ops;
  ops.ctx = &ctx;
  ops.elem_bytes = sizeof(T);
  ops.count = [](void* vctx, rt::i64 lo, rt::i64 hi, rt::i64* counts) {
    auto& c = *static_cast<CountingCtx<T, KeyFn>*>(vctx);
    for (rt::i64 i = lo; i < hi; ++i) ++counts[(*c.key_of)(c.elems[i])];
  };
  ops.scatter = [](void* vctx, rt::i64 lo, rt::i64 hi, rt::i64* offsets,
                   void* tmp) {
    auto& c = *static_cast<CountingCtx<T, KeyFn>*>(vctx);
    T* t = static_cast<T*>(tmp);
    for (rt::i64 i = lo; i < hi; ++i) {
      t[offsets[(*c.key_of)(c.elems[i])]++] = c.elems[i];
    }
  };
  ops.copy_back = [](void* vctx, rt::i64 lo, rt::i64 hi, const void* tmp) {
    auto& c = *static_cast<CountingCtx<T, KeyFn>*>(vctx);
    std::memcpy(c.elems + lo, static_cast<const T*>(tmp) + lo,
                static_cast<std::size_t>(hi - lo) * sizeof(T));
  };
  return ops;
}

template <typename T, typename Better>
struct TopKCtx {
  const T* in;
  Better* better;  ///< better(a, b): a ranks strictly before b
  rt::i64 k;
};

template <typename T, typename Better>
TopKOps make_topk_ops(TopKCtx<T, Better>& ctx) {
  static_assert(std::is_trivially_copyable_v<T>,
                "top_k moves elements with memcpy");
  TopKOps ops;
  ops.ctx = &ctx;
  ops.elem_bytes = sizeof(T);
  ops.local_topk = [](void* vctx, rt::i64 lo, rt::i64 hi, void* out) {
    auto& c = *static_cast<TopKCtx<T, Better>*>(vctx);
    Better& better = *c.better;
    // Bounded heap, worst kept element at the front (make_heap puts the
    // comparator's maximum there, and "maximally better-than-everything" is
    // exactly the worst survivor under `better`).
    std::vector<T> heap;
    heap.reserve(static_cast<std::size_t>(std::min(c.k, hi - lo)));
    for (rt::i64 i = lo; i < hi; ++i) {
      const T v = c.in[i];
      if (static_cast<rt::i64>(heap.size()) < c.k) {
        heap.push_back(v);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(v, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = v;
        std::push_heap(heap.begin(), heap.end(), better);
      }
    }
    std::sort(heap.begin(), heap.end(), better);
    std::memcpy(out, heap.data(), heap.size() * sizeof(T));
    return static_cast<rt::i64>(heap.size());
  };
  ops.merge = [](void* vctx, const void* cand, const rt::i64* counts,
                 rt::i32 rows, rt::i64 row_elems, void* result) {
    auto& c = *static_cast<TopKCtx<T, Better>*>(vctx);
    const T* rows_base = static_cast<const T*>(cand);
    std::vector<T> all;
    for (rt::i32 r = 0; r < rows; ++r) {
      const T* row = rows_base + static_cast<std::size_t>(r) * row_elems;
      all.insert(all.end(), row, row + counts[r]);
    }
    std::sort(all.begin(), all.end(), *c.better);
    const rt::i64 m = std::min<rt::i64>(c.k, static_cast<rt::i64>(all.size()));
    std::memcpy(result, all.data(), static_cast<std::size_t>(m) * sizeof(T));
    return m;
  };
  return ops;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Parallel `f(i)` for every i in [lo, hi) (static blocked distribution).
template <typename F>
void for_each(rt::i64 lo, rt::i64 hi, F f, Options opts = {}) {
  if (hi - lo < opts.serial_cutoff) {
    for (rt::i64 i = lo; i < hi; ++i) f(i);
    return;
  }
  zomp::parallel_for(lo, hi, f, ForOptions{},
                     ParallelOptions{opts.num_threads});
}

/// out[i] = f(in[i]) for i in [0, n). in == out is allowed.
template <typename T, typename U, typename F>
void transform(const T* in, U* out, rt::i64 n, F f, Options opts = {}) {
  for_each(
      0, n, [&](rt::i64 i) { out[i] = f(in[i]); }, opts);
}

/// Fold of init ⊕ in[0] ⊕ ... ⊕ in[n-1]. Slices fold in index order, the
/// partials tree-combine (reduce.h), and `init` joins exactly once at the
/// front — so `init` may be any value, not an identity of `op`. Integral
/// results are identical at every width when `op` is associative.
template <typename T, typename Op>
T reduce(const T* in, rt::i64 n, T init, Op op, Options opts = {}) {
  if (n < opts.serial_cutoff) {
    T acc = init;
    for (rt::i64 i = 0; i < n; ++i) acc = op(acc, in[i]);
    return acc;
  }
  // A has-value flag rides with each partial so empty slices drop out of the
  // combine instead of injecting a made-up identity.
  struct Packet {
    T value;
    unsigned char has;
  };
  static_assert(std::is_trivially_copyable_v<T>,
                "reduce copies T through raw team slots");
  Packet result{};
  zomp::parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        rt::Team& team = *ts.team;
        const rt::StaticRange r =
            rt::static_distribute(0, n, 1, 0, ts.tid, team.size());
        Packet local{};
        local.has = r.hi > r.lo ? 1 : 0;
        if (local.has) {
          T acc = in[r.lo];
          for (rt::i64 i = r.lo + 1; i < r.hi; ++i) acc = op(acc, in[i]);
          local.value = acc;
        }
        const auto merge = [](void* ctx, void* lhs, const void* rhs) {
          Op& o = *static_cast<Op*>(ctx);
          Packet* a = static_cast<Packet*>(lhs);
          const Packet* b = static_cast<const Packet*>(rhs);
          if (b->has == 0) return;
          if (a->has == 0) {
            *a = *b;
          } else {
            a->value = o(a->value, b->value);
          }
        };
        if (team.reduce_combine(ts, &local, sizeof(Packet), merge, &op,
                                /*broadcast=*/false)) {
          result = local;
        }
      },
      ParallelOptions{opts.num_threads});
  return result.has ? op(init, result.value) : init;
}

/// out[i] = init ⊕ in[0] ⊕ ... ⊕ in[i-1] (out[0] = init). in == out allowed.
/// Requires sizeof(T) + 1 <= PhaseSync::kSlotBytes (the prefix rides an
/// inline phase payload).
template <typename T, typename Op>
void exclusive_scan(const T* in, T* out, rt::i64 n, T init, Op op,
                    Options opts = {}) {
  detail::ScanCtx<T, Op> ctx{in, out, &op};
  const detail::ScanOps ops = detail::make_scan_ops(ctx, /*exclusive=*/true);
  detail::scan_run(n, &init, ops, opts);
}

/// out[i] = in[0] ⊕ ... ⊕ in[i]. in == out allowed.
template <typename T, typename Op>
void inclusive_scan(const T* in, T* out, rt::i64 n, Op op, Options opts = {}) {
  detail::ScanCtx<T, Op> ctx{in, out, &op};
  const detail::ScanOps ops = detail::make_scan_ops(ctx, /*exclusive=*/false);
  detail::scan_run(n, /*init=*/nullptr, ops, opts);
}

/// bins[b] = |{ i : bin_of(in[i]) == b }| for b in [0, nbins). bin_of must
/// return values in range. The per-member bin arrays merge through the
/// ReductionTree's wide-payload path (reduce.h), so nbins is unbounded.
template <typename T, typename BinFn>
void histogram(const T* in, rt::i64 n, rt::u64* bins, rt::i64 nbins,
               BinFn bin_of, Options opts = {}) {
  std::fill(bins, bins + nbins, rt::u64{0});
  if (n < opts.serial_cutoff) {
    for (rt::i64 i = 0; i < n; ++i) ++bins[bin_of(in[i])];
    return;
  }
  zomp::parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        rt::Team& team = *ts.team;
        std::vector<rt::u64> local(static_cast<std::size_t>(nbins), 0);
        const rt::StaticRange r =
            rt::static_distribute(0, n, 1, 0, ts.tid, team.size());
        for (rt::i64 i = r.lo; i < r.hi; ++i) ++local[bin_of(in[i])];
        const auto sum_bins = [](void* ctx, void* lhs, const void* rhs) {
          const rt::i64 nb = *static_cast<const rt::i64*>(ctx);
          rt::u64* a = static_cast<rt::u64*>(lhs);
          const rt::u64* b = static_cast<const rt::u64*>(rhs);
          for (rt::i64 i = 0; i < nb; ++i) a[i] += b[i];
        };
        if (team.reduce_combine(ts, local.data(),
                                static_cast<std::size_t>(nbins) *
                                    sizeof(rt::u64),
                                sum_bins, const_cast<rt::i64*>(&nbins),
                                /*broadcast=*/false)) {
          std::memcpy(bins, local.data(),
                      static_cast<std::size_t>(nbins) * sizeof(rt::u64));
        }
      },
      ParallelOptions{opts.num_threads});
}

/// Stable sort of elems[0, n) by key_of(elem) in [0, nbuckets).
template <typename T, typename KeyFn>
void counting_sort(T* elems, rt::i64 n, rt::i64 nbuckets, KeyFn key_of,
                   Options opts = {}) {
  detail::CountingCtx<T, KeyFn> ctx{elems, &key_of};
  const detail::CountingOps ops = detail::make_counting_ops(ctx);
  detail::counting_sort_run(n, nbuckets, ops, opts);
}

/// Ascending sort of an integral key array (1/2/4/8-byte keys; signed keys
/// are handled by sign-bit bias). MSD partition, place-aware bucket
/// assignment, member-local LSD passes — see DESIGN.md S11.
template <typename T>
void radix_sort(T* keys, rt::i64 n, Options opts = {}) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                "radix_sort handles integral keys");
  const rt::u64 mask =
      std::is_signed_v<T> ? rt::u64{1} << (sizeof(T) * 8 - 1) : rt::u64{0};
  detail::radix_sort_run(keys, n, sizeof(T), mask, opts);
}

/// Writes the best min(k, n) elements of in[0, n) into out, best first, and
/// returns the count. `better(a, b)` orders a strictly before b; the default
/// selects the largest. For scalar T the result is byte-identical at every
/// width; for struct T, ties under `better` break arbitrarily.
template <typename T, typename Better = std::greater<T>>
rt::i64 top_k(const T* in, rt::i64 n, rt::i64 k, T* out, Options opts = {},
              Better better = Better{}) {
  detail::TopKCtx<T, Better> ctx{in, &better, k};
  const detail::TopKOps ops = detail::make_topk_ops(ctx);
  return detail::top_k_run(n, k, ops, out, opts);
}

}  // namespace zomp::algo
