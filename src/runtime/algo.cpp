// zomp::algo kernels — the type-erased orchestration behind algo.h
// (DESIGN.md S11). Every kernel forks its own region, runs a fixed sequence
// of phases on the team's PhaseSync (team.h), and joins; the region's join
// barrier is what makes phase-slot reuse safe across calls (barrier.h).
//
// Cancellation: phase waits poll the team's cancel word (they return false
// when `cancel parallel` is pending), and a member that loses a wait — or
// observes a neighbour lost one — simply stops contributing and runs to the
// region join, mirroring the PR 8 barrier-abandonment protocol. A cancelled
// call leaves the output unspecified, like any cancelled OpenMP construct.

#include "runtime/algo.h"

#include <cstdint>

#include "runtime/api.h"

namespace zomp::algo::detail {

namespace {

using rt::i32;
using rt::i64;
using rt::u64;

/// Width the fork below would request: explicit > 0 wins, else the ICV
/// default (omp_get_max_threads). Scratch matrices are sized for this
/// request; a fault-shrunken team delivers fewer members and simply leaves
/// the tail rows untouched.
i32 resolve_width(i32 num_threads) {
  const i32 w = num_threads > 0 ? num_threads : zomp::max_threads();
  return w < 1 ? 1 : w;
}

/// Member visit order for contiguous output-range assignment: members of the
/// same place shard come out adjacent (shard_map order, worksharing.h), so
/// the ranges handed to co-located members abut — the NUMA argument in
/// DESIGN.md S11. Falls back to tid order for unbound teams.
std::vector<i32> place_order(const rt::ShardMap& sm, i32 w) {
  std::vector<i32> order;
  order.reserve(static_cast<std::size_t>(w));
  for (const std::vector<i32>& members : sm.shard_members) {
    for (const i32 tid : members) {
      if (tid < w) order.push_back(tid);
    }
  }
  if (static_cast<i32>(order.size()) != w) {
    order.resize(static_cast<std::size_t>(w));
    for (i32 t = 0; t < w; ++t) order[static_cast<std::size_t>(t)] = t;
  }
  return order;
}

}  // namespace

// ---------------------------------------------------------------------------
// Decoupled scan
// ---------------------------------------------------------------------------
//
// Phase diagram (one phase number `s`, directed waits — member t only ever
// waits on member t-1, so the prefix chain pipelines down the team while
// later members are still reducing):
//
//   member t:  block_sum(slice t)                       (local)
//              await(t-1, s)  -> prefix P_t             (t > 0)
//              publish(t, s, P_t ⊕ sum_t)               (P_{t+1} for t+1)
//              block_scan(slice t, carry = P_t)         (local)
//
// The payload is [elem_bytes value][1 byte has-flag]; the flag carries the
// "no prefix yet" state of an init-less inclusive scan past empty slices.

void scan_run(i64 n, const void* init, const ScanOps& ops,
              const Options& opts) {
  if (n <= 0) return;
  const std::size_t eb = ops.elem_bytes;
  ZOMP_CHECK(eb + 1 <= rt::PhaseSync::kSlotBytes,
             "scan element exceeds the inline phase payload");
  const i32 req = resolve_width(opts.num_threads);
  if (req == 1 || n < opts.serial_cutoff) {
    ops.block_scan(ops.ctx, 0, n, init);
    return;
  }
  zomp::parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        rt::Team& team = *ts.team;
        const i32 w = team.size();
        const i32 t = ts.tid;
        const rt::StaticRange r = rt::static_distribute(0, n, 1, 0, t, w);

        unsigned char sum[rt::PhaseSync::kSlotBytes];
        const bool have_sum = r.hi > r.lo;
        if (have_sum) ops.block_sum(ops.ctx, r.lo, r.hi, sum);

        const u64 seq = team.phase_next(ts);
        unsigned char prefix[rt::PhaseSync::kSlotBytes];
        bool has_prefix;
        if (t == 0) {
          has_prefix = init != nullptr;
          if (has_prefix) std::memcpy(prefix, init, eb);
        } else {
          if (!team.phase_await(t - 1, seq, prefix, eb + 1)) return;
          has_prefix = prefix[eb] != 0;
        }

        // Publish this member's inclusive prefix before scanning: the chain
        // is the critical path, the local scan is not.
        unsigned char mine[rt::PhaseSync::kSlotBytes] = {};
        if (have_sum && has_prefix) {
          std::memcpy(mine, prefix, eb);
          ops.combine(ops.ctx, mine, sum);
        } else if (have_sum) {
          std::memcpy(mine, sum, eb);
        } else if (has_prefix) {
          std::memcpy(mine, prefix, eb);
        }
        mine[eb] = (have_sum || has_prefix) ? 1 : 0;
        team.phase_publish(ts, seq, mine, eb + 1);

        if (have_sum) {
          ops.block_scan(ops.ctx, r.lo, r.hi, has_prefix ? prefix : nullptr);
        }
      },
      ParallelOptions{opts.num_threads});
}

// ---------------------------------------------------------------------------
// Counting sort
// ---------------------------------------------------------------------------
//
// Phases: (s1) per-member bucket counts -> (s2) member 0 rewrites the count
// matrix into per-(member, bucket) start offsets with one bucket-major
// running sum — start order (bucket, member tid, slice index) is exactly the
// stability order — -> (s3) stable scatter into tmp -> parallel copy-back.

void counting_sort_run(i64 n, i64 nbuckets, const CountingOps& ops,
                       const Options& opts) {
  if (n <= 0) return;
  ZOMP_CHECK(nbuckets >= 1, "counting sort needs at least one bucket");
  std::vector<unsigned char> tmp(static_cast<std::size_t>(n) *
                                 ops.elem_bytes);
  const i32 req = resolve_width(opts.num_threads);
  if (req == 1 || n < opts.serial_cutoff) {
    std::vector<i64> counts(static_cast<std::size_t>(nbuckets), 0);
    ops.count(ops.ctx, 0, n, counts.data());
    i64 run = 0;
    for (i64 b = 0; b < nbuckets; ++b) {
      const i64 c = counts[static_cast<std::size_t>(b)];
      counts[static_cast<std::size_t>(b)] = run;
      run += c;
    }
    ops.scatter(ops.ctx, 0, n, counts.data(), tmp.data());
    ops.copy_back(ops.ctx, 0, n, tmp.data());
    return;
  }
  std::vector<i64> counts(static_cast<std::size_t>(req) *
                          static_cast<std::size_t>(nbuckets));
  zomp::parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        rt::Team& team = *ts.team;
        const i32 w = team.size();
        const i32 t = ts.tid;
        const rt::StaticRange r = rt::static_distribute(0, n, 1, 0, t, w);
        i64* row = counts.data() +
                   static_cast<std::size_t>(t) * static_cast<std::size_t>(nbuckets);
        std::fill(row, row + nbuckets, i64{0});
        if (r.hi > r.lo) ops.count(ops.ctx, r.lo, r.hi, row);

        const u64 s1 = team.phase_next(ts);
        team.phase_publish(ts, s1);
        const u64 s2 = team.phase_next(ts);
        if (t == 0) {
          if (!team.phase_await_all(s1)) return;
          i64 run = 0;
          for (i64 b = 0; b < nbuckets; ++b) {
            for (i32 m = 0; m < w; ++m) {
              i64& cell = counts[static_cast<std::size_t>(m) *
                                     static_cast<std::size_t>(nbuckets) +
                                 static_cast<std::size_t>(b)];
              const i64 c = cell;
              cell = run;
              run += c;
            }
          }
          team.phase_publish(ts, s2);
        } else {
          team.phase_publish(ts, s2);
          if (!team.phase_await(0, s2)) return;
        }

        // Scatter advances a private copy of the offsets; the shared matrix
        // stays read-only from here.
        std::vector<i64> offsets(row, row + nbuckets);
        if (r.hi > r.lo) {
          ops.scatter(ops.ctx, r.lo, r.hi, offsets.data(), tmp.data());
        }
        const u64 s3 = team.phase_next(ts);
        team.phase_publish(ts, s3);
        if (!team.phase_await_all(s3)) return;
        if (r.hi > r.lo) ops.copy_back(ops.ctx, r.lo, r.hi, tmp.data());
      },
      ParallelOptions{opts.num_threads});
}

// ---------------------------------------------------------------------------
// Radix sort
// ---------------------------------------------------------------------------
//
// MSD-first: one parallel stable partition on the top byte puts every key
// into its final 1/256th of the array; after that, buckets are sorted
// independently — so they are handed out as CONTIGUOUS ranges, place-aware
// (place_order above), and every remaining pass is member-local: the LSD
// passes over the low key bytes never touch another member's range. That is
// the NUMA/writeback story: cross-member traffic happens exactly once, in
// the MSD scatter, and each member's later passes stay in ranges it wrote.

namespace {

/// Sorts tmp[lo, hi) — one MSD bucket, top digit constant — into keys[lo,
/// hi) by the remaining low bytes. Small buckets take a comparison sort
/// straight into place; larger ones run sizeof(K)-1 LSD passes ping-ponging
/// tmp <-> keys (an odd pass count, so the last pass lands in keys).
template <typename K>
void sort_bucket(K* keys, K* tmp, i64 lo, i64 hi, K mask) {
  constexpr i32 kLocalPasses = static_cast<i32>(sizeof(K)) - 1;
  const i64 len = hi - lo;
  if (len <= 0) return;
  constexpr i64 kComparisonCutoff = 64;
  if (kLocalPasses == 0 || len <= kComparisonCutoff) {
    std::memcpy(keys + lo, tmp + lo, static_cast<std::size_t>(len) * sizeof(K));
    std::sort(keys + lo, keys + hi,
              [mask](K a, K b) { return (a ^ mask) < (b ^ mask); });
    return;
  }
  K* src = tmp;
  K* dst = keys;
  for (i32 pass = 0; pass < kLocalPasses; ++pass) {
    const i32 shift = pass * 8;
    i64 cnt[256] = {0};
    for (i64 i = lo; i < hi; ++i) ++cnt[(src[i] >> shift) & 0xFF];
    i64 run = lo;
    for (i32 d = 0; d < 256; ++d) {
      const i64 c = cnt[d];
      cnt[d] = run;
      run += c;
    }
    for (i64 i = lo; i < hi; ++i) dst[cnt[(src[i] >> shift) & 0xFF]++] = src[i];
    std::swap(src, dst);
  }
  // kLocalPasses is odd for every multi-byte K, so the data is in `keys`.
}

template <typename K>
void radix_impl(K* keys, i64 n, K mask, const Options& opts) {
  constexpr i32 kBuckets = 256;
  constexpr i32 kTopShift = (static_cast<i32>(sizeof(K)) - 1) * 8;
  const i32 req = resolve_width(opts.num_threads);
  if (req == 1 || n < opts.serial_cutoff) {
    std::sort(keys, keys + n,
              [mask](K a, K b) { return (a ^ mask) < (b ^ mask); });
    return;
  }
  std::vector<K> tmp(static_cast<std::size_t>(n));
  std::vector<i64> hist(static_cast<std::size_t>(req) * kBuckets);
  std::vector<i64> bucket_start(kBuckets + 1);
  std::vector<i32> bucket_lo(static_cast<std::size_t>(req));
  std::vector<i32> bucket_hi(static_cast<std::size_t>(req));
  zomp::parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        rt::Team& team = *ts.team;
        const i32 w = team.size();
        const i32 t = ts.tid;
        const rt::StaticRange r = rt::static_distribute(0, n, 1, 0, t, w);

        // Phase 1: per-member top-digit histogram of its slice.
        i64* row = hist.data() + static_cast<std::size_t>(t) * kBuckets;
        std::fill(row, row + kBuckets, i64{0});
        for (i64 i = r.lo; i < r.hi; ++i) {
          ++row[static_cast<K>(keys[i] ^ mask) >> kTopShift];
        }
        const u64 s1 = team.phase_next(ts);
        team.phase_publish(ts, s1);

        // Phase 2: member 0 turns the matrix into scatter offsets (column
        // order (bucket, member) = the stable order) and deals buckets out
        // as contiguous ranges, one per member, in place order, each aiming
        // at ~n/w elements.
        const u64 s2 = team.phase_next(ts);
        if (t == 0) {
          if (!team.phase_await_all(s1)) return;
          i64 run = 0;
          for (i32 b = 0; b < kBuckets; ++b) {
            bucket_start[static_cast<std::size_t>(b)] = run;
            for (i32 m = 0; m < w; ++m) {
              i64& cell = hist[static_cast<std::size_t>(m) * kBuckets +
                               static_cast<std::size_t>(b)];
              const i64 c = cell;
              cell = run;
              run += c;
            }
          }
          bucket_start[kBuckets] = n;
          const std::vector<i32> order = place_order(team.shard_map(), w);
          i32 b = 0;
          for (i32 j = 0; j < w; ++j) {
            const i32 range_lo = b;
            if (j + 1 == w) {
              b = kBuckets;
            } else {
              const i64 target = (j + 1) * n / w;
              while (b < kBuckets &&
                     bucket_start[static_cast<std::size_t>(b) + 1] <= target) {
                ++b;
              }
            }
            bucket_lo[static_cast<std::size_t>(order[static_cast<std::size_t>(j)])] = range_lo;
            bucket_hi[static_cast<std::size_t>(order[static_cast<std::size_t>(j)])] = b;
          }
          team.phase_publish(ts, s2);
        } else {
          team.phase_publish(ts, s2);
          if (!team.phase_await(0, s2)) return;
        }

        // Phase 3: stable scatter of this member's slice into tmp.
        i64 off[kBuckets];
        std::memcpy(off, row, sizeof(off));
        for (i64 i = r.lo; i < r.hi; ++i) {
          const K k = keys[i];
          tmp[static_cast<std::size_t>(
              off[static_cast<K>(k ^ mask) >> kTopShift]++)] = k;
        }
        const u64 s3 = team.phase_next(ts);
        team.phase_publish(ts, s3);
        if (!team.phase_await_all(s3)) return;

        // Phase 4 (member-local): finish the owned buckets by the low bytes.
        for (i32 b = bucket_lo[static_cast<std::size_t>(t)];
             b < bucket_hi[static_cast<std::size_t>(t)]; ++b) {
          sort_bucket(keys, tmp.data(), bucket_start[static_cast<std::size_t>(b)],
                      bucket_start[static_cast<std::size_t>(b) + 1], mask);
        }
      },
      ParallelOptions{opts.num_threads});
}

}  // namespace

void radix_sort_run(void* keys, i64 n, std::size_t key_bytes, u64 xor_mask,
                    const Options& opts) {
  if (n <= 0) return;
  switch (key_bytes) {
    case 1:
      radix_impl(static_cast<std::uint8_t*>(keys), n,
                 static_cast<std::uint8_t>(xor_mask), opts);
      break;
    case 2:
      radix_impl(static_cast<std::uint16_t*>(keys), n,
                 static_cast<std::uint16_t>(xor_mask), opts);
      break;
    case 4:
      radix_impl(static_cast<rt::u32*>(keys), n, static_cast<rt::u32>(xor_mask),
                 opts);
      break;
    case 8:
      radix_impl(static_cast<u64*>(keys), n, xor_mask, opts);
      break;
    default:
      ZOMP_CHECK(false, "radix sort supports 1/2/4/8-byte keys");
  }
}

// ---------------------------------------------------------------------------
// Top-k
// ---------------------------------------------------------------------------

i64 top_k_run(i64 n, i64 k, const TopKOps& ops, void* result,
              const Options& opts) {
  if (n <= 0 || k <= 0) return 0;
  const i32 req = resolve_width(opts.num_threads);
  if (req == 1 || n < opts.serial_cutoff) {
    return ops.local_topk(ops.ctx, 0, n, result);
  }
  // Row r of the candidate matrix belongs to member r; the join barrier
  // publishes every row, so the merge needs no phase traffic.
  std::vector<unsigned char> cand(static_cast<std::size_t>(req) *
                                  static_cast<std::size_t>(k) *
                                  ops.elem_bytes);
  std::vector<i64> counts(static_cast<std::size_t>(req), 0);
  zomp::parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        rt::Team& team = *ts.team;
        const rt::StaticRange r =
            rt::static_distribute(0, n, 1, 0, ts.tid, team.size());
        if (r.hi > r.lo) {
          counts[static_cast<std::size_t>(ts.tid)] = ops.local_topk(
              ops.ctx, r.lo, r.hi,
              cand.data() + static_cast<std::size_t>(ts.tid) *
                                static_cast<std::size_t>(k) * ops.elem_bytes);
        }
      },
      ParallelOptions{opts.num_threads});
  return ops.merge(ops.ctx, cand.data(), counts.data(), req, k, result);
}

}  // namespace zomp::algo::detail
