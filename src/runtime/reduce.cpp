#include "runtime/reduce.h"

#include <bit>
#include <cstring>

namespace zomp::rt {

namespace {

/// Spins (with the wait-policy backoff) until `cell` reaches `target`.
void wait_at_least(const std::atomic<u64>& cell, u64 target) {
  Backoff backoff;
  while (cell.load(std::memory_order_acquire) < target) backoff.pause();
}

}  // namespace

ReductionTree::ReductionTree(i32 n)
    : n_(n), slots_(static_cast<std::size_t>(n)) {
  ZOMP_CHECK(n >= 1, "reduction tree needs at least one member");
}

bool ReductionTree::combine(i32 tid, u64 seq, void* data, std::size_t size,
                            ReduceCombineFn fn, void* ctx, bool broadcast) {
  ZOMP_CHECK(tid >= 0 && tid < n_, "reduction from non-member thread");
  if (n_ == 1) return true;  // data already is the combined value
  // Payloads that fit a slot travel by value: a member copies its finished
  // subtree into its slot and may leave. Wider payloads travel by
  // reference: the slot carries a pointer to the member's own buffer, the
  // consumer reads it in place, and the member stays until the winner is
  // done reading. Both use the same tree, so the combine order — and with
  // it every floating-point result — depends only on the team size.
  const bool by_ref = size > kSlotBytes;
  const u64 base = seq * kTokenStride;
  // Reuse gate: instance seq-1 must be fully combined before any slot of it
  // may be overwritten. The winner's release of done_seq_ happens-after every
  // combine read of the previous instance (each read flows up the tree into
  // the winner through an acquire of the publishing slot's token).
  wait_at_least(done_seq_, seq - 1);

  // Member tid folds partners tid + 2^r for r < ctz(tid); the winner (tid 0)
  // folds partners 1, 2, 4, ... — the log2(n) critical path. Round r's
  // partner publishes once its own subtree of height r is complete.
  const i32 rounds = tid == 0 ? std::bit_width(static_cast<u32>(n_ - 1))
                              : std::countr_zero(static_cast<u32>(tid));
  for (i32 r = 0; r < rounds; ++r) {
    const i32 partner = tid + (i32{1} << r);
    if (partner >= n_) continue;  // subtree truncated by team size
    Slot& ps = slots_[static_cast<std::size_t>(partner)];
    wait_at_least(ps.token, base + static_cast<u64>(r));
    const void* theirs = ps.data;
    if (by_ref) std::memcpy(&theirs, ps.data, sizeof(theirs));
    fn(ctx, data, theirs);
  }

  if (tid == 0) {
    if (broadcast) {
      if (by_ref) {
        broadcast_ref_.store(data, std::memory_order_relaxed);
      } else {
        std::memcpy(broadcast_[seq & 1].data, data, size);
      }
      broadcast_seq_.store(seq, std::memory_order_release);
      if (by_ref) {
        // Readers copy out of our buffer: stay until every one has.
        Backoff backoff;
        while (broadcast_acks_.load(std::memory_order_acquire) < n_ - 1) {
          backoff.pause();
        }
        broadcast_acks_.store(0, std::memory_order_relaxed);
      }
    }
    done_seq_.store(seq, std::memory_order_release);
    return true;
  }

  Slot& mine = slots_[static_cast<std::size_t>(tid)];
  if (by_ref) {
    std::memcpy(mine.data, &data, sizeof(data));
  } else {
    std::memcpy(mine.data, data, size);
  }
  mine.token.store(base + static_cast<u64>(rounds), std::memory_order_release);

  if (broadcast) {
    // The broadcast is published after the last combine read, so our own
    // buffer is free to overwrite here.
    wait_at_least(broadcast_seq_, seq);
    if (by_ref) {
      std::memcpy(data, broadcast_ref_.load(std::memory_order_relaxed), size);
      broadcast_acks_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      std::memcpy(data, broadcast_[seq & 1].data, size);
    }
  } else if (by_ref) {
    wait_at_least(done_seq_, seq);  // our buffer is read in place until then
  }
  return false;
}

}  // namespace zomp::rt
