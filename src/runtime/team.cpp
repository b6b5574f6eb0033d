#include "runtime/team.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/syscall.h>
#endif

#include "runtime/fault.h"
#include "runtime/topology.h"
#include "runtime/trace.h"

namespace zomp::rt {

namespace {

thread_local ThreadState* tls_state = nullptr;

std::atomic<i32>& gtid_counter() {
  static std::atomic<i32> counter{0};
  return counter;
}

/// Above this many members the O(n^2) victim-order table is skipped and
/// take() keeps its staggered flat ring (256 members -> 255 KiB of table;
/// teams that large are oversubscription artefacts, not locality targets).
constexpr i32 kVictimTableMaxMembers = 256;

/// Locality tier between two members' assigned places: 0 same place, 1 same
/// core, 2 same socket, 3 anywhere/unknown. Core/socket come from the
/// scheduling topology's dense renumbering (topology.h), located via each
/// place's first OS processor — places that cross that granularity (e.g. a
/// socket-wide place) compare by where they start, which is exactly the
/// libomp convention for place ordering.
i32 locality_tier(const BindingPlan& binding, i32 a, i32 b) {
  const i32 pa = binding.members[static_cast<std::size_t>(a)].place;
  const i32 pb = binding.members[static_cast<std::size_t>(b)].place;
  if (pa == pb) return 0;
  const PlaceTable& table = PlaceTable::instance();
  if (pa < 0 || pb < 0 || pa >= table.num_places() ||
      pb >= table.num_places()) {
    return 3;
  }
  const Place& place_a = table.place(pa);
  const Place& place_b = table.place(pb);
  if (place_a.procs.empty() || place_b.procs.empty()) return 3;
  const Topology& topo = scheduling_topology();
  const ProcInfo* ia = topo.find_proc(place_a.procs.front());
  const ProcInfo* ib = topo.find_proc(place_b.procs.front());
  if (ia == nullptr || ib == nullptr) return 3;
  if (ia->core == ib->core) return 1;
  if (ia->socket == ib->socket) return 2;
  return 3;
}

/// Builds the flattened n x (n-1) hierarchical victim order (DESIGN.md
/// S1.9): for each member, victims sorted by locality tier — same place,
/// same core, same socket, anywhere — with every tier rotated by the member
/// id so equal-distance thieves start on different victims (the anti-convoy
/// stagger folded into the hierarchy).
std::vector<i32> build_victim_order(const BindingPlan& binding, i32 n) {
  std::vector<i32> order;
  order.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
  std::array<std::vector<i32>, 4> tiers;
  for (i32 tid = 0; tid < n; ++tid) {
    for (auto& tier : tiers) tier.clear();
    for (i32 v = 0; v < n; ++v) {
      if (v == tid) continue;
      tiers[static_cast<std::size_t>(locality_tier(binding, tid, v))]
          .push_back(v);
    }
    for (auto& tier : tiers) {
      if (tier.empty()) continue;
      const i32 rot = tid % static_cast<i32>(tier.size());
      std::rotate(tier.begin(), tier.begin() + rot, tier.end());
      order.insert(order.end(), tier.begin(), tier.end());
    }
  }
  return order;
}

}  // namespace

void bind_thread_state(ThreadState* state) { tls_state = state; }

i32 allocate_gtid() {
  return gtid_counter().fetch_add(1, std::memory_order_relaxed);
}

ThreadState& current_thread() {
  if (tls_state == nullptr) {
    // First runtime contact on this thread (the bootstrap thread or a
    // user-created std::thread): give it a root state bound to a serial team.
    thread_local std::unique_ptr<ThreadState> root;
    root = std::make_unique<ThreadState>();
    root->gtid = allocate_gtid();
    root->icv = GlobalIcv::instance().initial();
    tls_state = root.get();
    root->serial_team = std::make_unique<Team>(
        std::vector<ThreadState*>{root.get()}, root->icv, /*level=*/0,
        /*active_level=*/0);
  }
  return *tls_state;
}

Team::Team(std::vector<ThreadState*> members, Icv icv, i32 level,
           i32 active_level)
    : members_(std::move(members)),
      icv_(icv),
      level_(level),
      active_level_(active_level),
      implicit_ctx_(members_.size()),
      tasks_(static_cast<i32>(members_.size())),
      counts_(members_.size()),
      reduce_tree_(static_cast<i32>(members_.size())),
      phase_sync_(static_cast<i32>(members_.size())) {
  ZOMP_CHECK(!members_.empty(), "team must have at least one member");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    ThreadState& ts = *members_[i];
    ts.team = this;
    ts.tid = static_cast<i32>(i);
    ts.icv = icv_;
    ts.ws_seq = 0;
    ts.single_seq = 0;
    ts.red_seq = 0;
    ts.phase_seq = 0;
    ts.dispatch = MemberDispatch{};
    ts.current_task = &implicit_ctx_[i];
  }
}

void Team::rearm(const Icv& icv, i32 level, i32 active_level) {
  // Quiescence precondition: every non-master member has checked out of the
  // previous region and the master has observed it (wait_all_checked_out's
  // acquire), so plain/relaxed stores here cannot race a member — the next
  // thing a member reads is its doorbell, whose release/acquire pair orders
  // this whole re-arm before the member's first access. Worker-side state
  // (tid, current_task, sequence counters) persists on purpose: every
  // construct-identity protocol is monotonic, and all members finished the
  // same number of constructs at the join, so carrying the counters forward
  // keeps the team in step without touching seven remote cache lines per
  // region. Only the master's ThreadState — clobbered by the outer
  // save/restore — is rebuilt, from the checkpoint taken at the last join.
  ThreadState& master = *members_[0];
  master.team = this;
  master.tid = 0;
  master.icv = icv;
  master.ws_seq = master_ws_seq_;
  master.single_seq = master_single_seq_;
  master.red_seq = master_red_seq_;
  master.phase_seq = master_phase_seq_;
  master.dispatch = MemberDispatch{};
  master.current_task = &implicit_ctx_[0];
  icv_ = icv;  // workers copy this when they take the doorbell job
  level_ = level;
  active_level_ = active_level;
  checked_out_.store(0, std::memory_order_relaxed);
  // Cancellation is per-region: a recycled hot team must not inherit the
  // previous region's verdict (belt to run_region's braces — the reset also
  // runs at the join, but a team parked cancelled must come up clean).
  reset_cancellation();
}

void Team::checkpoint_master() {
  const ThreadState& master = *members_[0];
  master_ws_seq_ = master.ws_seq;
  master_single_seq_ = master.single_seq;
  master_red_seq_ = master.red_seq;
  master_phase_seq_ = master.phase_seq;
}

u64 Team::count_total(Metric m) const {
  u64 total = 0;
  for (const MemberCounts& c : counts_) total += c.v[static_cast<i32>(m)];
  return total;
}

void Team::set_binding(BindingPlan plan) {
  binding_ = std::move(plan);
  // The binding decides locality, so everything derived from member places
  // is rebuilt with it: the dispatch shard map and the steal-victim order.
  // Same safe point as the plan itself — master-only, before any member
  // runs (pool.cpp computes the plan ahead of the doorbell ring).
  rebuild_locality();
}

void Team::rebuild_locality() {
  const i32 n = size();
  ShardMap map;
  if (!binding_.active || n <= 1 ||
      binding_.members.size() != static_cast<std::size_t>(n)) {
    shard_map_ = std::move(map);  // flat: one shard, no victim table
    tasks_.set_victim_order({});
    return;
  }
  // Shard = distinct member place, in ascending place order (so shard slabs
  // line up with place order); places beyond the cap merge into the last
  // shard, which only coarsens locality, never loses members.
  std::vector<i32> places;
  places.reserve(static_cast<std::size_t>(n));
  for (const MemberBinding& mb : binding_.members) places.push_back(mb.place);
  std::vector<i32> distinct = places;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  map.nshards = std::min<i32>(static_cast<i32>(distinct.size()),
                              kMaxPlaceShards);
  map.member_shard.resize(static_cast<std::size_t>(n));
  map.weight.assign(static_cast<std::size_t>(map.nshards), 0);
  map.shard_members.assign(static_cast<std::size_t>(map.nshards), {});
  for (i32 tid = 0; tid < n; ++tid) {
    const i32 rank = static_cast<i32>(
        std::lower_bound(distinct.begin(), distinct.end(),
                         places[static_cast<std::size_t>(tid)]) -
        distinct.begin());
    const i32 shard = std::min(rank, map.nshards - 1);
    map.member_shard[static_cast<std::size_t>(tid)] = shard;
    ++map.weight[static_cast<std::size_t>(shard)];
    map.shard_members[static_cast<std::size_t>(shard)].push_back(tid);
  }
  const bool multi_place = map.nshards > 1;
  shard_map_ = std::move(map);
  tasks_.set_victim_order(multi_place && n <= kVictimTableMaxMembers
                              ? build_victim_order(binding_, n)
                              : std::vector<i32>{});
}

namespace {

/// %A: the bound place's OS processor ids, comma-separated. Empty when the
/// thread is unbound (place_num -1) — matching the pre-ICV report.
std::string proc_list_text(const ThreadState& ts) {
  std::string out;
  if (ts.place_num >= 0 &&
      ts.place_num < PlaceTable::instance().num_places()) {
    const Place& place = PlaceTable::instance().place(ts.place_num);
    for (std::size_t i = 0; i < place.procs.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(place.procs[i]);
    }
  }
  return out;
}

/// %P: the OS process id (0 where the platform offers none).
i64 process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<i64>(::getpid());
#else
  return 0;
#endif
}

/// %i: the OS thread id where the platform exposes one (gettid has no libc
/// wrapper on older glibc, hence the raw syscall); elsewhere a stable hash
/// of the C++ thread id — still distinct per thread, which is all the
/// format field promises.
i64 native_thread_id() {
#if defined(__linux__)
  return static_cast<i64>(::syscall(SYS_gettid));
#else
  return static_cast<i64>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
#endif
}

/// %H: the machine's hostname.
std::string host_name() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

/// Maps an OpenMP long field name (%{thread_num}) to its short-name char,
/// or 0 when unknown.
char long_field_char(const std::string& name) {
  if (name == "thread_num") return 'n';
  if (name == "num_threads") return 'N';
  if (name == "nesting_level") return 'L';
  if (name == "process_id") return 'P';
  if (name == "native_thread_id") return 'i';
  if (name == "host") return 'H';
  if (name == "thread_affinity") return 'A';
  return 0;
}

std::string expand_field(char field, const ThreadState& ts) {
  switch (field) {
    case 'n': return std::to_string(ts.tid);
    case 'N':
      return std::to_string(ts.team != nullptr ? ts.team->size() : 1);
    case 'L':
      return std::to_string(ts.team != nullptr ? ts.team->level() : 0);
    case 'P': return std::to_string(process_id());
    case 'i': return std::to_string(native_thread_id());
    case 'H': return host_name();
    case 'A': return proc_list_text(ts);
    case 'p': return std::to_string(ts.place_num);  // zomp extension
    case '%': return "%";
    default: return std::string("%") + field;  // unknown: copy through
  }
}

}  // namespace

std::string affinity_report(const ThreadState& ts,
                            const std::string& format) {
  // Built as a string end to end: a socket-wide place on a large machine
  // lists dozens of procs, and a truncated report is worse than none.
  std::string out;
  out.reserve(format.size() + 16);
  for (std::size_t i = 0; i < format.size(); ++i) {
    if (format[i] != '%' || i + 1 == format.size()) {
      out.push_back(format[i]);
      continue;
    }
    char field = format[++i];
    if (field == '{') {
      const std::size_t close = format.find('}', i);
      if (close == std::string::npos) {  // unterminated: copy through
        out += "%{";
        continue;
      }
      field = long_field_char(format.substr(i + 1, close - i - 1));
      if (field == 0) {  // unknown long name: copy through verbatim
        out += "%" + format.substr(i, close - i + 1);
        i = close;
        continue;
      }
      i = close;
    }
    out += expand_field(field, ts);
  }
  return out;
}

std::string affinity_report(const ThreadState& ts) {
  return affinity_report(ts, GlobalIcv::instance().affinity_format());
}

void Team::bind_member(ThreadState& ts, i32 tid) {
  if (!binding_.active) return;
  const MemberBinding& mb = binding_.members[static_cast<std::size_t>(tid)];
  // The member's data environment gets its own slice of the partition
  // (spread subdivides; close/primary inherit the whole parent partition) —
  // this overrides the master-environment copy taken from the team ICVs.
  ts.icv.part_lo = mb.part_lo;
  ts.icv.part_len = mb.part_len;
  const bool changed = ts.place_num != mb.place;
  ts.place_num = mb.place;
  const u32 generation = PlaceTable::instance().generation();
  if (ts.bound_place != mb.place || ts.bound_generation != generation) {
    // The one OS call of the subsystem. Refusal (non-Linux, cgroup-restricted
    // mask) is deliberate no-op degradation: the logical place assignment
    // above stays in force for omp_get_place_num and nested partitioning.
    if (apply_place_mask(mb.place)) {
      ts.bound_place = mb.place;
      ts.bound_generation = generation;
    } else {
      ts.bound_place = -1;  // the OS mask no longer matches any place
    }
  }
  if (changed && GlobalIcv::instance().display_affinity()) {
    std::fprintf(stderr, "%s\n", affinity_report(ts).c_str());
  }
}

bool Team::barrier_wait(i32 tid) {
  // Entry cancellation point (OpenMP 5.2 §5): a member that observes a
  // pending `cancel parallel` NEVER arrives — abandoners head straight for
  // the join barrier, so the survivors' arrival count only has to balance
  // against other survivors (each of which abandons from its wait loop,
  // rolling its own arrival back). seq_cst load pairs with the seq_cst
  // fetch_or in cancel_activate. Checked before the episode events fire, so
  // a never-arriving member contributes no unpaired barrier-enter.
  if (cancel_request_.load(std::memory_order_seq_cst) & kCancelParallel) {
    return true;
  }
  trace_emit(TraceEv::kBarrierEnter, kBarrierKindUser);
  const bool abandoned = episode<true>(bar_arrived_, bar_epoch_, tid);
  trace_emit(TraceEv::kBarrierWaitEnd, kBarrierKindUser, abandoned ? 1 : 0);
  return abandoned;
}

void Team::join_barrier_wait(i32 tid) {
  // The region-end rendezvous: the user barrier's protocol minus every
  // cancellation check, on its own counters. After a `cancel parallel` the
  // survivors skipped arbitrarily many user barriers, so bar_epoch_ is no
  // longer meaningful team-wide; join_epoch_ is, because nobody ever skips
  // a join. Discarded tasks drain HERE: execute_task skips their bodies but
  // runs all accounting, so the implicit tasks' child counts reach zero
  // without running user code.
  trace_emit(TraceEv::kBarrierEnter, kBarrierKindJoin);
  episode<false>(join_arrived_, join_epoch_, tid);
  trace_emit(TraceEv::kBarrierWaitEnd, kBarrierKindJoin);
}

template <bool kCancellable>
bool Team::episode(std::atomic<i32>& arrived, std::atomic<u64>& epoch,
                   i32 tid) {
  ThreadState& ts = member(tid);
  // Only the user barrier observes `cancel parallel`; in the join barrier
  // this is a constant false and every check below compiles away.
  const auto cancelled = [this] {
    if constexpr (kCancellable) {
      return (cancel_request_.load(std::memory_order_seq_cst) &
              kCancelParallel) != 0;
    } else {
      return false;
    }
  };
  if (size() == 1) {
    Backoff backoff;
    while (tasks_pending()) {
      if (!run_one_task(ts)) backoff.pause();
    }
    // A completed barrier closes the innermost loop construct: clear any
    // pending loop-cancel so the next loop of the region starts clean.
    if constexpr (kCancellable) {
      cancel_request_.fetch_and(~kCancelLoop, std::memory_order_relaxed);
    }
  } else {
    const u64 seen = epoch.load(std::memory_order_acquire);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) == size() - 1) {
      // Last arriver: drain the team's tasks (helping), then open the gate.
      // Every member arrived, so no implicit task creates work any more and
      // each implicit child count only falls: one sequential all-zero read
      // of tasks_pending() is exact (DESIGN.md S1.3).
      Backoff backoff;
      while (tasks_pending()) {
        if (run_one_task(ts)) {
          backoff.reset();
        } else {
          backoff.pause();
        }
      }
      // Cancelled loops always end in a barrier (cancellable worksharing
      // must not be nowait), so a completed episode is exactly where the
      // loop bit dies: the construct it named is over for every member.
      if constexpr (kCancellable) {
        cancel_request_.fetch_and(~kCancelLoop, std::memory_order_relaxed);
      }
      arrived.store(0, std::memory_order_relaxed);
      // seq_cst epoch store: the WaitGate park below keys on it (the classic
      // store-load pairing documented in barrier.h).
      epoch.store(seen + 1, std::memory_order_seq_cst);
      bar_gate_.wake_all();
    } else {
      const i32 grace = doorbell_grace_rounds();
      Backoff backoff;
      i32 rounds = 0;
      while (epoch.load(std::memory_order_seq_cst) == seen) {
        // Cancellation re-check: the canceller never arrives, so without
        // this the waiters would park forever. Each abandoner rolls back its
        // own arrival, returning the count to zero once all survivors left —
        // the epoch never advances and the episode simply evaporates. A
        // canceller that did arrive set the flag only after this episode
        // completed (after the epoch store), so the seq_cst epoch re-load
        // sees it: pass normally, since rolling back an arrival the last
        // arriver already reset would leave the count at -1 and hang the
        // team's next barrier.
        if (cancelled()) {
          if (epoch.load(std::memory_order_seq_cst) != seen) break;
          arrived.fetch_sub(1, std::memory_order_acq_rel);
          return true;
        }
        // Help with explicit tasks, but only when some are STEALABLE: the
        // common task-free region (every NPB kernel) must not pay a full
        // deque scan per wait iteration — one shared-counter load keeps the
        // barrier's spin body at two loads — and a task merely *executing*
        // elsewhere offers nothing to help with.
        if (tasks_.queued() > 0 && run_one_task(ts)) {
          backoff.reset();
          rounds = 0;
          continue;
        }
        if (rounds < grace) {
          ++rounds;
          backoff.pause();
          continue;
        }
        // Grace expired — a long serial phase on the last arriver, a passive
        // wait policy, or an oversubscribed process: condvar-park instead of
        // yielding forever. Woken by the epoch flip or by a task enqueue
        // (enqueue_task), whose seq_cst publications pair with the seq_cst
        // predicate loads here; the grace itself mirrors the worker doorbell
        // so hot back-to-back joins never touch the futex. The predicate
        // keys on queued() — stealable work — NOT tasks_pending(): one long
        // task executing elsewhere must leave the waiters asleep, not
        // cycling grace-spin/instant-unpark for its whole duration. In the
        // user barrier it also keys on the cancel flag: cancel_activate's
        // wake_all must find the parked waiters willing to get up and
        // abandon. Both barriers share bar_gate_: a wake meant for the other
        // episode is a spurious unpark (the predicate re-check re-parks), a
        // missed wake is impossible because both publish with seq_cst
        // stores before wake_all.
        bar_gate_.park([&] {
          return epoch.load(std::memory_order_seq_cst) != seen ||
                 cancelled() || tasks_.queued() > 0;
        });
        rounds = 0;
        backoff.reset();
      }
    }
  }
  // The member's dependence wavefront cannot outlive a full barrier (every
  // team task drained above), so retire the table here; guarded on the child
  // count for robustness against non-conforming in-task barriers.
  if (ts.current_task->deps != nullptr &&
      ts.current_task->children.load(std::memory_order_acquire) == 0) {
    ts.current_task->deps.reset();
  }
  return false;
}

bool Team::cancel_activate(ThreadState& ts, i32 construct) {
  (void)ts;
  // cancel-var gates everything: when OMP_CANCELLATION is unset the whole
  // subsystem is a no-op and generated cancellation checks cost one relaxed
  // load. Read at use (not cached at construction) so hot-cached teams obey
  // a set_cancellation issued between regions.
  if (!GlobalIcv::instance().cancellation()) return false;
  cancel_request_.fetch_or(construct, std::memory_order_seq_cst);
  trace_emit(TraceEv::kCancel, construct);
  // Parallel cancel must unpark barrier waiters so they can abandon their
  // episode; the park predicate re-checks the flag under the gate's lock.
  if (construct & kCancelParallel) bar_gate_.wake_all();
  return true;
}

bool Team::cancellation_requested(ThreadState& ts, i32 construct) {
  (void)ts;
  if (!GlobalIcv::instance().cancellation()) return false;
  return (cancel_request_.load(std::memory_order_seq_cst) & construct) != 0;
}

bool Team::cancel_taskgroup(ThreadState& ts) {
  if (!GlobalIcv::instance().cancellation()) return false;
  TaskGroup* group = ts.current_task->group;
  if (group == nullptr) return false;  // no construct to cancel: no-op
  group->cancelled.store(true, std::memory_order_seq_cst);
  return true;
}

bool Team::taskgroup_cancelled(ThreadState& ts) const {
  for (TaskGroup* g = ts.current_task->group; g != nullptr; g = g->parent) {
    if (g->cancelled.load(std::memory_order_acquire)) return true;
  }
  return false;
}

bool Team::task_discarded(const Task& task) const {
  // Discard-on-take: a pending parallel cancel discards every queued task of
  // the region; a cancelled taskgroup discards its own queued tasks and its
  // descendants' (the group parent chain). No ICV check needed — the flags
  // can only have been set while cancellation was enabled.
  if (cancel_request_.load(std::memory_order_acquire) & kCancelParallel) {
    return true;
  }
  for (TaskGroup* g = task.group; g != nullptr; g = g->parent) {
    if (g->cancelled.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void Team::dispatch_init(ThreadState& ts, Schedule schedule, i64 lo, i64 hi,
                         i64 step) {
  ZOMP_CHECK(ts.team == this, "dispatch_init from non-member thread");
  Schedule resolved = schedule;
  if (resolved.kind == ScheduleKind::kRuntime) {
    resolved = ts.icv.run_sched;
    if (resolved.kind == ScheduleKind::kRuntime) {
      resolved = Schedule{ScheduleKind::kStatic, 0};  // defensive default
    }
  }

  const u64 seq = ++ts.ws_seq;
  DispatchSlot& slot = dispatch_ring_[seq % kDispatchRing];

  bool initialised = false;
  Backoff backoff;
  for (;;) {
    u64 expected = 0;
    if (slot.owner_seq.compare_exchange_strong(expected, seq,
                                               std::memory_order_acq_rel)) {
      initialised = true;
      break;
    }
    if (expected == seq) break;  // another member initialised construct #seq
    // Slot still owned by an older construct (fast threads under nowait);
    // wait for it to drain — this is the ring's natural backpressure.
    ZOMP_CHECK(expected < seq, "worksharing constructs encountered out of order");
    backoff.pause();
  }

  if (initialised) {
    slot.kind = resolved.kind;
    slot.lo = lo;
    slot.hi = hi;
    slot.step = step;
    slot.chunk = resolved.chunk;
    slot.trips = trip_count(lo, hi, step);
    slot.nthreads = size();
    // Per-place cursor slabs (DESIGN.md S1.9) for the claim-based kinds;
    // static kinds get the flat single shard (their cursor is per-member).
    dispatch_init_shards(slot, shard_map_,
                         /*sharded=*/resolved.kind == ScheduleKind::kDynamic ||
                             resolved.kind == ScheduleKind::kGuided);
    slot.done_members.store(0, std::memory_order_relaxed);
    // Reset the ordered turnstile here, before `ready` is published: every
    // member waits for `ready` before claiming a chunk, so no iteration can
    // observe a stale turnstile value. Safe even while an unrelated nowait
    // loop is still draining, because ordered loops end in a barrier and
    // non-ordered loops never read the turnstile.
    ordered_next_.store(0, std::memory_order_relaxed);
    slot.ready.store(true, std::memory_order_release);
  } else {
    Backoff wait;
    while (!slot.ready.load(std::memory_order_acquire)) wait.pause();
  }

  ts.dispatch.slot = &slot;
  ts.dispatch.seq = seq;
  ts.dispatch.shard =
      shard_map_.member_shard.empty()
          ? 0
          : shard_map_.member_shard[static_cast<std::size_t>(ts.tid)];
  ts.dispatch.last_chunk = false;
  if (slot.kind == ScheduleKind::kStatic || slot.kind == ScheduleKind::kAuto) {
    dispatch_init_static_cursor(slot, ts.dispatch, ts.tid);
  }
  trace_emit(TraceEv::kDispatchInit, slot.trips,
             static_cast<i64>(slot.kind));
}

bool Team::dispatch_next(ThreadState& ts, i64* plo, i64* phi, bool* plast) {
  DispatchSlot* slot = ts.dispatch.slot;
  ZOMP_CHECK(slot != nullptr, "dispatch_next without dispatch_init");
  // Chunk claims are cancellation points: a pending loop cancel (or a
  // parallel cancel, which subsumes it — the member must reach the region
  // end) makes every member's next claim take the exhaustion path instead,
  // so the loop's remaining iterations are abandoned without any explicit
  // shard surgery — the cursors simply stop advancing and each member
  // detaches on its own schedule.
  const bool cancelled =
      (cancel_request_.load(std::memory_order_acquire) &
       (kCancelLoop | kCancelParallel)) != 0;
  bool last = false;
  if (!cancelled &&
      dispatch_next_chunk(*slot, ts.dispatch, ts.tid, plo, phi, &last)) {
    ts.dispatch.last_chunk = last;
    if (plast != nullptr) *plast = last;
    trace_emit(TraceEv::kDispatchClaim, *plo, *phi, ts.dispatch.served_shard);
    return true;
  }
  // Exhausted for this member: detach; the last member to detach frees the
  // slot for reuse by a later construct.
  dispatch_detach(ts, *slot);
  return false;
}

void Team::dispatch_break(ThreadState& ts) {
  DispatchSlot* slot = ts.dispatch.slot;
  if (slot == nullptr) return;  // static-path loop or already detached
  dispatch_detach(ts, *slot);
}

void Team::dispatch_detach(ThreadState& ts, DispatchSlot& slot) {
  // Read `nthreads` *before* the detach RMW: the operands of == are
  // unsequenced, and a read evaluated after our own fetch_add would race the
  // next construct's initialiser once the last detacher frees the slot.
  ts.dispatch.slot = nullptr;
  const i32 nthreads = slot.nthreads;
  if (slot.done_members.fetch_add(1, std::memory_order_acq_rel) ==
      nthreads - 1) {
    slot.ready.store(false, std::memory_order_relaxed);
    slot.owner_seq.store(0, std::memory_order_release);
  }
}

bool Team::reduce_combine(ThreadState& ts, void* data, std::size_t size,
                          ReduceCombineFn fn, void* ctx, bool broadcast) {
  ZOMP_CHECK(ts.team == this, "reduction from non-member thread");
  // Instances are matched across members by encounter order, the same
  // team-wide identity argument dispatch slots rely on (members encounter
  // reduction constructs in the same order within a region).
  const u64 seq = ++ts.red_seq;
  return reduce_tree_.combine(ts.tid, seq, data, size, fn, ctx, broadcast);
}

void Team::phase_publish(ThreadState& ts, u64 seq, const void* data,
                         std::size_t size) {
  ZOMP_CHECK(ts.team == this, "phase publish from non-member thread");
  phase_sync_.publish(ts.tid, seq, data, size);
}

bool Team::phase_await(i32 member, u64 seq, void* out, std::size_t size) {
  // Abandonable like the PR 8 barriers: a pending cancel-parallel calls the
  // whole algorithm off — the publisher we wait on may already have bailed
  // without publishing, so the wait must not outlive the cancellation.
  return phase_sync_.await(member, seq, out, size, &cancel_request_,
                           kCancelParallel);
}

bool Team::phase_await_all(u64 seq) {
  return phase_sync_.await_all(seq, &cancel_request_, kCancelParallel);
}

bool Team::single_begin(ThreadState& ts) {
  ZOMP_CHECK(ts.team == this, "single from non-member thread");
  const u64 seq = ++ts.single_seq;
  // First arriver for construct #seq observes the counter at seq-1 (a member
  // cannot reach construct k+1 without construct k having been claimed) and
  // advances it; everyone else fails the exchange and skips the block.
  u64 expected = seq - 1;
  return single_counter_.compare_exchange_strong(expected, seq,
                                                 std::memory_order_acq_rel);
}

void Team::ordered_enter(ThreadState& ts, i64 index) {
  (void)ts;
  Backoff backoff;
  while (ordered_next_.load(std::memory_order_acquire) != index) {
    backoff.pause();
  }
}

void Team::ordered_exit(ThreadState& ts, i64 index) {
  (void)ts;
  ordered_next_.store(index + 1, std::memory_order_release);
}

void Team::run_task_inline(ThreadState& ts, const TaskBody& body,
                           bool final_ctx) {
  // Undeferred (if(false)), included (final-descendant), serial-team and
  // allocation-failure tasks run immediately in a fresh context so nested
  // taskwait / taskgroup / depend clauses still behave.
  trace_emit(TraceEv::kTaskCreate, /*deferred=*/0);
  TaskContext inline_ctx;
  inline_ctx.group = ts.current_task->group;
  inline_ctx.in_final = final_ctx;
  TaskContext* saved = ts.current_task;
  ts.current_task = &inline_ctx;
  trace_emit(TraceEv::kTaskSchedule);
  body.run_in_place();
  // The inline task's own children must finish before it completes.
  Backoff backoff;
  while (inline_ctx.children.load(std::memory_order_acquire) > 0) {
    if (!run_one_task(ts)) backoff.pause();
  }
  ts.current_task = saved;
  trace_emit(TraceEv::kTaskComplete);
}

void Team::enqueue_task(ThreadState& ts, TaskPtr task) {
  if (auto rejected = tasks_.push(ts.tid, std::move(task))) {
    // Bounded deque full: run at the creation/release point (a legal task
    // scheduling point), which throttles runaway producers and — through
    // execute_task — still releases the rejected task's own successors.
    execute_task(ts, std::move(rejected));
    return;
  }
  // Wake join-barrier waiters parked past their doorbell grace so a late
  // task burst still gets helpers; one seq_cst load when nobody is parked.
  bar_gate_.wake_all();
}

TaskPtr Team::new_task(ThreadState& ts, const TaskBody& body, i32 priority) {
  if (fault_should_fail(FaultSite::kAlloc)) return nullptr;
  TaskPtr task = acquire_task_record();
  task->place(body);
  task->parent = ts.current_task;
  task->group = ts.current_task->group;
  // priority clauses clamp into [0, max-task-priority-var] (OpenMP 5.2
  // §12.4): values above the ICV ceiling are allowed but not meaningful.
  task->priority = std::clamp(priority, 0,
                              GlobalIcv::instance().max_task_priority());
  task->parent->children.fetch_add(1, std::memory_order_acq_rel);
  if (task->group != nullptr) {
    task->group->active.fetch_add(1, std::memory_order_acq_rel);
  }
  trace_emit(TraceEv::kTaskCreate, /*deferred=*/1, task->priority);
  return task;
}

void Team::task_create(ThreadState& ts, const TaskBody& body, bool deferred) {
  TaskOpts opts;
  opts.deferred = deferred;
  task_create_ex(ts, body, opts);
}

void Team::task_create_ex(ThreadState& ts, const TaskBody& body,
                          const TaskOpts& opts) {
  ZOMP_CHECK(ts.team == this, "task created from non-member thread");
  const bool final_task = opts.final || ts.current_task->in_final;
  const bool deferred = opts.deferred && !final_task && size() > 1;
  if (opts.ndeps <= 0) {
    // No dependences: the fast path. Graceful degradation: a failed record
    // allocation (new_task returns null under an injected FaultSite::kAlloc)
    // downgrades the task to undeferred inline execution at the creation
    // point — a legal task scheduling point, the same valve the
    // deque-overflow path uses — so the program stays correct, just less
    // parallel.
    TaskPtr task;
    if (deferred) task = new_task(ts, body, opts.priority);
    if (!task) {
      run_task_inline(ts, body, final_task);
      return;
    }
    enqueue_task(ts, std::move(task));
    return;
  }

  // -- Dependence path (DESIGN.md S1.7) -------------------------------------
  // Sibling creation is serialised by the parent task, so the table walk is
  // single-threaded; only the per-node lock below is contended (against
  // predecessors completing concurrently).
  TaskContext& parent = *ts.current_task;
  DepTable& table = parent.dep_table();
  auto node = std::make_shared<DepNode>();

  // Merge duplicate addresses first (depend(in: x) + depend(out: x) on one
  // task acts as inout) so a task never draws an edge to its own node.
  struct MergedDep {
    const void* addr;
    bool writes;
  };
  std::vector<MergedDep> merged;
  merged.reserve(static_cast<std::size_t>(opts.ndeps));
  for (i32 i = 0; i < opts.ndeps; ++i) {
    const DepSpec& d = opts.deps[i];
    const bool writes = d.kind != DepKind::kIn;
    bool found = false;
    for (auto& m : merged) {
      if (m.addr == d.addr) {
        m.writes = m.writes || writes;
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(MergedDep{d.addr, writes});
  }

  auto link = [&](const std::shared_ptr<DepNode>& pred) {
    const std::lock_guard<std::mutex> lock(pred->mu);
    if (pred->done) return;  // completed predecessors impose nothing
    pred->successors.push_back(node);
    node->npredecessors.fetch_add(1, std::memory_order_relaxed);
  };
  for (const MergedDep& m : merged) {
    DepEntry& entry = table[m.addr];
    if (m.writes) {
      // out/inout: after the last writer and every reader since it.
      if (entry.last_out) link(entry.last_out);
      for (const auto& r : entry.readers) link(r);
      entry.readers.clear();
      entry.last_out = node;
    } else {
      // in: after the last writer only; readers run concurrently.
      if (entry.last_out) link(entry.last_out);
      entry.readers.push_back(node);
    }
  }

  TaskPtr task;
  if (deferred) task = new_task(ts, body, opts.priority);
  if (!task) {
    // An undeferred task still honours its dependences: help run queued
    // tasks until every predecessor completed (count down to the creation
    // reference), then run inline and release successors.
    Backoff backoff;
    while (node->npredecessors.load(std::memory_order_acquire) > 1) {
      if (run_one_task(ts)) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    node->npredecessors.fetch_sub(1, std::memory_order_acq_rel);
    run_task_inline(ts, body, final_task);
    complete_depnode(ts, *node);
    return;
  }

  task->depnode = node;
  // Park before dropping the creation reference: whoever decrements the
  // count to zero — us, when every predecessor already finished, or the
  // last-finishing predecessor — owns the task and enqueues it exactly once.
  node->task = task.release();
  if (node->npredecessors.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue_task(ts, TaskPtr(std::exchange(node->task, nullptr)));
  }
}

void Team::complete_depnode(ThreadState& ts, DepNode& node) {
  std::vector<std::shared_ptr<DepNode>> successors;
  {
    const std::lock_guard<std::mutex> lock(node.mu);
    node.done = true;  // later siblings skip the edge entirely
    successors.swap(node.successors);
  }
  for (const auto& succ : successors) {
    if (succ->npredecessors.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last predecessor: the acquire above pairs with the creator's release
      // drop of the creation reference, ordering its `task` store before
      // this read. Undeferred successors never park (task stays null) —
      // their encountering thread spins the count down itself.
      TaskPtr ready(std::exchange(succ->task, nullptr));
      if (ready) enqueue_task(ts, std::move(ready));
    }
  }
}

void Team::execute_task(ThreadState& ts, TaskPtr task) {
  TaskContext* saved = ts.current_task;
  task->ctx.group = task->group;  // descendants join the same group
  ts.current_task = &task->ctx;
  // Discard-on-take (cancellation): skip ONLY the body. Everything after —
  // pack destruction, child wait, successor release, group/parent
  // decrements — still runs, which is the single completion hook this path
  // shares with the deque-overflow inline route: a discarded task must drain
  // from every counter a normal task would, or the barrier and
  // taskgroup_end would wait forever on work that will never run.
  const bool discarded = task_discarded(*task);
  trace_emit(TraceEv::kTaskSchedule, discarded ? 1 : 0);
  if (!discarded) task->run_body();
  // The pack dies with the body, before the task can count as complete.
  task->drop_pack();
  // Children of this task must complete before the task itself does
  // (OpenMP's implicit task completion ordering for taskwait counting is
  // handled by the parent's explicit waits; here we keep the counters
  // sound: a finished task must not leave live children unaccounted, which
  // is also what lets the barrier drain on the implicit tasks' counts).
  Backoff backoff;
  while (task->ctx.children.load(std::memory_order_acquire) > 0) {
    if (run_one_task(ts)) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  ts.current_task = saved;
  trace_emit(TraceEv::kTaskComplete, discarded ? 1 : 0);
  TaskContext* parent = task->parent;
  TaskGroup* group = task->group;
  std::shared_ptr<DepNode> node = std::move(task->depnode);
  task.reset();  // recycled before any waiter can observe the completion
  // Release dependent successors BEFORE this task's own counters drop. Runs
  // on the overflow-inline path too — a rejected task's successors must not
  // strand.
  if (node) complete_depnode(ts, *node);
  if (group != nullptr) group->active.fetch_sub(1, std::memory_order_acq_rel);
  parent->children.fetch_sub(1, std::memory_order_acq_rel);
}

bool Team::run_one_task(ThreadState& ts) {
  // A false return is NOT "the pool is dry": take() may miss a push that is
  // mid-publication (maybe_empty's advisory contract, task.h) or lose a
  // steal race. Every drain loop in this file therefore gates its *exit* on
  // the authoritative counters — children (tasks_pending() sums the
  // implicit tasks'), queued(), group.active — re-read each round, and uses
  // false only to pace its backoff. Keep it that way when adding loops.
  TaskPtr task = tasks_.take(ts.tid);
  if (!task) return false;
  execute_task(ts, std::move(task));
  return true;
}

bool Team::tasks_pending() const {
  for (const TaskContext& ctx : implicit_ctx_) {
    if (ctx.children.load(std::memory_order_acquire) > 0) return true;
  }
  return false;
}

void Team::taskwait(ThreadState& ts) {
  Backoff backoff;
  while (ts.current_task->children.load(std::memory_order_acquire) > 0) {
    if (run_one_task(ts)) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  // All children complete: every node in the dependence table is done and
  // can impose no further edges, so retire the table — later siblings start
  // a fresh wavefront and long-running parents don't accumulate per-address
  // state across synchronisation points.
  if (ts.current_task->deps != nullptr) ts.current_task->deps.reset();
}

void Team::taskloop(ThreadState& ts, i64 lo, i64 hi, i64 grainsize,
                    i64 num_tasks, ChunkFn chunk, void* ctx) {
  ZOMP_CHECK(ts.team == this, "taskloop from non-member thread");
  // Implicit taskgroup: taskloop returns only when every chunk task (and
  // their descendants) completed, which also keeps `ctx` alive for the
  // chunks' whole lifetime.
  TaskGroup group;
  taskgroup_begin(ts, group);
  const i64 trips = hi > lo ? hi - lo : 0;
  if (trips > 0) {
    i64 chunks;
    if (num_tasks > 0) {
      chunks = std::min(num_tasks, trips);
    } else if (grainsize > 0) {
      chunks = (trips + grainsize - 1) / grainsize;
    } else {
      chunks = std::min<i64>(trips, i64{size()} * kTaskloopChunksPerMember);
    }
    const i64 base = trips / chunks;
    const i64 rem = trips % chunks;
    // Place-aware spray (DESIGN.md S1.9): on a multi-place team the chunk
    // tasks are dealt round-robin across the place shards (and round-robin
    // among each shard's members) through the mailboxes, instead of all
    // landing in the creator's deque — every place starts with local work
    // rather than cross-socket-stealing the lot from the creator. Final
    // contexts never spray: their chunks must run inline (included tasks).
    const ShardMap& sm = shard_map_;
    const bool spray =
        size() > 1 && sm.nshards > 1 && !ts.current_task->in_final;
    i64 start = lo;
    for (i64 c = 0; c < chunks; ++c) {
      const i64 len = base + (c < rem ? 1 : 0);
      const i64 clo = start;
      const i64 chi = start + len;
      start = chi;
      auto run_chunk = [chunk, ctx, clo, chi] { chunk(clo, chi, ctx); };
      if (!spray) {
        task_create(ts, run_chunk);
        continue;
      }
      const i32 shard = static_cast<i32>(c % sm.nshards);
      const auto& members = sm.shard_members[static_cast<std::size_t>(shard)];
      const i32 target = members[static_cast<std::size_t>(
          (c / sm.nshards) % static_cast<i64>(members.size()))];
      // Same-degradation spray: a chunk aimed at ourselves, or whose record
      // allocation failed, stays local (task_create's own allocation then
      // decides deferred vs inline).
      TaskPtr task;
      if (target != ts.tid) task = new_task(ts, run_chunk, /*priority=*/0);
      if (!task) {
        task_create(ts, run_chunk);
        continue;
      }
      tasks_.push_remote(target, std::move(task));
      // Wake parked join-barrier waiters, mirroring enqueue_task: the
      // mailed task is their work too (own-mailbox pull or steal).
      bar_gate_.wake_all();
    }
  }
  taskgroup_end(ts, group);
}

void Team::taskgroup_begin(ThreadState& ts, TaskGroup& group) {
  group.parent = ts.current_task->group;
  group.active.store(0, std::memory_order_relaxed);
  ts.current_task->group = &group;
}

void Team::taskgroup_end(ThreadState& ts, TaskGroup& group) {
  ZOMP_CHECK(ts.current_task->group == &group,
             "mismatched taskgroup begin/end");
  Backoff backoff;
  while (group.active.load(std::memory_order_acquire) > 0) {
    if (run_one_task(ts)) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  ts.current_task->group = group.parent;
}

void Team::wait_all_checked_out() {
  Backoff backoff;
  while (checked_out_.load(std::memory_order_acquire) != size() - 1) {
    backoff.pause();
  }
}

}  // namespace zomp::rt
