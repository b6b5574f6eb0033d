#include "runtime/task.h"

#include <cstring>

#include "runtime/trace.h"

namespace zomp::rt {

// -- Task records (DESIGN.md S1.3) --------------------------------------------

// AddressSanitizer builds bypass the cache: every record is a fresh
// allocation freed on release, so reuse can never hide a use-after-free.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRecycleRecords = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kRecycleRecords = false;
#else
constexpr bool kRecycleRecords = true;
#endif
#else
constexpr bool kRecycleRecords = true;
#endif

/// One thread's record cache. `local` is owner-only; other threads return
/// records through `remote`, a push-only Treiber stack the owner empties in
/// one exchange (take-all, so no ABA). `owned` counts the records this cache
/// allocated and has not freed. The object outlives its thread while any of
/// them is still live: closing swaps kClosed into `remote`, frees what is
/// cached, and the return that frees the last record deletes the cache.
struct TaskCache {
  Task* local = nullptr;
  std::atomic<i64> owned{0};
  alignas(kCacheLine) std::atomic<Task*> remote{nullptr};
};

namespace {

/// `remote` value of a closed cache (its thread exited). Never dereferenced.
Task* const kClosed = reinterpret_cast<Task*>(alignof(Task));

std::atomic<i64> g_heap_records{0};

thread_local TaskCache* tls_cache = nullptr;

void free_record(Task* task) noexcept {
  delete task;
  g_heap_records.fetch_sub(1, std::memory_order_relaxed);
}

void close_cache(TaskCache* cache) noexcept {
  i64 freed = 0;
  for (Task* list : {cache->local, cache->remote.exchange(
                                       kClosed, std::memory_order_acquire)}) {
    while (list != nullptr) {
      Task* next = list->next;
      free_record(list);
      ++freed;
      list = next;
    }
  }
  cache->local = nullptr;
  if (cache->owned.fetch_sub(freed, std::memory_order_acq_rel) == freed) {
    delete cache;
  }
}

/// Closes the thread's cache at thread exit.
struct CacheCloser {
  ~CacheCloser() {
    if (TaskCache* cache = std::exchange(tls_cache, nullptr)) close_cache(cache);
  }
};

TaskCache& this_thread_cache() {
  if (tls_cache == nullptr) [[unlikely]] {
    thread_local CacheCloser closer;  // registers the exit hook
    (void)closer;
    tls_cache = new TaskCache;
  }
  return *tls_cache;
}

}  // namespace

void TaskBody::run_in_place() const {
  if (relocate != nullptr) {
    run(src);
    return;
  }
  alignas(kTaskPackAlign) unsigned char local[kTaskInlinePack];
  std::unique_ptr<unsigned char[]> tail;
  void* copy = local;
  if (size > sizeof local) {
    tail.reset(new unsigned char[size]);
    copy = tail.get();
  }
  if (size > 0) std::memcpy(copy, src, size);
  run(copy);
}

void Task::place(const TaskBody& body) {
  void* at = body.size <= kTaskInlinePack ? static_cast<void*>(inline_pack)
                                          : ::operator new(body.size);
  if (body.relocate != nullptr) {
    body.relocate(at, body.src);
  } else if (body.size > 0) {
    std::memcpy(at, body.src, body.size);
  }
  pack = at;
  run = body.run;
  destroy = body.destroy;
}

void Task::drop_pack() noexcept {
  if (pack == nullptr) return;
  if (destroy != nullptr) destroy(pack);
  if (pack != inline_pack) ::operator delete(pack);
  pack = nullptr;
  destroy = nullptr;
}

TaskPtr acquire_task_record() {
  TaskCache* owner = nullptr;
  if constexpr (kRecycleRecords) {
    TaskCache& cache = this_thread_cache();
    if (cache.local == nullptr &&
        cache.remote.load(std::memory_order_relaxed) != nullptr) {
      cache.local = cache.remote.exchange(nullptr, std::memory_order_acquire);
    }
    if (Task* task = cache.local) {
      cache.local = task->next;
      task->next = nullptr;
      return TaskPtr(task);
    }
    cache.owned.fetch_add(1, std::memory_order_relaxed);
    owner = &cache;
  }
  auto* task = new Task;
  task->owner = owner;
  g_heap_records.fetch_add(1, std::memory_order_relaxed);
  return TaskPtr(task);
}

void TaskRecycler::operator()(Task* task) const noexcept {
  task->drop_pack();
  task->ctx.deps.reset();
  task->depnode.reset();
  TaskCache* cache = task->owner;
  if (cache == nullptr) {
    free_record(task);
  } else if (cache == tls_cache) {
    task->next = cache->local;
    cache->local = task;
  } else {
    Task* head = cache->remote.load(std::memory_order_relaxed);
    do {
      if (head == kClosed) {
        free_record(task);
        if (cache->owned.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          delete cache;
        }
        return;
      }
      task->next = head;
    } while (!cache->remote.compare_exchange_weak(
        head, task, std::memory_order_release, std::memory_order_relaxed));
  }
}

i64 task_records_for_test() {
  return g_heap_records.load(std::memory_order_relaxed);
}

// -- TaskPool -----------------------------------------------------------------

TaskPool::TaskPool(i32 members) {
  queues_.reserve(static_cast<std::size_t>(members));
  mailboxes_.reserve(static_cast<std::size_t>(members));
  for (i32 i = 0; i < members; ++i) {
    queues_.push_back(std::make_unique<WorkStealingDeque>());
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

TaskPool::~TaskPool() {
  // Normal joins drain every deque before the team dies, but reclaim any
  // stragglers so teardown never leaks parked tasks (the deque slots and
  // mailbox entries hold raw pointers the TaskPtr wrapper released).
  for (auto& queue : queues_) {
    while (Task* task = queue->pop()) TaskRecycler{}(task);
  }
  for (auto& mailbox : mailboxes_) {
    for (Task* task : mailbox->tasks) TaskRecycler{}(task);
    mailbox->tasks.clear();
  }
}

void TaskPool::set_victim_order(std::vector<i32> order) {
  const auto n = queues_.size();
  ZOMP_CHECK(order.empty() || order.size() == n * (n - 1),
             "victim-order table must be n x (n-1) or empty");
  victim_order_ = std::move(order);
}

TaskPtr TaskPool::push(i32 tid, TaskPtr task) {
  ZOMP_CHECK(tid >= 0 && tid < static_cast<i32>(queues_.size()),
             "task push from non-member thread");
  // `queued` seq_cst and counted before publishing: that increment is the
  // state change the join barrier's WaitGate park keys on (see queued()), so
  // it must land in the seq_cst total order before the waker's parked-flag
  // load.
  queued_.fetch_add(1, std::memory_order_seq_cst);
  if (queues_[static_cast<std::size_t>(tid)]->push(task.get())) {
    task.release();  // ownership parked in the deque until pop/steal
    return nullptr;
  }
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  return task;  // deque full: caller executes inline
}

void TaskPool::push_remote(i32 target, TaskPtr task) {
  ZOMP_CHECK(target >= 0 && target < static_cast<i32>(mailboxes_.size()),
             "task mailed to non-member thread");
  // Same counting discipline as push(): queued_ lands (seq_cst, for the
  // WaitGate park protocol) before the task is visible. No overflow path —
  // the mailbox is unbounded.
  queued_.fetch_add(1, std::memory_order_seq_cst);
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(target)];
  {
    const std::lock_guard<std::mutex> lock(mb.mu);
    mb.tasks.push_back(task.release());
  }
  mb.count.fetch_add(1, std::memory_order_release);
}

Task* TaskPool::mailbox_pop(i32 member) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(member)];
  // Advisory pre-filter, same contract as maybe_empty(): a stale zero only
  // delays discovery until the caller's queued_ re-check loops back here.
  if (mb.count.load(std::memory_order_relaxed) <= 0) return nullptr;
  const std::lock_guard<std::mutex> lock(mb.mu);
  if (mb.tasks.empty()) return nullptr;
  Task* task = mb.tasks.front();
  mb.tasks.pop_front();
  mb.count.fetch_sub(1, std::memory_order_relaxed);
  return task;
}

TaskPtr TaskPool::take(i32 tid) {
  const auto n = static_cast<i32>(queues_.size());
  ZOMP_CHECK(tid >= 0 && tid < n, "task take from non-member thread");
  // Own deque first, LIFO for locality.
  if (Task* task = queues_[static_cast<std::size_t>(tid)]->pop()) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return TaskPtr(task);
  }
  // Own mailbox next: tasks another member aimed specifically at us (the
  // place-aware taskloop spray) beat a cross-place steal.
  if (Task* task = mailbox_pop(tid)) {
    trace_emit(TraceEv::kMailboxPull, tid);
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return TaskPtr(task);
  }
  if (n <= 1) return nullptr;
  // Steal FIFO from siblings. With a victim-order table installed the scan
  // is hierarchical — same-place siblings first, then same core, same
  // socket, anywhere (each tier already rotated per-member by the builder).
  // Without one, fall back to the flat ring, but start it at a per-member
  // golden-ratio-hashed offset instead of tid+1: under single-producer
  // fan-out a fixed start makes every idle thief hammer the same victim's
  // top CAS in lockstep (convoying), and the stagger fans them out. A lost
  // CAS race just moves on to the next victim; the caller's retry loop
  // provides the backoff.
  const i32* order = victim_order_.empty()
                         ? nullptr
                         : victim_order_.data() +
                               static_cast<std::size_t>(tid) *
                                   static_cast<std::size_t>(n - 1);
  const i32 start =
      tid + 1 +
      static_cast<i32>((static_cast<u32>(tid) * 0x9E3779B9u) %
                       static_cast<u32>(n));
  i32 visited = 0;
  for (i32 k = 0; visited < n - 1; ++k) {
    i32 victim;
    if (order != nullptr) {
      victim = order[visited++];
    } else {
      victim = (start + k) % n;
      if (victim == tid) continue;
      ++visited;
    }
    WorkStealingDeque& q = *queues_[static_cast<std::size_t>(victim)];
    if (!q.maybe_empty()) {
      bool lost = false;
      Task* task = q.steal(&lost);
      trace_emit(TraceEv::kStealAttempt, victim, lost ? 1 : 0);
      if (task != nullptr) {
        trace_emit(TraceEv::kStealSuccess, victim);
        queued_.fetch_sub(1, std::memory_order_acq_rel);
        return TaskPtr(task);
      }
    }
    if (Task* task = mailbox_pop(victim)) {
      trace_emit(TraceEv::kMailboxPull, victim);
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return TaskPtr(task);
    }
  }
  return nullptr;
}

}  // namespace zomp::rt
