// Tasking tests: deferral, taskwait, taskgroup, nesting, barrier draining
// (the runtime's documented extension beyond the paper's scope), and the
// recycled task records behind them (DESIGN.md S1.3).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/fault.h"
#include "runtime/runtime.h"

namespace zomp {
namespace {

TEST(TaskTest, TasksRunByRegionEnd) {
  std::atomic<int> done{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 200; ++i) {
            task([&] { done.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(done.load(), 200);
}

TEST(TaskTest, TaskwaitWaitsForChildrenOnly) {
  std::atomic<int> children_done{0};
  std::atomic<bool> waited_ok{false};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 50; ++i) {
            task([&] { children_done.fetch_add(1); });
          }
          taskwait();
          waited_ok.store(children_done.load() == 50);
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(waited_ok.load());
}

TEST(TaskTest, NestedTasksCompleteViaBarrier) {
  std::atomic<int> grandchildren{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 10; ++i) {
            task([&] {
              for (int j = 0; j < 10; ++j) {
                task([&] { grandchildren.fetch_add(1); });
              }
            });
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(grandchildren.load(), 100);
}

TEST(TaskTest, TaskwaitDoesNotWaitForGrandchildren) {
  // taskwait waits on *children*; a child that spawns a grandchild counts as
  // complete when its body (incl. its own child-wait in this runtime's
  // strict-completion model) finishes. We assert only that taskwait returns
  // and the counters are eventually consistent at region end.
  std::atomic<int> total{0};
  parallel(
      [&] {
        single([&] {
          task([&] {
            task([&] { total.fetch_add(1); });
          });
          taskwait();
        });
      },
      ParallelOptions{2, true});
  EXPECT_EQ(total.load(), 1);
}

TEST(TaskTest, TaskgroupWaitsForDescendants) {
  std::atomic<int> inside{0};
  std::atomic<bool> group_saw_all{false};
  parallel(
      [&] {
        single([&] {
          taskgroup([&] {
            for (int i = 0; i < 20; ++i) {
              task([&] {
                task([&] { inside.fetch_add(1); });  // descendant joins group
              });
            }
          });
          group_saw_all.store(inside.load() == 20);
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(group_saw_all.load());
}

TEST(TaskTest, SerialTeamRunsTasksInline) {
  // Outside any parallel region (team of one) tasks execute immediately.
  int done = 0;
  rt::ThreadState& ts = rt::current_thread();
  ts.team->task_create(ts, [&] { ++done; });
  EXPECT_EQ(done, 1);
}

TEST(TaskTest, UndeferredTaskRunsImmediately) {
  std::atomic<int> order{0};
  int at_creation = -1;
  parallel(
      [&] {
        single([&] {
          order.store(1);
          rt::ThreadState& ts = rt::current_thread();
          ts.team->task_create(
              ts, [&] { at_creation = order.load(); }, /*deferred=*/false);
          order.store(2);
        });
      },
      ParallelOptions{2, true});
  EXPECT_EQ(at_creation, 1) << "undeferred task must run at creation point";
}

TEST(TaskTest, AllMembersCanCreateTasks) {
  std::atomic<int> done{0};
  std::atomic<int> members{0};
  parallel(
      [&] {
        members.fetch_add(1);
        for (int i = 0; i < 25; ++i) {
          task([&] { done.fetch_add(1); });
        }
      },
      ParallelOptions{4, true});
  // Every member's tasks ran. Only an injected spawn failure, in this region
  // or in an earlier one whose shrunken team is reused, may leave fewer than
  // the 4 members asked for.
  EXPECT_EQ(done.load(), 25 * members.load());
  if (rt::fault_injected_count(rt::FaultSite::kSpawn) == 0) {
    EXPECT_EQ(members.load(), 4);
  }
}

TEST(TaskTest, TasksSeeFirstprivateStyleCaptures) {
  // Captured-by-value state must be stable even though the creating frame
  // has moved on by the time the task runs.
  std::atomic<long> sum{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 100; ++i) {
            task([&sum, i] { sum.fetch_add(i); });
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(sum.load(), 99L * 100 / 2);
}

TEST(TaskAbiTest, CAbiTaskCopiesArgument) {
  struct Payload {
    int value;
    std::atomic<int>* sink;
  };
  std::atomic<int> sink{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 1; i <= 32; ++i) {
            Payload p{i, &sink};
            zomp_task(
                nullptr, 0,
                [](void* arg) {
                  auto* payload = static_cast<Payload*>(arg);
                  payload->sink->fetch_add(payload->value);
                },
                &p, sizeof p);
          }
          zomp_taskwait(nullptr, 0);
          EXPECT_EQ(sink.load(), 32 * 33 / 2);
        });
      },
      ParallelOptions{4, true});
}

TEST(TaskAbiTest, TaskgroupAbiCountsNestedDescendants) {
  // The generated-code route (zomp_taskgroup_begin/end) must propagate the
  // innermost live group to nested tasks exactly as hl.h's stack taskgroup
  // does — the reachability-asymmetry regression: a task spawned inside a
  // nested task inside the group IS counted before end returns.
  std::atomic<int> inside{0};
  std::atomic<bool> saw_all{false};
  parallel(
      [&] {
        single([&] {
          void* group = zomp_taskgroup_begin(nullptr, 0);
          for (int i = 0; i < 15; ++i) {
            task([&] {
              task([&] {
                task([&] { inside.fetch_add(1, std::memory_order_relaxed); });
              });
            });
          }
          zomp_taskgroup_end(nullptr, 0, group);
          saw_all.store(inside.load() == 15);
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(saw_all.load());
}

TEST(TaskAbiTest, TaskWithDepsAbiOrdersSiblings) {
  // An inout chain through the C ABI: strict serialisation, no locks.
  long acc = 0;
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 50; ++i) {
            struct Payload {
              long* acc;
            } p{&acc};
            zomp_depend_t dep{&acc, 3 /* inout */};
            zomp_task_with_deps(
                nullptr, 0,
                [](void* arg) {
                  long* a = static_cast<Payload*>(arg)->acc;
                  *a = *a * 2 + 1;
                },
                &p, sizeof p, &dep, 1, /*flags=*/0, /*priority=*/0);
          }
          zomp_taskwait(nullptr, 0);
        });
      },
      ParallelOptions{4, true});
  long expect = 0;
  for (int i = 0; i < 50; ++i) expect = expect * 2 + 1;
  EXPECT_EQ(acc, expect);
}

TEST(TaskAbiTest, TaskloopAbiCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(97);
  for (auto& h : hits) h.store(0);
  struct Payload {
    std::atomic<int>* hits;
  } p{hits.data()};
  parallel(
      [&] {
        single([&] {
          zomp_taskloop(
              nullptr, 0,
              [](std::int64_t lo, std::int64_t hi, void* arg) {
                auto* payload = static_cast<Payload*>(arg);
                for (std::int64_t i = lo; i < hi; ++i) {
                  payload->hits[i].fetch_add(1, std::memory_order_relaxed);
                }
              },
              &p, sizeof p, 0, 97, /*grainsize=*/5, /*num_tasks=*/0);
        });
      },
      ParallelOptions{4, true});
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskTest, UndeferredTaskWithDepsWaitsForPredecessors) {
  // if(false) + depend: the encountering thread must block (helping) until
  // the predecessor completes, then run inline.
  long token = 0;
  bool saw = false;
  parallel(
      [&] {
        single([&] {
          task_depend({dep_out(&token)}, [&] { token = 99; });
          rt::ThreadState& ts = rt::current_thread();
          rt::DepSpec dep = dep_in(&token);
          rt::TaskOpts opts;
          opts.deps = &dep;
          opts.ndeps = 1;
          opts.deferred = false;  // if(false)
          ts.team->task_create_ex(ts, [&] { saw = token == 99; }, opts);
          EXPECT_TRUE(saw) << "undeferred task must run at creation";
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(saw);
}

TEST(TaskPoolTest, StealingFindsWorkAcrossQueues) {
  rt::TaskPool pool(4);
  int executed = 0;
  rt::TaskContext parent;
  rt::TaskPtr t = rt::acquire_task_record();
  ASSERT_NE(t, nullptr);
  t->place([&] { ++executed; });
  t->parent = &parent;
  EXPECT_EQ(pool.push(/*tid=*/0, std::move(t)), nullptr)
      << "push below capacity must not reject";
  EXPECT_EQ(pool.queued(), 1);
  // A different member steals it.
  auto stolen = pool.take(/*tid=*/3);
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(pool.queued(), 0);
  stolen->run_body();
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(pool.take(1), nullptr);
}

// -- Task records ---------------------------------------------------------------

TEST(TaskRecordTest, LargeAbiPackRoundTripsByteExact) {
  // A pack larger than the inline capacity rides in the record's heap tail;
  // the caller scribbles over its own copy right after the call, so a task
  // that aliased the caller's pack instead of copying it would see garbage.
  struct Big {
    unsigned char bytes[3 * rt::kTaskInlinePack + 5];
    int seed;
    std::atomic<int>* good;
  };
  static_assert(sizeof(Big) > rt::kTaskInlinePack);
  auto fill = [](Big& b, int seed) {
    for (std::size_t k = 0; k < sizeof b.bytes; ++k) {
      b.bytes[k] = static_cast<unsigned char>(k * 31 + seed * 7 + 1);
    }
    b.seed = seed;
  };
  auto check = [](void* arg) {
    const auto* b = static_cast<const Big*>(arg);
    bool ok = reinterpret_cast<std::uintptr_t>(arg) % rt::kTaskPackAlign == 0;
    for (std::size_t k = 0; k < sizeof b->bytes; ++k) {
      ok = ok && b->bytes[k] == static_cast<unsigned char>(k * 31 + b->seed * 7 + 1);
    }
    if (ok) b->good->fetch_add(1, std::memory_order_relaxed);
  };
  constexpr int kTasks = 64;
  std::atomic<int> good{0};
  auto spawn_all = [&] {
    for (int i = 0; i < kTasks; ++i) {
      Big b;
      fill(b, i);
      b.good = &good;
      if (i % 2 == 0) {
        zomp_task(nullptr, 0, check, &b, sizeof b);
      } else {
        zomp_depend_t dep{&good, 3 /* inout */};
        zomp_task_with_deps(nullptr, 0, check, &b, sizeof b, &dep, 1,
                            /*flags=*/0, /*priority=*/0);
      }
      std::memset(b.bytes, 0xEE, sizeof b.bytes);
    }
    zomp_taskwait(nullptr, 0);
  };
  parallel([&] { single(spawn_all); }, ParallelOptions{4, true});
  EXPECT_EQ(good.load(), kTasks);
  good.store(0);
  spawn_all();  // serial team: undeferred, on a private copy of the pack
  EXPECT_EQ(good.load(), kTasks);
}

/// Counts constructions and destructions of a task closure's capture.
struct Lifetimes {
  std::atomic<int> made{0};
  std::atomic<int> destroyed{0};
};

struct Tracked {
  explicit Tracked(Lifetimes* l) : life(l) { life->made.fetch_add(1); }
  Tracked(const Tracked& other) : life(other.life) { life->made.fetch_add(1); }
  Tracked(Tracked&& other) noexcept : life(other.life) {
    life->made.fetch_add(1);
  }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { life->destroyed.fetch_add(1); }
  Lifetimes* life;
};

/// Runs `scenario` on member 0 of a two-member team while member 1 stays
/// outside every task scheduling point until it returns, so queued tasks
/// remain queued unless member 0 itself takes them. Returns false when the
/// scenario did not run deferred: the team shrank to one (injected spawn
/// failure) or a record allocation failed (injected alloc failure), so
/// tasks ran inline.
template <typename Scenario>
bool with_idle_sibling(Scenario&& scenario) {
  const rt::i64 faults = rt::fault_injected_count(rt::FaultSite::kAlloc);
  std::atomic<bool> go{false};
  std::atomic<int> members{0};
  parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        members.store(ts.team->size());
        if (ts.tid == 0) {
          scenario();
          go.store(true, std::memory_order_release);
        } else {
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        }
      },
      ParallelOptions{2, true});
  return members.load() == 2 &&
         rt::fault_injected_count(rt::FaultSite::kAlloc) == faults;
}

TEST(TaskRecordTest, ClosureDestroyedExactlyOnceOnEveryPath) {
  auto token = std::make_shared<int>(7);
  Lifetimes life;
  std::atomic<int> runs{0};
  auto spawn = [&] {
    task([token, probe = Tracked(&life), &runs] {
      runs.fetch_add(1, std::memory_order_relaxed);
    });
  };
  auto expect_released = [&](const char* path) {
    EXPECT_EQ(token.use_count(), 1) << path;
    EXPECT_EQ(life.made.load(), life.destroyed.load()) << path;
  };

  // Normal: deferred, stolen or popped, run.
  runs.store(0);
  parallel([&] {
    single([&] {
      for (int i = 0; i < 200; ++i) spawn();
      taskwait();
      expect_released("normal");
    });
  }, ParallelOptions{4, true});
  EXPECT_EQ(runs.load(), 200);

  // Discarded by `cancel taskgroup` before anyone could start it.
  rt::GlobalIcv::instance().set_cancellation(true);
  runs.store(0);
  const bool deferred = with_idle_sibling([&] {
    taskgroup([&] {
      for (int i = 0; i < 50; ++i) spawn();
      rt::ThreadState& ts = rt::current_thread();
      EXPECT_TRUE(ts.team->cancel_taskgroup(ts));
    });
    expect_released("cancel taskgroup");
  });
  rt::GlobalIcv::instance().set_cancellation(false);
  if (deferred) {
    EXPECT_EQ(runs.load(), 0);
  }

  // Deque overflow: past the deque's capacity the creator runs tasks inline.
  runs.store(0);
  const int overflow = static_cast<int>(rt::WorkStealingDeque::kCapacity) + 50;
  with_idle_sibling([&] {
    for (int i = 0; i < overflow; ++i) spawn();
    taskwait();
    expect_released("deque overflow");
  });
  EXPECT_EQ(runs.load(), overflow);

  // Parked on a dependence, then released by the predecessor's completion.
  runs.store(0);
  long x = 0;
  with_idle_sibling([&] {
    task_depend({dep_out(&x)}, [&x] { x = 1; });
    task_depend({dep_in(&x)}, [token, probe = Tracked(&life), &runs, &x] {
      if (x == 1) runs.fetch_add(1, std::memory_order_relaxed);
    });
    taskwait();
    expect_released("dependence park");
  });
  EXPECT_EQ(runs.load(), 1);
  expect_released("end");
}

TEST(TaskRecordTest, RecyclingBoundsRecordCountUnderStealing) {
  // One producer, three thieves: thieves return the producer's records to
  // its remote stack, and the producer reuses them. Without reuse the count
  // would grow by up to kTasks every round.
  constexpr int kRounds = 100;
  constexpr int kTasks = 10000;
  const auto before = rt::task_records_for_test();
  std::atomic<long> done{0};
  for (int round = 0; round < kRounds; ++round) {
    parallel([&] {
      // The master produces (not `single`): records live in their
      // allocating thread's cache, and this test watches one producer's.
      if (rt::current_thread().tid != 0) return;
      for (int i = 0; i < kTasks; ++i) {
        task([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
    }, ParallelOptions{4, true});
  }
  EXPECT_EQ(done.load(), long{kRounds} * kTasks);
  EXPECT_LE(rt::task_records_for_test() - before,
            kTasks + rt::WorkStealingDeque::kCapacity);
}

TEST(TaskRecordTest, RecordsOfExitedMasterThreadsAreFreedSafely) {
  // Each short-lived master allocates records that pool workers execute and
  // return after the master's thread is gone. Its cache must be freed
  // exactly once, whichever side finishes last (ASan/TSan jobs check the
  // "must not touch freed memory" half).
  const auto before = rt::task_records_for_test();
  std::atomic<int> done{0};
  for (int k = 0; k < 8; ++k) {
    std::thread([&] {
      parallel([&] {
        if (rt::current_thread().tid != 0) return;  // the master produces
        for (int i = 0; i < 2000; ++i) {
          task([&done] { done.fetch_add(1, std::memory_order_relaxed); });
        }
      }, ParallelOptions{4, true});
    }).join();
  }
  EXPECT_EQ(done.load(), 8 * 2000);
  EXPECT_EQ(rt::task_records_for_test(), before);
}

/// Spawns a binary task tree of the given depth below the current task;
/// every node busy-works for about 20 us.
void spawn_tree(std::atomic<int>* done, int depth) {
  task([done, depth] {
    if (depth > 0) {
      spawn_tree(done, depth - 1);
      spawn_tree(done, depth - 1);
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    done->fetch_add(1, std::memory_order_relaxed);
  });
}

TEST(TaskTest, TasksSpawnedInsideBarrierFinishBeforeAnyMemberLeaves) {
  // Member 0 creates only the roots and heads straight for the barrier; the
  // rest of each tree is created by tasks the barrier's members are
  // draining. The other members arrive later, so the last arriver is not
  // the roots' parent. No member may leave while any of it is unfinished.
  constexpr int kRoots = 16;
  constexpr int kDepth = 6;
  constexpr int kTotal = kRoots * ((1 << (kDepth + 1)) - 1);
  std::atomic<int> done{0};
  std::atomic<bool> spawned{false};
  std::array<int, 4> seen{};
  std::atomic<int> members{0};
  parallel([&] {
    rt::ThreadState& ts = rt::current_thread();
    members.store(ts.team->size());
    if (ts.tid == 0) {
      for (int r = 0; r < kRoots; ++r) spawn_tree(&done, kDepth);
      spawned.store(true, std::memory_order_release);
    } else {
      while (!spawned.load(std::memory_order_acquire)) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)barrier();
    seen[static_cast<std::size_t>(ts.tid)] = done.load();
  }, ParallelOptions{4, true});
  for (int m = 0; m < members.load(); ++m) EXPECT_EQ(seen[m], kTotal) << m;
}

}  // namespace
}  // namespace zomp
