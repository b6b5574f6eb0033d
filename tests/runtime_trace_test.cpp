// S12 observability tests: the OMPT-style tool callback interface, the
// per-thread trace rings + Chrome-JSON serialization, the metrics registry,
// and the team_stats surfaces (C++, C ABI, MiniZig host fn), plus every
// mz_omp_* routine run from MiniZig through both backends.
//
// Global-state hygiene: every fixture resets the tracer/metrics state it
// touches, and callback tests unregister every event in TearDown, so suites
// compose in one binary regardless of order.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "interp/interp.h"
#include "npb/cg.h"
#include "omp_queries_mz.h"
#include "runtime/abi.h"
#include "runtime/api.h"
#include "runtime/hl.h"
#include "runtime/metrics.h"
#include "runtime/team.h"
#include "runtime/trace.h"

#ifndef ZOMP_SOURCE_DIR
#define ZOMP_SOURCE_DIR "."
#endif

namespace zomp {
namespace {

using rt::TraceEv;

// ---------------------------------------------------------------------------
// Chrome-JSON micro-parser. The serializer's record shape is fixed
// ({"name":"..","ph":"X",...,"pid":N,"tid":N,...}), so a field scan is
// enough to validate the schema without a JSON library.
// ---------------------------------------------------------------------------

struct JsonEv {
  std::string name;
  char ph = '?';
  double ts = -1.0;
  int pid = -1;
  int tid = -1;
};

std::vector<JsonEv> parse_trace_events(const std::string& json) {
  std::vector<JsonEv> out;
  size_t pos = 0;
  const std::string name_key = "{\"name\":\"";
  while ((pos = json.find(name_key, pos)) != std::string::npos) {
    JsonEv ev;
    size_t p = pos + name_key.size();
    const size_t name_end = json.find('"', p);
    ev.name = json.substr(p, name_end - p);
    const size_t ph_pos = json.find("\"ph\":\"", name_end);
    ev.ph = json[ph_pos + 6];
    const size_t obj_end = json.find("}}", name_end);
    const std::string obj = json.substr(pos, obj_end + 2 - pos);
    if (const size_t ts_pos = obj.find("\"ts\":"); ts_pos != std::string::npos) {
      ev.ts = std::stod(obj.substr(ts_pos + 5));
    }
    if (const size_t pid_pos = obj.find("\"pid\":");
        pid_pos != std::string::npos) {
      ev.pid = std::stoi(obj.substr(pid_pos + 6));
    }
    // First "tid" key only: the args object repeats the team-local tid.
    if (const size_t tid_pos = obj.find("\"tid\":");
        tid_pos != std::string::npos) {
      ev.tid = std::stoi(obj.substr(tid_pos + 6));
    }
    out.push_back(std::move(ev));
    pos = obj_end;
  }
  return out;
}

/// Checks balanced, never-negative B/E nesting per (tid, name). Events
/// within one tid come from one ring in emit order, so a running depth is
/// meaningful.
void expect_paired(const std::vector<JsonEv>& events,
                   const std::string& name) {
  std::map<int, int> depth;
  for (const JsonEv& ev : events) {
    if (ev.name != name) continue;
    if (ev.ph == 'B') {
      ++depth[ev.tid];
    } else if (ev.ph == 'E') {
      --depth[ev.tid];
      EXPECT_GE(depth[ev.tid], 0)
          << "unmatched '" << name << "' E on tid " << ev.tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced '" << name << "' on tid " << tid;
  }
}

// ---------------------------------------------------------------------------
// Ring recording + Chrome JSON
// ---------------------------------------------------------------------------

class TraceRingTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::trace_reset_for_test(); }
  void TearDown() override { rt::trace_reset_for_test(); }
};

TEST_F(TraceRingTest, DisabledModeEmitsNothing) {
  const std::string before = rt::trace_serialize_json();
  rt::trace_emit(TraceEv::kTaskCreate, 1, 2);
  parallel([] {}, ParallelOptions{2, true});
  EXPECT_EQ(rt::trace_serialize_json(), before);
}

TEST_F(TraceRingTest, SerializedJsonHasSchemaAndPairing) {
  rt::trace_enable_ring_for_test();
  parallel(
      [] {
        for_each(0, 64, [](rt::i64) {},
                 ForOptions{{rt::ScheduleKind::kDynamic, 4}, false});
        single([] {
          for (int i = 0; i < 8; ++i) task([] {});
        });
        barrier();
      },
      ParallelOptions{4, true});
  const std::string json = rt::trace_serialize_json();
  ASSERT_EQ(json.substr(0, 16), "{\"traceEvents\":[");
  ASSERT_EQ(json.substr(json.size() - 2), "]}");

  const std::vector<JsonEv> events = parse_trace_events(json);
  ASSERT_FALSE(events.empty());
  std::set<int> implicit_tids;
  int parallel_b = 0, dispatch_claims = 0, task_b = 0, barrier_b = 0;
  for (const JsonEv& ev : events) {
    // Schema: every record carries name/ph/pid/tid; non-metadata records
    // carry a non-negative timestamp.
    EXPECT_FALSE(ev.name.empty());
    EXPECT_TRUE(ev.ph == 'B' || ev.ph == 'E' || ev.ph == 'i' || ev.ph == 'M')
        << ev.ph;
    EXPECT_GE(ev.pid, 0);
    if (ev.ph != 'M') {
      // process_name metadata has no tid lane; every real record does.
      EXPECT_GE(ev.tid, 0);
      EXPECT_GE(ev.ts, 0.0) << ev.name;
    }
    if (ev.name == "implicit task" && ev.ph == 'B') implicit_tids.insert(ev.tid);
    if (ev.name == "parallel" && ev.ph == 'B') ++parallel_b;
    if (ev.name == "chunk claim") ++dispatch_claims;
    if (ev.name == "task" && ev.ph == 'B') ++task_b;
    if (ev.name == "barrier" && ev.ph == 'B') ++barrier_b;
  }
  EXPECT_EQ(parallel_b, 1);
  EXPECT_EQ(implicit_tids.size(), 4u) << "every member an implicit task";
  // The sharded dynamic dispatcher serves slabs, not fixed chunks, so the
  // claim count is workload-dependent; at least one claim must appear.
  EXPECT_GE(dispatch_claims, 1);
  EXPECT_EQ(task_b, 8);
  EXPECT_GE(barrier_b, 4);
  for (const char* name : {"parallel", "implicit task", "barrier", "task"}) {
    expect_paired(events, name);
  }
}

TEST_F(TraceRingTest, NpbCgClassSTraceIsWellFormedOnEveryMember) {
  // The acceptance scenario: a class-S NPB kernel at 4 threads under
  // tracing must serialize to parseable Chrome JSON with paired B/E for
  // parallel / implicit task / barrier on every member.
  rt::trace_enable_ring_for_test();
  const npb::CgClass cls = npb::cg_class('S');
  const npb::SparseMatrix a = npb::cg_make_matrix(cls.na, cls.nonzer);
  const npb::CgResult r = npb::cg_parallel(a, cls.niter, cls.shift, 4);
  EXPECT_TRUE(npb::cg_verify(r, cls)) << r.zeta;

  // Pairing is only meaningful when nothing overflowed: a dropped E would
  // read as an unbalanced lane, not a tracer bug.
  ASSERT_EQ(rt::trace_dropped_total(), 0u);

  const std::vector<JsonEv> events =
      parse_trace_events(rt::trace_serialize_json());
  std::set<int> members;
  for (const JsonEv& ev : events) {
    if (ev.name == "implicit task" && ev.ph == 'B') members.insert(ev.tid);
  }
  EXPECT_GE(members.size(), 4u);
  for (const char* name : {"parallel", "implicit task", "barrier", "task"}) {
    expect_paired(events, name);
  }
}

TEST_F(TraceRingTest, FullRingCountsDropsInsteadOfWrapping) {
  rt::trace_enable_ring_for_test();
  rt::trace_set_ring_capacity_for_test(8);
  const rt::u64 before = rt::trace_dropped_total();
  // Capacity overrides bind at ring registration, so a fresh thread (fresh
  // ring) is needed; the pool's long-lived rings keep the default size.
  std::thread t([] {
    for (int i = 0; i < 50; ++i) {
      rt::trace_emit(TraceEv::kTaskCreate, i, 0);
    }
  });
  t.join();
  EXPECT_EQ(rt::trace_dropped_total() - before, 42u);
}

TEST_F(TraceRingTest, ConcurrentTeamsAndMidRegionDrainAreRaceFree) {
  // Two user threads fork independent teams while this thread drains the
  // rings mid-flight: the owner-write/acquire-drain discipline must keep
  // this TSan-clean, with the drain merely missing in-flight records.
  rt::trace_enable_ring_for_test();
  std::atomic<int> regions_left{2};
  auto driver = [&regions_left] {
    for (int i = 0; i < 20; ++i) {
      parallel(
          [] {
            for_each(0, 32, [](rt::i64) {},
                     ForOptions{{rt::ScheduleKind::kDynamic, 1}, false});
            single([] {
              for (int k = 0; k < 4; ++k) task([] {});
            });
          },
          ParallelOptions{2, true});
    }
    regions_left.fetch_sub(1, std::memory_order_relaxed);
  };
  std::thread t1(driver);
  std::thread t2(driver);
  while (regions_left.load(std::memory_order_relaxed) > 0) {
    (void)rt::trace_serialize_json();
    (void)rt::trace_dropped_total();
    std::this_thread::yield();
  }
  t1.join();
  t2.join();
  const std::vector<JsonEv> events =
      parse_trace_events(rt::trace_serialize_json());
  // Quiescent now: the full trace is published and balanced.
  for (const char* name : {"parallel", "implicit task", "barrier", "task"}) {
    expect_paired(events, name);
  }
}

TEST_F(TraceRingTest, WriteJsonRoundTripsThroughAFile) {
  rt::trace_enable_ring_for_test();
  parallel([] { barrier(); }, ParallelOptions{2, true});
  const std::string path = ::testing::TempDir() + "zomp_trace_roundtrip.json";
  ASSERT_TRUE(rt::trace_write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  // Each serialization re-calibrates the TSC tick rate, so timestamps
  // wobble at sub-microsecond scale between drains; the event structure is
  // what round-trips.
  const std::vector<JsonEv> a = parse_trace_events(text);
  const std::vector<JsonEv> b = parse_trace_events(rt::trace_serialize_json());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].ph, b[i].ph);
    EXPECT_EQ(a[i].pid, b[i].pid);
    EXPECT_EQ(a[i].tid, b[i].tid);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tool callback interface (zomp_start_tool / zomp_set_callback)
// ---------------------------------------------------------------------------

/// Event collector shared by the registered callbacks. A leaf mutex: the
/// callbacks run synchronously on emitting threads, and nothing is locked
/// while it is held.
struct Collector {
  std::mutex mu;
  std::vector<std::pair<std::int32_t, std::int32_t>> events;  // (event, gtid)

  void record(std::int32_t event, std::int32_t gtid) {
    std::lock_guard<std::mutex> lock(mu);
    events.emplace_back(event, gtid);
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return events;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu);
    events.clear();
  }
  int count(std::int32_t event) {
    std::lock_guard<std::mutex> lock(mu);
    int n = 0;
    for (const auto& [ev, gtid] : events) n += ev == event ? 1 : 0;
    return n;
  }
};

Collector& collector() {
  static Collector c;
  return c;
}

void collecting_callback(std::int32_t event, std::int32_t gtid,
                         std::int32_t /*tid*/, std::int64_t /*arg0*/,
                         std::int64_t /*arg1*/, void* /*tool_data*/) {
  collector().record(event, gtid);
}

class ToolCallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    collector().clear();
    for (std::int32_t ev = 0; ev < ZOMP_EV_COUNT; ++ev) {
      ASSERT_EQ(zomp_set_callback(ev, &collecting_callback), 1);
    }
  }
  void TearDown() override {
    for (std::int32_t ev = 0; ev < ZOMP_EV_COUNT; ++ev) {
      zomp_set_callback(ev, nullptr);
    }
    collector().clear();
  }
};

TEST_F(ToolCallbackTest, RegistrationRoundTripsAndRejectsBadEvents) {
  EXPECT_EQ(zomp_get_callback(ZOMP_EV_PARALLEL_BEGIN), &collecting_callback);
  EXPECT_EQ(zomp_set_callback(-1, &collecting_callback), 0);
  EXPECT_EQ(zomp_set_callback(ZOMP_EV_COUNT, &collecting_callback), 0);
  EXPECT_EQ(zomp_get_callback(-1), nullptr);
  EXPECT_EQ(zomp_get_callback(ZOMP_EV_COUNT), nullptr);
}

TEST_F(ToolCallbackTest, StartToolRunsInitializerAndDeliversToolData) {
  static std::atomic<void*> seen_data{nullptr};
  static int dummy = 0;
  auto init = [](void* data) -> std::int32_t {
    seen_data.store(data, std::memory_order_relaxed);
    return 1;
  };
  EXPECT_EQ(zomp_start_tool(init, &dummy), 1);
  EXPECT_EQ(seen_data.load(std::memory_order_relaxed), &dummy);

  // The registered tool_data rides into every callback.
  static std::atomic<void*> cb_data{nullptr};
  zomp_set_callback(ZOMP_EV_PARALLEL_BEGIN,
                    [](std::int32_t, std::int32_t, std::int32_t, std::int64_t,
                       std::int64_t, void* tool_data) {
                      cb_data.store(tool_data, std::memory_order_relaxed);
                    });
  parallel([] {}, ParallelOptions{2, true});
  EXPECT_EQ(cb_data.load(std::memory_order_relaxed), &dummy);
  // A refused initializer reports failure but leaves callbacks alone.
  EXPECT_EQ(zomp_start_tool([](void*) -> std::int32_t { return 0; }, nullptr),
            0);
}

TEST_F(ToolCallbackTest, CppRegionDeliversTheFullEventSequence) {
  parallel(
      [] {
        for_each(0, 64, [](rt::i64) {},
                 ForOptions{{rt::ScheduleKind::kDynamic, 4}, false});
        single([] {
          for (int i = 0; i < 6; ++i) task([] {});
        });
        barrier();
      },
      ParallelOptions{4, true});

  const auto events = collector().snapshot();
  ASSERT_FALSE(events.empty());
  // The fork brackets everything: first event is parallel-begin, last is
  // parallel-end (both emitted by the master).
  EXPECT_EQ(events.front().first, ZOMP_EV_PARALLEL_BEGIN);
  EXPECT_EQ(events.back().first, ZOMP_EV_PARALLEL_END);
  EXPECT_EQ(collector().count(ZOMP_EV_PARALLEL_BEGIN), 1);
  EXPECT_EQ(collector().count(ZOMP_EV_PARALLEL_END), 1);
  EXPECT_EQ(collector().count(ZOMP_EV_IMPLICIT_TASK_BEGIN), 4);
  EXPECT_EQ(collector().count(ZOMP_EV_IMPLICIT_TASK_END), 4);
  EXPECT_EQ(collector().count(ZOMP_EV_DISPATCH_INIT), 4);
  EXPECT_GE(collector().count(ZOMP_EV_DISPATCH_CLAIM), 1);
  EXPECT_EQ(collector().count(ZOMP_EV_TASK_CREATE), 6);
  EXPECT_EQ(collector().count(ZOMP_EV_TASK_SCHEDULE), 6);
  EXPECT_EQ(collector().count(ZOMP_EV_TASK_COMPLETE), 6);
  EXPECT_GE(collector().count(ZOMP_EV_BARRIER_ENTER), 4);
  EXPECT_EQ(collector().count(ZOMP_EV_BARRIER_ENTER),
            collector().count(ZOMP_EV_BARRIER_WAIT_END));
}

TEST_F(ToolCallbackTest, InterpBackendDeliversTheSameEventClasses) {
  // The other backend: the same runtime hooks fire when a MiniZig program
  // executes on the interpreter's real threads.
  const std::string source = R"(
pub fn main() void {
  var sum: i64 = 0;
  //#omp parallel num_threads(4)
  {
    //#omp for reduction(+: sum) schedule(dynamic, 4)
    for (0..64) |i| {
      sum = sum + i;
    }
  }
  @print(sum);
}
)";
  core::CompileOptions options;
  options.openmp = true;
  auto result = core::compile_source(source, options);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  std::ostringstream out;
  interp::InterpOptions iopts;
  iopts.out = &out;
  interp::Interp interp(*result.module, iopts);
  ASSERT_TRUE(interp.run_main());
  EXPECT_EQ(out.str(), "2016\n");

  EXPECT_EQ(collector().count(ZOMP_EV_PARALLEL_BEGIN), 1);
  EXPECT_EQ(collector().count(ZOMP_EV_PARALLEL_END), 1);
  EXPECT_EQ(collector().count(ZOMP_EV_IMPLICIT_TASK_BEGIN), 4);
  EXPECT_EQ(collector().count(ZOMP_EV_IMPLICIT_TASK_END), 4);
  EXPECT_GE(collector().count(ZOMP_EV_DISPATCH_CLAIM), 1);
  EXPECT_GE(collector().count(ZOMP_EV_BARRIER_ENTER), 4);
  EXPECT_EQ(collector().count(ZOMP_EV_BARRIER_ENTER),
            collector().count(ZOMP_EV_BARRIER_WAIT_END));
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt::metrics_reset_for_test();
    rt::metrics_set_enabled_for_test(true);
  }
  void TearDown() override {
    rt::metrics_set_enabled_for_test(false);
    rt::metrics_reset_for_test();
  }
};

TEST_F(MetricsTest, RegionWorkloadsFeedTheCounters) {
  parallel(
      [] {
        for_each(0, 256, [](rt::i64) {},
                 ForOptions{{rt::ScheduleKind::kDynamic, 4}, false});
        single([] {
          for (int i = 0; i < 16; ++i) task([] {});
        });
        barrier();
      },
      ParallelOptions{4, true});

  EXPECT_GE(rt::metrics_value(rt::Metric::kParallelRegions), 1u);
  EXPECT_GE(rt::metrics_value(rt::Metric::kBarrierEpisodes), 4u);
  EXPECT_GE(rt::metrics_value(rt::Metric::kDispatchClaims), 1u);
  EXPECT_GE(rt::metrics_value(rt::Metric::kTasksExecuted), 16u);
  EXPECT_GE(rt::metrics_value(rt::Metric::kHotTeamHits) +
                rt::metrics_value(rt::Metric::kHotTeamRebuilds),
            1u);

  // Every dispatch claim lands in exactly one shard lane.
  rt::u64 shard_sum = 0;
  for (rt::i32 s = 0; s < rt::kMetricsMaxShards; ++s) {
    shard_sum += rt::metrics_shard_claims(s);
  }
  EXPECT_EQ(shard_sum, rt::metrics_value(rt::Metric::kDispatchClaims));
}

TEST_F(MetricsTest, BarrierWaitTimeAccumulates) {
  parallel(
      [] {
        // Skew arrival so someone measurably waits.
        if (rt::current_thread().tid == 0) {
          const double t0 = wtime();
          while (wtime() - t0 < 0.005) {
          }
        }
        barrier();
      },
      ParallelOptions{4, true});
  EXPECT_GT(rt::metrics_value(rt::Metric::kBarrierWaitNs), 0u);
}

TEST_F(MetricsTest, NestedRegionInsideABarrierTimesEachEpisode) {
  // A task drained at the outer barrier forks a nested region, whose
  // barriers open and close inside that thread's outer episode. B/E records
  // must pair per gtid, and a clobbered or zeroed enter stamp would push the
  // summed wait past (member slots) x (wall time).
  const int saved_levels = get_max_active_levels();
  set_max_active_levels(2);
  rt::trace_reset_for_test();
  rt::trace_enable_ring_for_test();
  std::atomic<int> nested_runs{0};
  const double t0 = wtime();
  parallel(
      [&] {
        single(
            [&] {
              task([&] {
                parallel(
                    [&] {
                      barrier();
                      nested_runs.fetch_add(1, std::memory_order_relaxed);
                    },
                    ParallelOptions{2, true});
              });
            },
            /*barrier_after=*/false);
        barrier();
      },
      ParallelOptions{2, true});
  const double elapsed_ns = (wtime() - t0) * 1e9;
  const std::vector<JsonEv> events =
      parse_trace_events(rt::trace_serialize_json());
  rt::trace_reset_for_test();
  set_max_active_levels(saved_levels);

  EXPECT_EQ(nested_runs.load(), 2);
  expect_paired(events, "barrier");
  // Outer (2) + nested (2) member slots, each at most one wall interval.
  constexpr double kMemberSlots = 4;
  const rt::u64 wait_ns = rt::metrics_value(rt::Metric::kBarrierWaitNs);
  EXPECT_LE(static_cast<double>(wait_ns), kMemberSlots * elapsed_ns);
  // Two outer episodes per outer member, two nested ones per nested member.
  EXPECT_EQ(rt::metrics_value(rt::Metric::kBarrierEpisodes), 8u);
}

TEST_F(MetricsTest, ReportIsFencedAndListsEveryCounter) {
  parallel([] { barrier(); }, ParallelOptions{2, true});
  const std::string report = rt::metrics_report();
  EXPECT_EQ(report.rfind("ZOMP METRICS REPORT BEGIN\n", 0), 0u) << report;
  EXPECT_NE(report.find("ZOMP METRICS REPORT END\n"), std::string::npos);
  for (const char* name :
       {"parallel_regions", "hot_team_hits", "hot_team_rebuilds",
        "barrier_episodes", "barrier_wait_ns", "dispatch_claims",
        "tasks_executed", "tasks_stolen", "tasks_mailbox_pulled",
        "steal_attempts", "steal_lost", "cancellations_observed",
        "faults_injected"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST_F(MetricsTest, DisabledModeCountsNothing) {
  rt::metrics_set_enabled_for_test(false);
  parallel(
      [] {
        for_each(0, 64, [](rt::i64) {},
                 ForOptions{{rt::ScheduleKind::kDynamic, 4}, false});
      },
      ParallelOptions{2, true});
  for (rt::i32 m = 0; m < static_cast<rt::i32>(rt::Metric::kCount); ++m) {
    EXPECT_EQ(rt::metrics_value(static_cast<rt::Metric>(m)), 0u);
  }
}

// ---------------------------------------------------------------------------
// team_stats surfaces
// ---------------------------------------------------------------------------

TEST(TeamStatsTest, RegionWorkIsVisibleFromInsideTheRegion) {
  TeamStats st{};
  zomp_team_stats_t abi_st{};
  std::atomic<bool> read_done{false};
  // Per-team counts accumulate only while the metrics consumer is on.
  rt::metrics_set_enabled_for_test(true);
  parallel(
      [&] {
        for_each(0, 128, [](rt::i64) {},
                 ForOptions{{rt::ScheduleKind::kDynamic, 2}, false});
        single([] {
          for (int i = 0; i < 8; ++i) task([] {});
        });
        barrier();
        // Quiescent-read window: the barrier ordered all member counter
        // writes before this point, and non-masters hold off on the join
        // barrier (whose episode counts would race) until the master has
        // read.
        if (rt::current_thread().tid == 0) {
          st = team_stats();
          zomp_team_stats(&abi_st);
          read_done.store(true, std::memory_order_release);
        } else {
          while (!read_done.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
      },
      ParallelOptions{4, true});
  rt::metrics_set_enabled_for_test(false);

  EXPECT_GE(st.dispatch_claims, 1);
  EXPECT_GE(st.tasks_executed, 8);
  EXPECT_GE(st.barrier_episodes, 4);
  // The ABI twin reads the same aggregate.
  EXPECT_EQ(abi_st.steal_attempts, st.steal_attempts);
  EXPECT_EQ(abi_st.steal_lost, st.steal_lost);
  EXPECT_EQ(abi_st.mailbox_pulls, st.mailbox_pulls);
  EXPECT_EQ(abi_st.tasks_executed, st.tasks_executed);
  EXPECT_EQ(abi_st.dispatch_claims, st.dispatch_claims);
  EXPECT_EQ(abi_st.barrier_episodes, st.barrier_episodes);
}

TEST(TeamStatsTest, AbiGuardsNullAndMzTwinBoundsWhich) {
  zomp_team_stats(nullptr);  // must not crash
  EXPECT_EQ(mz_omp_team_stat(-1), 0);
  EXPECT_EQ(mz_omp_team_stat(6), 0);
  for (std::int64_t which = 0; which < 6; ++which) {
    EXPECT_GE(mz_omp_team_stat(which), 0) << which;
  }
}

std::string read_kernel(const char* name) {
  const std::string path =
      std::string(ZOMP_SOURCE_DIR) + "/src/npb/kernels/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(TeamStatsTest, MzHostFnsAreCallableFromMiniZig) {
  // Every mz_omp_* routine abi.h declares, called by omp_queries.mz in both
  // backends: interpreted (a routine without a host binding aborts the
  // program) and transpiled by the build (a generated extern "C"
  // declaration that disagrees with abi.h does not compile).
  auto result = core::compile_source(read_kernel("omp_queries.mz"),
                                     {true, "omp_queries_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  interp::Interp interp(*result.module);
  constexpr std::int64_t kQueries = 22;
  const auto interpreted = [&](const char* fn) {
    interp::SliceVal out;
    out.data = std::make_shared<std::vector<interp::Value>>(
        static_cast<std::size_t>(kQueries), interp::Value(std::int64_t{-99}));
    interp.call_by_name(fn, {interp::Value(out)});
    std::vector<std::int64_t> answers;
    for (const interp::Value& v : *out.data) answers.push_back(v.as_i64());
    return answers;
  };
  const auto native = [&](void (*fn)(mz::Slice<std::int64_t>)) {
    std::vector<std::int64_t> answers(static_cast<std::size_t>(kQueries), -99);
    fn(mz::Slice<std::int64_t>{answers.data(), kQueries});
    return answers;
  };

  // Outside any region: thread 0 of a one-member level-0 team. Index 5 and
  // 16 pass 1<<32, which must be rejected rather than wrapped to 0, and 8
  // and 10 check that the wrapped setters left their ICVs alone.
  // trace_flush (18) returns 0: tracing is not file-backed in this test.
  const std::int64_t prio = zomp_get_max_task_priority();
  const std::int64_t cancel = zomp_get_cancellation();
  const std::int64_t dynamic = zomp_get_dynamic();
  const std::vector<std::int64_t> serial = {
      0, 1, 0, 0, 1, -1, 1, 1, 1, prio, 1, 1, 1, 1, 1, 1, 0, cancel, 0, 1,
      0, dynamic};
  EXPECT_EQ(interpreted("queries_run"), serial);
  EXPECT_EQ(native(&mzgen_omp_queries_mz::queries_run), serial);

  // From the primary thread of a 4-thread team at level 1.
  std::vector<std::int64_t> in_region = serial;
  in_region[1] = 4;  // num_threads
  in_region[2] = 1;  // in_parallel
  in_region[3] = 1;  // level
  in_region[4] = 4;  // team_size(level)
  in_region[20] = 1;  // active_level
  EXPECT_EQ(interpreted("region_run"), in_region);
  EXPECT_EQ(native(&mzgen_omp_queries_mz::region_run), in_region);
}

}  // namespace
}  // namespace zomp
