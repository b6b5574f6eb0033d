#include "runtime/metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "runtime/env.h"
#include "runtime/fault.h"
#include "runtime/team.h"

namespace zomp::rt {
namespace {

std::atomic<u64> g_counters[static_cast<i32>(Metric::kCount)] = {};
std::atomic<u64> g_shard_claims[kMetricsMaxShards] = {};
std::atomic<bool> g_atexit_registered{false};

/// Enter stamps of this thread's open barrier episodes, innermost last. A
/// stack, not one slot: a task drained inside a barrier may fork a nested
/// region whose join barrier opens and closes before the outer one ends.
thread_local std::vector<u64> tls_wait_stamps;

u64 monotonic_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void bump(MemberCounts& mine, Metric m, u64 delta = 1) noexcept {
  const auto i = static_cast<i32>(m);
  g_counters[i].fetch_add(delta, std::memory_order_relaxed);
  mine.v[i] += delta;
}

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kParallelRegions: return "parallel_regions";
    case Metric::kHotTeamHits: return "hot_team_hits";
    case Metric::kHotTeamRebuilds: return "hot_team_rebuilds";
    case Metric::kBarrierEpisodes: return "barrier_episodes";
    case Metric::kBarrierWaitNs: return "barrier_wait_ns";
    case Metric::kDispatchClaims: return "dispatch_claims";
    case Metric::kTasksExecuted: return "tasks_executed";
    case Metric::kTasksStolen: return "tasks_stolen";
    case Metric::kMailboxPulls: return "tasks_mailbox_pulled";
    case Metric::kStealAttempts: return "steal_attempts";
    case Metric::kStealLost: return "steal_lost";
    case Metric::kCancellations: return "cancellations_observed";
    case Metric::kCount: break;
  }
  return "unknown";
}

void atexit_report() {
  std::fputs(metrics_report().c_str(), stderr);
}

}  // namespace

namespace metrics_detail {

void consume(TraceEv ev, i64 arg0, i64 arg1, i32 lane,
             ThreadState& ts) noexcept {
  MemberCounts& mine = ts.team->member_counts(ts.tid);
  switch (ev) {
    case TraceEv::kParallelBegin:
      bump(mine, Metric::kParallelRegions);
      break;
    case TraceEv::kHotTeam:
      bump(mine, arg0 != 0 ? Metric::kHotTeamHits : Metric::kHotTeamRebuilds);
      break;
    case TraceEv::kBarrierEnter:
      bump(mine, Metric::kBarrierEpisodes);
      tls_wait_stamps.push_back(monotonic_ns());
      break;
    case TraceEv::kBarrierWaitEnd:
      // No stamp: the consumer was armed mid-episode; skip the partial wait.
      if (!tls_wait_stamps.empty()) {
        bump(mine, Metric::kBarrierWaitNs,
             monotonic_ns() - tls_wait_stamps.back());
        tls_wait_stamps.pop_back();
      }
      break;
    case TraceEv::kDispatchClaim:
      bump(mine, Metric::kDispatchClaims);
      g_shard_claims[std::clamp(lane, 0, kMetricsMaxShards - 1)].fetch_add(
          1, std::memory_order_relaxed);
      break;
    case TraceEv::kTaskComplete:
      bump(mine, Metric::kTasksExecuted);
      break;
    case TraceEv::kStealAttempt:
      bump(mine, Metric::kStealAttempts);
      if (arg1 != 0) bump(mine, Metric::kStealLost);
      break;
    case TraceEv::kStealSuccess:
      bump(mine, Metric::kTasksStolen);
      break;
    case TraceEv::kMailboxPull:
      bump(mine, Metric::kMailboxPulls);
      break;
    case TraceEv::kCancel:
      bump(mine, Metric::kCancellations);
      break;
    default:
      break;
  }
}

}  // namespace metrics_detail

void metrics_init_from_env() {
  // env_bool warns through warn_malformed_env on unparseable values and
  // falls back to the default (off), so a bad ZOMP_METRICS degrades to the
  // zero-cost path rather than failing startup.
  if (!env_bool("METRICS").value_or(false)) return;
  trace_detail::set_active(trace_detail::kActiveCounters, true);
  if (!g_atexit_registered.exchange(true)) std::atexit(atexit_report);
}

u64 metrics_value(Metric m) noexcept {
  if (m < Metric::kParallelRegions || m >= Metric::kCount) return 0;
  return g_counters[static_cast<i32>(m)].load(std::memory_order_relaxed);
}

u64 metrics_shard_claims(i32 shard) noexcept {
  if (shard < 0 || shard >= kMetricsMaxShards) return 0;
  return g_shard_claims[shard].load(std::memory_order_relaxed);
}

std::string metrics_report() {
  std::string out = "ZOMP METRICS REPORT BEGIN\n";
  char buf[128];
  for (i32 i = 0; i < static_cast<i32>(Metric::kCount); ++i) {
    const Metric m = static_cast<Metric>(i);
    std::snprintf(buf, sizeof(buf), "  %s = '%" PRIu64 "'\n", metric_name(m),
                  metrics_value(m));
    out += buf;
  }
  for (i32 s = 0; s < kMetricsMaxShards; ++s) {
    const u64 v = metrics_shard_claims(s);
    if (v == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  dispatch_claims_shard[%d] = '%" PRIu64 "'\n", s, v);
    out += buf;
  }
  static const char* kSiteNames[kNumFaultSites] = {"spawn", "alloc",
                                                   "affinity"};
  for (i32 s = 0; s < kNumFaultSites; ++s) {
    std::snprintf(buf, sizeof(buf),
                  "  faults_injected[%s] = '%" PRId64 "'\n", kSiteNames[s],
                  fault_injected_count(static_cast<FaultSite>(s)));
    out += buf;
  }
  out += "ZOMP METRICS REPORT END\n";
  return out;
}

void metrics_set_enabled_for_test(bool on) {
  trace_detail::set_active(trace_detail::kActiveCounters, on);
}

void metrics_reset_for_test() {
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
  for (auto& c : g_shard_claims) c.store(0, std::memory_order_relaxed);
}

}  // namespace zomp::rt
