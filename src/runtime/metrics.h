// Process-wide metrics registry (DESIGN.md S12): the counter consumer of the
// trace event stream. Hook sites call nothing here: with ZOMP_METRICS on,
// trace_emit's slow path hands each event to metrics_detail::consume, which
// bumps the relaxed-atomic registry and the emitting member's per-team
// MemberCounts (zomp::team_stats()). Off, a hook site pays only trace_emit's
// one relaxed load, and per-team counts stay zero.
//
// With ZOMP_METRICS=true a libomp-fenced report (the OMP_DISPLAY_ENV
// BEGIN/END framing convention) is written to stderr at process exit; tests
// and tools can pull metrics_report() / metrics_value() directly.
#pragma once

#include <string>

#include "runtime/common.h"
#include "runtime/trace.h"

namespace zomp::rt {

struct ThreadState;

enum class Metric : i32 {
  kParallelRegions = 0,   ///< forks entering run_region (all sizes)
  kHotTeamHits = 1,       ///< forks served from the hot-team cache
  kHotTeamRebuilds = 2,   ///< forks that (re)built a team through the pool
  kBarrierEpisodes = 3,   ///< barrier episodes entered (user + join)
  kBarrierWaitNs = 4,     ///< wall ns spent inside those episodes
  kDispatchClaims = 5,    ///< dynamic/guided/static chunk claims served
  kTasksExecuted = 6,     ///< explicit task bodies run (incl. inline)
  kTasksStolen = 7,       ///< tasks obtained via a successful deque steal
  kMailboxPulls = 8,      ///< tasks obtained from an affinity mailbox
  kStealAttempts = 9,     ///< CAS-bearing steal() calls on victim deques
  kStealLost = 10,        ///< steals that lost the CAS race
  kCancellations = 11,    ///< cancel activations observed
  kCount = 12,
};

/// One team member's counts, indexed by Metric. Owner-write: only the member
/// itself bumps its block, with plain stores; readers sum the blocks after a
/// barrier or the join (Team::count_total).
struct alignas(kCacheLine) MemberCounts {
  u64 v[static_cast<i32>(Metric::kCount)] = {};
};

/// Upper bound on distinguished shard lanes in the per-shard claim
/// breakdown; claims from higher shard indexes fold into the last lane.
inline constexpr i32 kMetricsMaxShards = 16;

namespace metrics_detail {

/// The counter consumer: folds one event into the registry and into `ts`'s
/// MemberCounts in its innermost team. `lane` is the claim hook's serving
/// shard. Barrier wait is timed from each enter / wait-end pair.
void consume(TraceEv ev, i64 arg0, i64 arg1, i32 lane,
             ThreadState& ts) noexcept;

}  // namespace metrics_detail

/// Seeds the registry from ZOMP_METRICS (env_bool semantics; malformed
/// values warn through the env funnel and read as false) and registers the
/// at-exit report writer once enabled. Called by GlobalIcv's constructor.
void metrics_init_from_env();

/// Current counter value / per-shard claim lane (aggregate readers).
u64 metrics_value(Metric m) noexcept;
u64 metrics_shard_claims(i32 shard) noexcept;

/// The fenced report: "ZOMP METRICS REPORT BEGIN/END" around one
/// `name = 'value'` line per counter, the nonzero shard lanes, and the
/// fault-injection site counts (pulled from fault.cpp at render time).
std::string metrics_report();

/// Test hooks: arm/disarm the counter consumer; zero the registry.
void metrics_set_enabled_for_test(bool on);
void metrics_reset_for_test();

}  // namespace zomp::rt
