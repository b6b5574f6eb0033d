// Per-layer probes: direct calls into each runtime layer's public C ABI at
// the workload's team width, shaped like micro_runtime's BM_ForkJoin,
// BM_DynamicChunkClaim, BM_AtomicF64Add and BM_TaskSpawnDrain so the
// numbers stay comparable with that suite.
#pragma once

namespace pb {

struct ProbeResults {
  double fork_join_us = 0;    ///< empty zomp_fork_call, hot team
  double barrier_us = 0;      ///< one zomp_barrier episode in a live region
  double claim_ns = 0;        ///< zomp_dispatch_next at dynamic,1, per chunk
  double combine_us = 0;      ///< zomp_reduce over EP's three f64 partials
  double atomic_f64_ns = 0;   ///< zomp_atomic_add_f64 into 10 shared bins
  double spawn_ns = 0;        ///< deferred zomp_task spawn + execute
  int failures = 0;           ///< probes whose own result check failed
  int attempted = 0;
};

/// Runs every probe at the current team width (zomp::set_num_threads);
/// each value is the median over repeated batches.
ProbeResults run_probes();

}  // namespace pb
