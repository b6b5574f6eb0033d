// Traced-run recorder: a tool-callback consumer over the runtime's public
// tool interface (zomp_start_tool / zomp_set_callback, abi.h).
//
// Every emitting thread appends closed spans to its own in-memory buffer
// (single writer, no locks on the hot path). Spans nest per thread as
//   kernel ⊃ parallel ⊃ implicit task ⊃ barrier ⊃ task
// (tasks also run directly in an implicit task at taskwait/taskgroup end),
// and each span's self time is its duration minus the part its children
// cover. Instant events (task create, chunk claim, steal attempt/success)
// are counted, not stored.
//
// Buffers are read only at pass boundaries, when the team is quiescent: the
// runtime's join makes every worker's last event visible to the master
// before the kernel call returns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// Layer totals for one traced pass.
struct PassTrace {
  // Exact counts: identical on every pass of a given input.
  std::int64_t regions = 0;           ///< parallel regions forked
  std::int64_t barrier_episodes = 0;  ///< team barrier episodes (user + join)
  std::int64_t claims = 0;            ///< worksharing chunk claims
  std::int64_t tasks_created = 0;     ///< explicit tasks created
  // Scheduling-dependent counts.
  std::int64_t steal_attempts = 0;
  std::int64_t steal_successes = 0;
  // Times, nanoseconds summed over members.
  double member_ns = 0;        ///< implicit-task time
  double barrier_self_ns = 0;  ///< barrier time not spent running tasks
  double task_self_ns = 0;     ///< time inside task bodies
  std::vector<double> fork_latency_ns;  ///< per region
  std::vector<double> imbalance;        ///< per region: max/mean member busy
  std::int64_t unmatched = 0;  ///< end events without a matching begin
};

class Recorder {
 public:
  static Recorder& instance();

  /// Installs (on = true) or removes every callback the recorder uses.
  void set_enabled(bool on);

  /// Clears every thread's buffer; `pass` tags the spans that follow.
  void begin_pass(int pass);
  /// Derives the layer totals from the spans recorded since begin_pass.
  PassTrace end_pass();

  /// Benchmark-side spans around each kernel call (calling thread only).
  void kernel_begin(const char* name);
  void kernel_end();

  /// Writes the spans recorded since the last begin_pass as Chrome
  /// trace-event JSON (args: pass id and self time). False on I/O failure.
  bool write_chrome_json(const std::string& path) const;
};

}  // namespace pb
