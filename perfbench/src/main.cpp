// zomp_perfbench: one process of the zomp benchmark (driven by run.py).
//
//   zomp_perfbench --workload npb-sync|npb-compute|tasks --seed N
//                  --seconds S --trace 0|1 [--trace-out F]
//
// The benchmark thread is the team master and issues one solve at a time
// (closed loop) at team width min(nproc, 4). --trace 0 times workload
// passes with every tool callback off and reports the end-to-end metrics;
// --trace 1 runs the layer probes, then alternates untraced, traced, -O0
// and reference passes and reports the per-layer metrics.
//
// The last stdout line is one JSON object: set-up time, solve counts, and
// either the raw pass samples (--trace 0) or the per-layer metrics. Exit status is nonzero when any solve or
// probe failed its oracle check.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "probes.h"
#include "recorder.h"
#include "runtime/api.h"
#include "stats.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using i64 = std::int64_t;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// Ordered name -> {value, unit} table, rendered as the report's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i ? ", " : "") + quote(rows_[i].name) + ": {\"value\": " +
             num(rows_[i].value) + ", \"unit\": " + quote(rows_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

// --- Environment hygiene and host fingerprint ---------------------------------

/// Settings that change the program being measured: tracing/metrics hooks,
/// fault injection, and a team width or loop schedule other than the
/// benchmark's own. The runtime reads each as ZOMP_<name> or OMP_<name>.
const char* const kRefusedEnv[] = {"TRACE", "METRICS", "FAULT_INJECT",
                                   "NUM_THREADS", "SCHEDULE"};

std::string refused_env() {
  for (const char* name : kRefusedEnv) {
    for (const char* prefix : {"ZOMP_", "OMP_"}) {
      const std::string var = std::string(prefix) + name;
      if (std::getenv(var.c_str()) != nullptr) return var;
    }
  }
  return "";
}

std::string file_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(" \t"));
    return v;
  }
  return "unknown";
}

std::string wait_policy() {
  for (const char* var : {"ZOMP_WAIT_POLICY", "OMP_WAIT_POLICY"}) {
    if (const char* v = std::getenv(var)) return v;
  }
  return "unset (runtime default: active)";
}

std::string host_json(int threads) {
  std::ostringstream o;
  o << "{\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpus_allowed_list\": "
    << quote(file_field("/proc/self/status", "Cpus_allowed_list"))
    << ", \"cpu_model\": " << quote(file_field("/proc/cpuinfo", "model name"))
    << ", \"compiler\": " << quote(std::string("g++ ") + __VERSION__)
    << ", \"build_type\": " << quote(PB_BUILD_TYPE)
    << ", \"team_width\": " << threads
    << ", \"omp_wait_policy\": " << quote(wait_policy()) << "}}";
  return o.str();
}

double peak_rss_mb() {
  const std::string v = file_field("/proc/self/status", "VmHWM");
  return std::strtod(v.c_str(), nullptr) / 1024.0;  // reported in kB
}

// --- Passes ---------------------------------------------------------------------

enum class Which { kMz, kMzO0, kRef, kSerial };

const char* which_name(Which which) {
  switch (which) {
    case Which::kMz: return "mz";
    case Which::kMzO0: return "mz -O0";
    case Which::kRef: return "ref";
    case Which::kSerial: return "serial";
  }
  return "?";
}

struct Tally {
  i64 attempted = 0;
  i64 failed = 0;
};

/// One call of one kernel variant: prepare (untimed), timed run, check.
double solve(pb::Kernel& k, Which which, bool traced, Tally& tally) {
  pb::Variant& v = which == Which::kMz     ? k.mz
                   : which == Which::kMzO0 ? k.mz_o0
                   : which == Which::kRef  ? k.ref
                                           : k.serial;
  if (v.prepare) v.prepare();
  pb::Recorder& rec = pb::Recorder::instance();
  if (traced) rec.kernel_begin(k.name.c_str());
  const auto t0 = Clock::now();
  v.run();
  const double dt = since(t0);
  if (traced) rec.kernel_end();
  ++tally.attempted;
  if (!v.check()) {
    ++tally.failed;
    std::fprintf(stderr, "perfbench: %s (%s) failed its oracle check\n",
                 k.name.c_str(), which_name(which));
  }
  return dt;
}

/// A pass runs each kernel of the workload once; its time is the sum of
/// the kernel calls. `per_kernel[i]` collects kernel i's call times.
double run_pass(pb::Workload& w, Which which, bool traced, Tally& tally,
                std::vector<std::vector<double>>* per_kernel = nullptr) {
  double total = 0;
  for (std::size_t i = 0; i < w.kernels.size(); ++i) {
    const double dt = solve(w.kernels[i], which, traced, tally);
    if (per_kernel != nullptr) (*per_kernel)[i].push_back(dt);
    total += dt;
  }
  return total;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// --- trace 0: end-to-end ----------------------------------------------------------

/// Share of the timed run given to serial-oracle passes. They interleave
/// with the parallel passes, so the speedup compares times taken under the
/// same machine conditions.
constexpr double kSerialShare = 0.2;

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

/// Times closed-loop passes for `seconds`: each round one MiniZig pass and
/// one reference pass, plus a serial-oracle pass while those have had less
/// than kSerialShare of the time. Returns the raw samples; run.py pools
/// them over processes and derives the end-to-end metrics.
std::string end_to_end(pb::Workload& w, double seconds, Tally& tally) {
  std::vector<double> mz, ref, serial;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  do {
    mz.push_back(run_pass(w, Which::kMz, false, tally));
    ref.push_back(run_pass(w, Which::kRef, false, tally));
    if (sum(serial) < kSerialShare * since(start)) {
      serial.push_back(run_pass(w, Which::kSerial, false, tally));
    }
  } while (Clock::now() < deadline);
  return "{\"mz_s\": " + json_array(mz) + ", \"ref_s\": " + json_array(ref) +
         ", \"serial_s\": " + json_array(serial) +
         ", \"peak_rss_mb\": " + num(peak_rss_mb()) + "}";
}

// --- trace 1: per-layer -----------------------------------------------------------

const char* const kAllKernels[] = {"cg",        "is",       "ep",       "mandel",
                                   "wavefront", "taskloop", "taskgroup"};

void per_layer(pb::Workload& w, std::uint64_t seed, int threads,
               double seconds, const std::string& trace_out, Tally& tally,
               Metrics& m, std::string& info) {
  const pb::ProbeResults probes = pb::run_probes();
  tally.attempted += probes.attempted;
  tally.failed += probes.failures;

  pb::Recorder& rec = pb::Recorder::instance();
  const std::size_t nk = w.kernels.size();
  std::vector<std::vector<double>> mz_k(nk), ref_k(nk);
  std::vector<double> plain, traced, o0, ref;
  std::vector<pb::PassTrace> traces;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    plain.push_back(run_pass(w, Which::kMz, false, tally, &mz_k));
    rec.set_enabled(true);
    rec.begin_pass(static_cast<int>(traces.size()));
    traced.push_back(run_pass(w, Which::kMz, true, tally));
    rec.set_enabled(false);
    traces.push_back(rec.end_pass());
    o0.push_back(run_pass(w, Which::kMzO0, false, tally));
    ref.push_back(run_pass(w, Which::kRef, false, tally, &ref_k));
  } while (Clock::now() < deadline);
  if (!trace_out.empty() && !rec.write_chrome_json(trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
  }

  // Per-kernel spans: this workload's kernels from its own passes; the
  // other workloads' kernels from a short side sample (three calls per
  // variant) so every traced run carries the whole kernel table.
  std::map<std::string, double> mz_s, ref_s;
  std::map<std::string, const pb::Kernel*> kernel_of;
  for (std::size_t i = 0; i < nk; ++i) {
    mz_s[w.kernels[i].name] = pb::median(mz_k[i]);
    ref_s[w.kernels[i].name] = pb::median(ref_k[i]);
    kernel_of[w.kernels[i].name] = &w.kernels[i];
  }
  std::vector<pb::Workload> others;
  for (const std::string& name : pb::workload_names()) {
    if (name != w.name) others.push_back(pb::make_workload(name, seed, threads));
  }
  for (pb::Workload& o : others) {
    for (pb::Kernel& k : o.kernels) {
      std::vector<double> a, b;
      for (int i = 0; i < 3; ++i) {
        a.push_back(solve(k, Which::kMz, false, tally));
        b.push_back(solve(k, Which::kRef, false, tally));
      }
      mz_s[k.name] = pb::median(a);
      ref_s[k.name] = pb::median(b);
      kernel_of[k.name] = &k;
    }
  }

  // Exact counts come from the first traced pass; every later pass must
  // repeat them (trace.count_drift counts the ones that did not).
  const pb::PassTrace& t0 = traces.front();
  int drift = 0;
  std::vector<double> fork_ns, imbalance, attempts, successes;
  double member = 0, barrier_self = 0, task_self = 0;
  i64 unmatched = 0;
  for (const pb::PassTrace& t : traces) {
    if (t.regions != t0.regions || t.barrier_episodes != t0.barrier_episodes ||
        t.claims != t0.claims || t.tasks_created != t0.tasks_created) {
      ++drift;
    }
    fork_ns.insert(fork_ns.end(), t.fork_latency_ns.begin(),
                   t.fork_latency_ns.end());
    imbalance.insert(imbalance.end(), t.imbalance.begin(), t.imbalance.end());
    member += t.member_ns;
    barrier_self += t.barrier_self_ns;
    task_self += t.task_self_ns;
    attempts.push_back(static_cast<double>(t.steal_attempts));
    successes.push_back(static_cast<double>(t.steal_successes));
    unmatched += t.unmatched;
  }
  i64 atomics = 0;
  for (const pb::Kernel& k : w.kernels) atomics += k.atomics;

  m.add("pool.fork_join_us", probes.fork_join_us, "us");
  m.add("pool.fork_latency_us", pb::median(fork_ns) / 1e3, "us");
  m.add("pool.regions", static_cast<double>(t0.regions), "count");
  m.add("team.barrier_us", probes.barrier_us, "us");
  m.add("team.barrier_episodes", static_cast<double>(t0.barrier_episodes),
        "count");
  m.add("team.barrier_wait_frac", member > 0 ? barrier_self / member : 0,
        "ratio");
  m.add("team.imbalance", pb::median(imbalance), "ratio");
  m.add("worksharing.claim_ns", probes.claim_ns, "ns");
  m.add("worksharing.claims", static_cast<double>(t0.claims), "count");
  m.add("reduce.combine_us", probes.combine_us, "us");
  m.add("sync.atomic_f64_ns", probes.atomic_f64_ns, "ns");
  m.add("sync.atomics", static_cast<double>(atomics), "count");
  m.add("task.spawn_ns", probes.spawn_ns, "ns");
  m.add("task.created", static_cast<double>(t0.tasks_created), "count");
  m.add("task.steal_attempts", pb::median(attempts), "count");
  m.add("task.steal_successes", pb::median(successes), "count");
  m.add("task.steal_successes_iqr", pb::iqr(successes), "count");
  m.add("task.steal_success_ratio",
        sum(attempts) > 0 ? sum(successes) / sum(attempts) : 0, "ratio");
  m.add("task.exec_frac", member > 0 ? task_self / member : 0, "ratio");
  for (const char* k : kAllKernels) {
    m.add(std::string("npb.") + k + ".mz_s", mz_s[k], "s");
    m.add(std::string("npb.") + k + ".ref_s", ref_s[k], "s");
  }
  m.add("npb.cg.computed_bytes", kernel_of["cg"]->computed_bytes, "B");
  m.add("npb.is.computed_bytes", kernel_of["is"]->computed_bytes, "B");
  m.add("npb.ep.mops", kernel_of["ep"]->random_numbers / mz_s["ep"] / 1e6,
        "Mop/s");
  m.add("passes.o1_speedup", pb::median(o0) / pb::median(plain), "ratio");
  m.add("trace.overhead_frac", pb::median(traced) / pb::median(plain) - 1,
        "ratio");
  m.add("trace.count_drift", drift, "count");
  info = "{\"traced_passes\": " + std::to_string(traces.size()) +
         ", \"unmatched_events\": " + std::to_string(unmatched) + "}";
}

/// Warm-up rounds (one MiniZig and one reference pass each) in set-up.
constexpr int kWarmupRounds = 3;

int usage(const char* msg) {
  std::fprintf(stderr,
               "zomp_perfbench: %s\nusage: zomp_perfbench --workload "
               "npb-sync|npb-compute|tasks --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  bench::Args args(argc, argv);
  const std::string workload = args.get("workload", "");
  const std::uint64_t seed =
      std::strtoull(args.get("seed", "1").c_str(), nullptr, 10);
  const double seconds = std::strtod(args.get("seconds", "10").c_str(), nullptr);
  const long trace = args.get_int("trace", 0);
  const auto& names = pb::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage("unknown or missing --workload");
  }
  if (!(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage("--seconds must be positive and --trace 0 or 1");
  }
  if (const std::string var = refused_env(); !var.empty()) {
    std::fprintf(stderr,
                 "zomp_perfbench: refusing to time with %s set: it changes "
                 "the program being measured. Unset it and rerun.\n",
                 var.c_str());
    return 3;
  }

  // Set-up: team width, inputs, oracles, and kWarmupRounds verified
  // warm-up rounds (the first fork builds the pool and the hot team; the
  // first passes after it can run several times slower).
  const int threads = std::min(zomp::num_procs(), 4);
  zomp::set_num_threads(threads);
  Tally tally;
  pb::Workload w;
  try {
    w = pb::make_workload(workload, seed, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zomp_perfbench: set-up failed: %s\n", e.what());
    return 4;
  }
  for (int i = 0; i < kWarmupRounds; ++i) {
    run_pass(w, Which::kMz, false, tally);
    run_pass(w, Which::kRef, false, tally);
  }
  if (trace == 1) run_pass(w, Which::kMzO0, false, tally);
  const double setup_s = since(t_start);

  std::printf("%s\n", host_json(threads).c_str());
  Metrics m;
  std::string info = "{}";
  std::string samples = "{}";
  if (trace == 0) {
    samples = end_to_end(w, seconds, tally);
  } else {
    per_layer(w, seed, threads, seconds, args.get("trace-out", ""), tally, m,
              info);
  }
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %ld, "
              "\"setup_s\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"samples\": %s, \"metrics\": %s, \"info\": %s}\n",
              quote(workload).c_str(), static_cast<unsigned long long>(seed),
              trace, num(setup_s).c_str(),
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), samples.c_str(),
              m.json().c_str(), info.c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}
