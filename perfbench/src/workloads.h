// The benchmark's workloads: which kernels a pass runs, the inputs the seed
// generates for them, and the oracles every solve is checked against.
//
//   npb-sync     MiniZig CG class W + IS class W (seeded keys)
//   npb-compute  MiniZig EP (m = 22) + Mandelbrot 512x512, max_iter 2000
//   tasks        taskgraph.mz: wavefront_run, taskloop_run, taskgroup_run
//
// Oracles never come from the code under test: NPB class constants and the
// src/npb serial kernels for the NPB kernels, the serial loops in
// workloads.cpp (and a manufactured solution for the wavefront solve) for
// the task kernels.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

/// One way of solving a kernel: `prepare` restores inputs the call mutates
/// (untimed), `run` is the timed call, `check` compares its outputs with the
/// oracle (untimed).
struct Variant {
  std::function<void()> prepare;
  std::function<void()> run;
  std::function<bool()> check;
};

struct Kernel {
  std::string name;  ///< cg, is, ep, mandel, wavefront, taskloop, taskgroup
  Variant mz;        ///< transpiled MiniZig kernel, mzc -O1 (the default)
  Variant mz_o0;     ///< the same .mz file lowered with mzc -O0
  Variant ref;       ///< hand-written reference on the same runtime
  Variant serial;    ///< the plain serial oracle (timed for the speedup)
  // Computed (not measured) layer quantities per call; 0 = not reported.
  double computed_bytes = 0;    ///< model of the bytes the kernel touches
  double random_numbers = 0;    ///< EP: randoms generated (NPB's Mop count)
  std::int64_t atomics = 0;     ///< `omp atomic` updates executed
};

struct Workload {
  std::string name;
  std::vector<Kernel> kernels;
};

/// Names of every workload, in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Builds `name`'s inputs from `seed` and computes its oracles for team
/// width `threads`. Throws std::runtime_error when a serial oracle
/// disagrees with the class constants or the manufactured solution.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       int threads);

}  // namespace pb
