// Per-pass golden tests for the -O1 optimizer pipeline (core/passes.h):
// each pass's effect is pinned through the post-pass IR dump
// (CompileOptions::dump_ir, the same hook behind `mzc --dump-ir=<pass>`)
// plus the PassStats counters, and every fusion legality rule has a
// negative test proving the pass refuses the unsafe shape. A final
// interpreter smoke run checks that a fused + folded module still computes
// the same answers as the -O0 module.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/passes.h"
#include "core/pipeline.h"
#include "interp/interp.h"

namespace zomp::core {
namespace {

CompileResult compile_at(const std::string& source, int opt_level,
                         std::vector<std::string> dump_ir = {"all"}) {
  CompileOptions options;
  options.module_name = "passes_test";
  options.opt_level = opt_level;
  options.dump_ir = std::move(dump_ir);
  return compile_source(source, options);
}

/// IR text captured after `pass` ran (empty string + test failure if the
/// pass never reported a dump).
std::string dump_after(const CompileResult& result, const std::string& pass) {
  for (const auto& [name, text] : result.ir_dumps) {
    if (name == pass) return text;
  }
  ADD_FAILURE() << "no IR dump recorded for pass '" << pass << "'";
  return std::string();
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Two adjacent, clause-compatible regions over constant bounds and a
// constant team: the canonical input every optimizer pass fires on
// (fold the bounds + team, fuse the pair, then drop the now-dead `n`
// capture).
const char* kTwoRegions = R"(
pub fn sum_two(out: []i64) void {
  const n: i64 = 1024;
  var s1: i64 = 0;
  var s2: i64 = 0;
  //#omp parallel for reduction(+: s1) num_threads(4)
  for (0..n) |i| {
    s1 += i;
  }
  //#omp parallel for reduction(+: s2) num_threads(4)
  for (0..n) |i| {
    s2 += i * 2;
  }
  out[0] = s1;
  out[1] = s2;
}
)";

// -- pipeline shape ---------------------------------------------------------

TEST(PassPipelineTest, DefaultPipelineOrder) {
  PassManager o1;
  build_default_pipeline(o1, /*opt_level=*/1, /*openmp=*/true);
  const std::vector<std::string> expected = {
      "omp-lower", "sema", "fold", "fuse", "dce-hoist", "verify"};
  EXPECT_EQ(o1.pass_names(), expected);

  PassManager o0;
  build_default_pipeline(o0, /*opt_level=*/0, /*openmp=*/true);
  const std::vector<std::string> historical = {"omp-lower", "sema"};
  EXPECT_EQ(o0.pass_names(), historical);
}

TEST(PassPipelineTest, OptLevelZeroRunsNoOptimizerPass) {
  auto result = compile_at(kTwoRegions, /*opt_level=*/0);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  // Only the historical stages dumped anything...
  ASSERT_EQ(result.ir_dumps.size(), 2u);
  EXPECT_EQ(result.ir_dumps[0].first, "omp-lower");
  EXPECT_EQ(result.ir_dumps[1].first, "sema");

  // ...and no optimizer marker reached the module.
  const std::string& final_ir = result.ir_dumps.back().second;
  EXPECT_FALSE(contains(final_ir, "hoist@"));
  EXPECT_FALSE(contains(final_ir, "__omp_fused"));
  EXPECT_EQ(result.pass_stats.folded_operands, 0);
  EXPECT_EQ(result.pass_stats.regions_fused, 0);
  EXPECT_EQ(result.pass_stats.dead_captures, 0);
  EXPECT_EQ(result.pass_stats.hoisted_forks, 0);
}

// -- fold -------------------------------------------------------------------

TEST(FoldPassTest, LiteralizesDirectiveOperandsAndDropsTrueIf) {
  auto result = compile_at(R"(
pub fn fill(a: []i64) void {
  const t: i64 = 2 + 2;
  const n: i64 = 16 * 4;
  //#omp parallel for num_threads(t) if(n > 0)
  for (0..n) |i| {
    a[i] = i;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  const std::string before = dump_after(result, "sema");
  EXPECT_TRUE(contains(before, "num_threads=t")) << before;
  EXPECT_TRUE(contains(before, "if=")) << before;

  const std::string after = dump_after(result, "fold");
  // num_threads(t) became the literal 4, the loop bound became 64, and the
  // always-true if clause disappeared entirely.
  EXPECT_TRUE(contains(after, "num_threads=4")) << after;
  EXPECT_TRUE(contains(after, "0 .. 64")) << after;
  EXPECT_FALSE(contains(after, "if=")) << after;
  EXPECT_GE(result.pass_stats.folded_operands, 3);
}

TEST(FoldPassTest, MutableOperandsAreLeftAlone) {
  auto result = compile_at(R"(
pub fn fill(a: []i64, n: i64) void {
  var t: i64 = 2;
  t += 2;
  //#omp parallel for num_threads(t)
  for (0..n) |i| {
    a[i] = i;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  const std::string after = dump_after(result, "fold");
  // `t` is mutable and `n` is a parameter: neither may be literalized.
  EXPECT_TRUE(contains(after, "num_threads=t")) << after;
  EXPECT_TRUE(contains(after, "0 .. n")) << after;
}

// -- fuse -------------------------------------------------------------------

TEST(FusePassTest, MergesAdjacentCompatibleRegions) {
  auto result = compile_at(kTwoRegions, /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 1);

  const std::string after = dump_after(result, "fuse");
  EXPECT_TRUE(contains(after, "__omp_fused_0")) << after;
  EXPECT_TRUE(contains(after, "(omp-barrier)")) << after;
  // Both original outlined bodies were absorbed and their functions erased.
  EXPECT_FALSE(contains(after, "__omp_sum_two_parallel_0")) << after;
  EXPECT_FALSE(contains(after, "__omp_sum_two_parallel_1")) << after;
}

TEST(FusePassTest, TailBarrierOfFirstRegionIsRelaxed) {
  auto result = compile_at(kTwoRegions, /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  // Region 1's worksharing loop may go nowait inside the fused body: the
  // explicit inter-body barrier subsumes its implicit one, so the fused
  // pair pays one rendezvous, not two.
  EXPECT_TRUE(contains(dump_after(result, "fuse"), "nowait"));
}

TEST(FusePassTest, StatementBetweenRegionsBlocksFusion) {
  auto result = compile_at(R"(
pub fn sum_two(out: []i64) void {
  const n: i64 = 1024;
  var s1: i64 = 0;
  var s2: i64 = 0;
  //#omp parallel for reduction(+: s1) num_threads(4)
  for (0..n) |i| {
    s1 += i;
  }
  out[0] = s1;
  //#omp parallel for reduction(+: s2) num_threads(4)
  for (0..n) |i| {
    s2 += i * 2;
  }
  out[1] = s2;
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 0);
  EXPECT_FALSE(contains(dump_after(result, "fuse"), "__omp_fused"));
}

TEST(FusePassTest, DifferentTeamSizesBlockFusion) {
  auto result = compile_at(R"(
pub fn sum_two(out: []i64) void {
  const n: i64 = 1024;
  var s1: i64 = 0;
  var s2: i64 = 0;
  //#omp parallel for reduction(+: s1) num_threads(4)
  for (0..n) |i| {
    s1 += i;
  }
  //#omp parallel for reduction(+: s2) num_threads(2)
  for (0..n) |i| {
    s2 += i * 2;
  }
  out[0] = s1;
  out[1] = s2;
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 0);
}

TEST(FusePassTest, UnfoldableIfClauseBlocksFusion) {
  // `if(k > 0)` can fall back to a serial (team-of-one) execution at
  // runtime; fusing it with an unconditional region would force both
  // bodies into one fork decision.
  auto result = compile_at(R"(
pub fn sum_two(k: i64, n: i64, out: []i64) void {
  var s1: i64 = 0;
  var s2: i64 = 0;
  //#omp parallel for reduction(+: s1) if(k > 0)
  for (0..n) |i| {
    s1 += i;
  }
  //#omp parallel for reduction(+: s2)
  for (0..n) |i| {
    s2 += i * 2;
  }
  out[0] = s1;
  out[1] = s2;
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 0);
}

TEST(FusePassTest, ReductionResultReadBySecondRegionBlocksFusion) {
  // s1 is a reduction pointer in region 1 and an input of region 2: the
  // capture-mode mismatch is exactly the nowait-unsafe boundary (region 2
  // must observe the combined value, which only the join publishes).
  auto result = compile_at(R"(
pub fn sum_two(n: i64, out: []i64) void {
  var s1: i64 = 0;
  var s2: i64 = 0;
  //#omp parallel for reduction(+: s1)
  for (0..n) |i| {
    s1 += i;
  }
  //#omp parallel for reduction(+: s2)
  for (0..n) |i| {
    s2 += s1 + i;
  }
  out[0] = s1;
  out[1] = s2;
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 0);
}

TEST(FusePassTest, ValueCaptureWrittenByFirstBodyBlocksFusion) {
  // x is firstprivate in both regions and body 1 writes its private copy.
  // The fused function would hold ONE parameter for x, so region 2's
  // "fresh" copy would observe region 1's writes — must not fuse.
  auto result = compile_at(R"(
pub fn sum_two(n: i64, out: []i64) void {
  var x: i64 = 5;
  var s1: i64 = 0;
  var s2: i64 = 0;
  //#omp parallel for reduction(+: s1) firstprivate(x)
  for (0..n) |i| {
    x += 1;
    s1 += x;
  }
  //#omp parallel for reduction(+: s2) firstprivate(x)
  for (0..n) |i| {
    s2 += x + i;
  }
  out[0] = s1;
  out[1] = s2;
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 0);
}

TEST(FusePassTest, SectionReductionTargetReadBySecondRegionBlocksFusion) {
  // q's section is a reduction target in region 1 and an input of region 2:
  // region 2 must see the combined bins, which only the join publishes.
  auto result = compile_at(R"(
pub fn bins(n: i64, q: []i64, out: []i64) void {
  var s: i64 = 0;
  //#omp parallel for reduction(+: q[0:4])
  for (0..n) |i| {
    q[@mod(i, 4)] += 1;
  }
  //#omp parallel for reduction(+: s)
  for (0..n) |i| {
    s += q[@mod(i, 4)];
  }
  out[0] = s;
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 0);
}

TEST(FusePassTest, MatchingSectionReductionsFuse) {
  // Two regions reducing into the same literal section with the same
  // operator share one parameter; the fused body keeps both accumulators.
  auto result = compile_at(R"(
pub fn bins(q: []i64) void {
  //#omp parallel for reduction(+: q[1:4]) num_threads(4)
  for (0..64) |i| {
    q[1 + @mod(i, 4)] += 1;
  }
  //#omp parallel for reduction(+: q[1:4]) num_threads(4)
  for (0..64) |i| {
    q[1 + @mod(i, 4)] += 2;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.pass_stats.regions_fused, 1);
  interp::Interp interp(*result.module);
  interp::SliceVal q;
  q.data = std::make_shared<std::vector<interp::Value>>(
      6, interp::Value(std::int64_t{0}));
  interp.call_by_name("bins", {interp::Value(q)});
  for (std::size_t b = 1; b <= 4; ++b) {
    EXPECT_EQ((*q.data)[b].as_i64(), 16 * 3) << "bin " << b;
  }
  EXPECT_EQ((*q.data)[0].as_i64(), 0);
  EXPECT_EQ((*q.data)[5].as_i64(), 0);
}

TEST(FoldPassTest, SectionBoundsFoldIntoTheRegion) {
  // A const lower bound is snapshotted before the fork, captured by value
  // and folded to a literal inside the outlined body (init, combine and the
  // shifted body index alike).
  auto result = compile_at(R"(
pub fn bins(n: i64, q: []i64) void {
  const lo: i64 = 2;
  //#omp parallel for reduction(+: q[lo:3])
  for (0..n) |i| {
    q[lo + @mod(i, 3)] += 1;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  const std::string after = dump_after(result, "fold");
  EXPECT_TRUE(contains(after, "(omp-red-init q + from q__red [2:3])")) << after;
  EXPECT_TRUE(contains(after, "(omp-red-combine q__red + q [2:3])")) << after;
}

// -- dce-hoist --------------------------------------------------------------

TEST(DceHoistPassTest, KeepsSectionReductionCaptures) {
  // The body never indexes q, but the combine writes it: the section
  // target is referenced and must survive dead-capture elimination.
  auto result = compile_at(R"(
pub fn bins(n: i64, q: []i64) void {
  //#omp parallel for reduction(+: q[0:2])
  for (0..n) |i| {
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_TRUE(contains(dump_after(result, "dce-hoist"),
                       "[q reduction-ptr + section]"));
}

TEST(DceHoistPassTest, DropsCapturesMadeDeadByFolding) {
  auto result = compile_at(kTwoRegions, /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  // Fold literalized every use of n inside the outlined bodies, so the
  // fused region still carries a dead [n ...] capture until dce runs.
  EXPECT_TRUE(contains(dump_after(result, "fuse"), "[n "));
  const std::string after = dump_after(result, "dce-hoist");
  EXPECT_FALSE(contains(after, "[n ")) << after;
  EXPECT_GE(result.pass_stats.dead_captures, 1);
}

TEST(DceHoistPassTest, MarksLoopInvariantForksHoistable) {
  auto result = compile_at(R"(
pub fn iterate(a: []i64) void {
  const n: i64 = 64;
  var scale: i64 = 3;
  for (0..10) |t| {
    //#omp parallel for num_threads(2)
    for (0..n) |i| {
      a[i] = a[i] + scale;
    }
    scale += 1;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  // Every captured address (a, scale) is declared outside the serial loop:
  // the void* argument pack can be built once, before the loop.
  EXPECT_EQ(result.pass_stats.hoisted_forks, 1);
  EXPECT_TRUE(contains(dump_after(result, "dce-hoist"), "hoist@1"));
}

TEST(DceHoistPassTest, LoopLocalCaptureBlocksHoisting) {
  auto result = compile_at(R"(
pub fn iterate(a: []i64) void {
  const n: i64 = 64;
  for (0..10) |t| {
    var local: i64 = t;
    //#omp parallel for num_threads(2)
    for (0..n) |i| {
      a[i] = a[i] + local;
    }
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  // `local` lives in the loop body's scope — its address is reborn every
  // iteration, so the pack must be rebuilt per iteration too.
  EXPECT_EQ(result.pass_stats.hoisted_forks, 0);
  EXPECT_FALSE(contains(dump_after(result, "dce-hoist"), "hoist@"));
}

// -- end-to-end semantics ---------------------------------------------------

// The optimized module (folded + regions fused with a relaxed tail
// barrier + dead capture dropped) must compute
// exactly what the -O0 module does, lastprivate writeback included.
TEST(PassPipelineTest, OptimizedModuleMatchesO0Semantics) {
  const char* source = R"(
pub fn run(out: []i64) void {
  const n: i64 = 100;
  var s1: i64 = 0;
  var s2: i64 = 0;
  var last: i64 = -1;
  //#omp parallel for reduction(+: s1) lastprivate(last) num_threads(4)
  for (0..n) |i| {
    s1 += i;
    last = i * 2;
  }
  //#omp parallel for reduction(+: s2) num_threads(4)
  for (0..n) |i| {
    s2 += i + 1;
  }
  out[0] = s1;
  out[1] = s2;
  out[2] = last;
}
)";

  auto o1 = compile_at(source, /*opt_level=*/1, /*dump_ir=*/{});
  ASSERT_TRUE(o1.ok) << o1.diagnostics_text();
  // Prove the optimized path is what actually runs below.
  EXPECT_EQ(o1.pass_stats.regions_fused, 1);
  EXPECT_GE(o1.pass_stats.folded_operands, 1);

  auto o0 = compile_at(source, /*opt_level=*/0, /*dump_ir=*/{});
  ASSERT_TRUE(o0.ok) << o0.diagnostics_text();

  auto run = [](CompileResult& compiled) {
    interp::Interp interp(*compiled.module);
    interp::SliceVal out;
    out.data = std::make_shared<std::vector<interp::Value>>(
        3, interp::Value(std::int64_t{0}));
    interp.call_by_name("run", {interp::Value(out)});
    return std::vector<std::int64_t>{(*out.data)[0].as_i64(),
                                     (*out.data)[1].as_i64(),
                                     (*out.data)[2].as_i64()};
  };

  const auto opt = run(o1);
  const auto ref = run(o0);
  EXPECT_EQ(opt, ref);
  EXPECT_EQ(opt[0], 4950);  // sum 0..99
  EXPECT_EQ(opt[1], 5050);  // sum 1..100
  EXPECT_EQ(opt[2], 198);   // lastprivate from i = 99
}

TEST(DumpIrNamesTest, UnknownPassNameIsAnErrorListingTheValidNames) {
  const std::string source = "pub fn f(x: i64) i64 { return x + 1; }\n";
  for (const char* name : {"bogus", "static-spec"}) {
    auto result = compile_at(source, /*opt_level=*/1, {"sema", name});
    EXPECT_FALSE(result.ok) << name;
    EXPECT_TRUE(result.ir_dumps.empty()) << name;
    const std::string diags = result.diagnostics_text();
    EXPECT_TRUE(contains(diags, std::string("unknown pass '") + name + "'"))
        << diags;
    EXPECT_TRUE(contains(diags, "(valid: omp-lower, sema, fold, fuse, "
                                "dce-hoist, verify, all)"))
        << diags;
  }
  // A pass only -O1 runs is unknown at -O0, and the list says so.
  auto o0 = compile_at(source, /*opt_level=*/0, {"fold"});
  EXPECT_FALSE(o0.ok);
  EXPECT_TRUE(contains(o0.diagnostics_text(), "(valid: omp-lower, sema, all)"))
      << o0.diagnostics_text();
  auto o1 = compile_at(source, /*opt_level=*/1, {"fold"});
  ASSERT_TRUE(o1.ok) << o1.diagnostics_text();
  ASSERT_EQ(o1.ir_dumps.size(), 1u);
  EXPECT_EQ(o1.ir_dumps[0].first, "fold");
}

}  // namespace
}  // namespace zomp::core
