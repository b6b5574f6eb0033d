// Semantic analysis tests: typing rules, scoping, and the diagnostics that
// keep MiniZig's "no implicit conversions" (Zig-like) discipline.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace zomp::lang {
namespace {

struct SemaRun {
  std::unique_ptr<Module> module;
  Diagnostics diags;
  bool ok = false;
};

SemaRun run_sema(const std::string& text) {
  SemaRun r;
  SourceFile file("test.mz", text);
  Lexer lexer(file, r.diags);
  Parser parser(lexer.lex(), r.diags);
  r.module = parser.parse_module("test");
  if (!r.diags.has_errors()) r.ok = analyze(*r.module, r.diags);
  return r;
}

void expect_ok(const std::string& text) {
  const SemaRun r = run_sema(text);
  std::string messages;
  for (const auto& d : r.diags.all()) messages += d.message + "\n";
  EXPECT_TRUE(r.ok) << text << "\n" << messages;
}

void expect_error(const std::string& text, const std::string& fragment) {
  const SemaRun r = run_sema(text);
  EXPECT_FALSE(r.ok) << text;
  bool found = false;
  for (const auto& d : r.diags.all()) {
    if (d.message.find(fragment) != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << "expected a diagnostic containing '" << fragment
                     << "' for:\n"
                     << text;
}

// -- Types and conversions ------------------------------------------------------

TEST(SemaTest, ArithmeticRequiresMatchingNumerics) {
  expect_ok("fn f(a: i64, b: i64) i64 { return a + b; }");
  expect_ok("fn f(a: f64, b: f64) f64 { return a * b; }");
  expect_error("fn f(a: i64, b: f64) f64 { return a + b; }", "matching numeric");
}

TEST(SemaTest, ExplicitConversionsWork) {
  expect_ok("fn f(a: i64) f64 { return @floatFromInt(a) * 2.0; }");
  expect_ok("fn f(a: f64) i64 { return @intFromFloat(a) + 1; }");
}

TEST(SemaTest, ConditionsMustBeBool) {
  expect_error("fn f(a: i64) void { if (a) {} }", "must be bool");
  expect_error("fn f(a: i64) void { while (a) {} }", "must be bool");
  expect_ok("fn f(a: i64) void { if (a > 0) {} }");
}

TEST(SemaTest, LogicalOpsRequireBool) {
  expect_error("fn f(a: i64, b: bool) bool { return a and b; }", "bool");
  expect_ok("fn f(a: bool, b: bool) bool { return a and !b or true; }");
}

TEST(SemaTest, IntegerOnlyOperators) {
  expect_error("fn f(a: f64) f64 { return a % 2.0; }", "i64");
  expect_ok("fn f(a: i64) i64 { return (a % 7) ^ (a << 2) & (a >> 1) | 3; }");
}

TEST(SemaTest, ComparisonYieldsBool) {
  expect_ok("fn f(a: i64) bool { return a == 3; }");
  expect_error("fn f(a: i64, b: f64) bool { return a < b; }", "matching");
  expect_ok("fn f(a: bool) bool { return a == true; }");
  expect_error("fn f(a: bool) bool { return a < true; }", "numeric");
}

TEST(SemaTest, SliceIndexingRules) {
  expect_ok("fn f(x: []f64, i: i64) f64 { return x[i]; }");
  expect_error("fn f(x: []f64) f64 { return x[1.5]; }", "index must be i64");
  expect_error("fn f(x: f64) f64 { return x[0]; }", "requires a slice");
  expect_ok("fn f(x: []f64) i64 { return x.len; }");
  expect_error("fn f(a: i64) i64 { return a.len; }", "requires a slice");
}

TEST(SemaTest, PointerRules) {
  expect_ok("fn f(p: *f64) f64 { return p.*; }");
  expect_ok("fn f(p: *f64, v: f64) void { p.* = v; }");
  expect_error("fn f(a: f64) f64 { return a.*; }", "requires a pointer");
  expect_ok("fn g(p: *i64) void {} fn f() void { var x: i64 = 0; g(&x); }");
  expect_ok("fn g(p: *f64) void {} fn f(x: []f64) void { g(&x[0]); }");
  expect_error("fn f(x: []f64) void { var p = &x; }", "address of a []f64");
}

TEST(SemaTest, VarDeclTypeChecking) {
  expect_ok("fn f() void { var a: f64 = 1.5; const b = a * 2.0; }");
  expect_error("fn f() void { var a: i64 = 1.5; }", "cannot initialise");
  expect_error("fn f() void { var s = \"text\"; }", "@print");
}

TEST(SemaTest, ConstIsImmutable) {
  expect_error("fn f() void { const a = 1; a = 2; }", "cannot assign to const");
  expect_error("fn f(n: i64) void { for (0..n) |i| { i = 3; } }",
               "cannot assign to const");
  // Ordinary (non-outlined) function parameters are const too.
  expect_error("fn f(a: i64) void { a = 2; }", "cannot assign to const");
}

TEST(SemaTest, AssignmentTargets) {
  expect_ok("fn f(x: []f64) void { x[0] = 1.0; }");
  expect_error("fn f() void { 3 = 4; }", "not assignable");
  expect_error("fn f(a: i64) void { (a + 1) = 2; }", "not assignable");
}

// -- Scoping ------------------------------------------------------------------

TEST(SemaTest, UndeclaredIdentifier) {
  expect_error("fn f() i64 { return nope; }", "undeclared identifier");
}

TEST(SemaTest, SameScopeRedeclarationRejected) {
  expect_error("fn f() void { var a: i64 = 1; var a: i64 = 2; }",
               "redeclaration");
}

TEST(SemaTest, ShadowingInNestedScopeAllowed) {
  expect_ok("fn f() void { var a: i64 = 1; { var a: f64 = 2.0; a = 3.0; } a = 4; }");
}

TEST(SemaTest, GlobalsVisibleInFunctions) {
  expect_ok("const N: i64 = 10;\nfn f() i64 { return N * 2; }");
  expect_ok("var total: f64 = 0.0;\nfn bump(v: f64) void { total += v; }");
}

TEST(SemaTest, GlobalInitialisersSeeEarlierGlobals) {
  expect_ok("const A: i64 = 5;\nconst B: i64 = A * 2;\nfn f() i64 { return B; }");
}

TEST(SemaTest, BreakOutsideLoopRejected) {
  expect_error("fn f() void { break; }", "outside of a loop");
  expect_error("fn f() void { continue; }", "outside of a loop");
}

// -- Functions -------------------------------------------------------------------

TEST(SemaTest, CallArityAndTypes) {
  expect_error("fn g(a: i64) void {} fn f() void { g(); }", "expects 1");
  expect_error("fn g(a: i64) void {} fn f() void { g(1.5); }", "expected i64");
  expect_ok("fn g(a: i64) i64 { return a; } fn f() i64 { return g(3); }");
}

TEST(SemaTest, UnknownFunctionRejected) {
  expect_error("fn f() void { g(); }", "unknown function");
}

TEST(SemaTest, DuplicateFunctionRejected) {
  expect_error("fn f() void {} fn f() void {}", "duplicate function");
}

TEST(SemaTest, ReturnTypeChecked) {
  expect_error("fn f() i64 { return 1.5; }", "return type mismatch");
  expect_error("fn f() i64 { return; }", "must return a value");
  expect_ok("fn f() void { return; }");
}

TEST(SemaTest, RecursionTypechecks) {
  expect_ok("fn fib(n: i64) i64 { if (n < 2) { return n; } return fib(n - 1) "
            "+ fib(n - 2); }");
}

// -- Builtins -----------------------------------------------------------------------

TEST(SemaTest, MathBuiltinTypes) {
  expect_ok("fn f(a: f64) f64 { return @sqrt(a) + @exp(a) + @log(a) + "
            "@pow(a, 2.0); }");
  expect_error("fn f(a: i64) f64 { return @sqrt(a); }", "f64");
  expect_ok("fn f(a: i64) i64 { return @abs(a) + @min(a, 3) + @max(a, 0) + "
            "@mod(a, 7); }");
  expect_error("fn f(a: i64, b: f64) i64 { return @min(a, b); }", "matching");
}

TEST(SemaTest, AllocRules) {
  expect_ok("fn f(n: i64) void { var x = @alloc(f64, n); @free(x); }");
  expect_error("fn f() void { var x = @alloc(f64, 1.5); }", "length must be i64");
  expect_error("fn f(a: i64) void { @free(a); }", "needs a slice");
}

TEST(SemaTest, PrintAcceptsScalarsAndStrings) {
  expect_ok("fn f(a: i64, b: f64, c: bool) void { @print(\"x\", a, b, c); }");
  expect_error("fn f(x: []f64) void { @print(x); }", "scalars");
}

TEST(SemaTest, BuiltinArityChecked) {
  expect_error("fn f(a: f64) f64 { return @sqrt(a, a); }", "expects 1");
  expect_error("fn f(a: f64) f64 { return @pow(a); }", "expects 2");
}

// -- OpenMP-transform statements (pre-transformed modules) ------------------------

TEST(SemaTest, PendingDirectivesWithoutEngineWarnButPass) {
  SemaRun r = run_sema(
      "fn f(n: i64) void {\n//#omp parallel for\nfor (0..n) |i| {} }");
  EXPECT_TRUE(r.ok);
  bool warned = false;
  for (const auto& d : r.diags.all()) {
    if (d.severity == Severity::kWarning &&
        d.message.find("ignored") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

// -- Array-section reductions (through the directive engine) ---------------------

/// Compiles `reduction(<op>: x[1:2])` over a parameter `x` of type `slice`
/// (parallel for, and standalone for inside a region) and returns the
/// diagnostics of the first failing form, or "" when both compile.
std::string section_diags(const std::string& slice, const std::string& op) {
  const std::string clause = "reduction(" + op + ": x[1:2])";
  for (const std::string& body :
       {"  //#omp parallel for " + clause + "\n  for (0..n) |i| {}\n",
        "  //#omp parallel\n  {\n    //#omp for " + clause +
            "\n    for (0..n) |i| {}\n  }\n"}) {
    auto result = core::compile_source("fn f(n: i64, x: " + slice +
                                       ") void {\n" + body + "}\n");
    if (!result.ok) return result.diagnostics_text();
  }
  return "";
}

TEST(SemaTest, SectionReductionNeedsNumericSlice) {
  EXPECT_EQ(section_diags("[]i64", "+"), "");
  EXPECT_EQ(section_diags("[]f64", "max"), "");
  EXPECT_EQ(section_diags("[]i64", "^"), "");
  const std::string bool_diags = section_diags("[]bool", "+");
  EXPECT_NE(bool_diags.find("[]bool"), std::string::npos) << bool_diags;
  EXPECT_NE(bool_diags.find("over 'x'"), std::string::npos) << bool_diags;
  EXPECT_NE(section_diags("[]f64", "|").find("i64"), std::string::npos);
}

TEST(SemaTest, SectionReductionRejectsLogicalOperators) {
  for (const char* op : {"and", "or"}) {
    const std::string diags = section_diags("[]i64", op);
    EXPECT_NE(diags.find("not supported"), std::string::npos) << op << diags;
    EXPECT_NE(diags.find(op), std::string::npos) << diags;
  }
}

TEST(SemaTest, SectionBoundsMustBeI64) {
  auto result = core::compile_source(
      "fn f(n: i64, x: []i64) void {\n"
      "  //#omp parallel for reduction(+: x[0:2.0])\n"
      "  for (0..n) |i| {}\n}\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("must be i64"), std::string::npos)
      << result.diagnostics_text();
}

}  // namespace
}  // namespace zomp::lang
