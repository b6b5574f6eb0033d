// Unit tests: environment handling and schedule parsing (runtime/env.h).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "runtime/env.h"
#include "runtime/icv.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace zomp::rt {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("ZOMP_TESTVAR");
    unsetenv("OMP_TESTVAR");
  }
};

TEST_F(EnvTest, UnsetReturnsNullopt) {
  EXPECT_FALSE(env_string("TESTVAR").has_value());
  EXPECT_FALSE(env_int("TESTVAR").has_value());
  EXPECT_FALSE(env_bool("TESTVAR").has_value());
}

TEST_F(EnvTest, OmpPrefixIsRead) {
  setenv("OMP_TESTVAR", "17", 1);
  EXPECT_EQ(env_int("TESTVAR"), 17);
}

TEST_F(EnvTest, ZompPrefixWinsOverOmp) {
  setenv("OMP_TESTVAR", "17", 1);
  setenv("ZOMP_TESTVAR", "42", 1);
  EXPECT_EQ(env_int("TESTVAR"), 42);
}

TEST_F(EnvTest, MalformedIntIsRejected) {
  setenv("ZOMP_TESTVAR", "seventeen", 1);
  EXPECT_FALSE(env_int("TESTVAR").has_value());
}

TEST_F(EnvTest, IntWithTrailingGarbageIsRejected) {
  setenv("ZOMP_TESTVAR", "17abc", 1);
  EXPECT_FALSE(env_int("TESTVAR").has_value());
}

TEST_F(EnvTest, WhitespaceAroundIntIsAccepted) {
  setenv("ZOMP_TESTVAR", "  8 ", 1);
  EXPECT_EQ(env_int("TESTVAR"), 8);
}

TEST_F(EnvTest, BoolSpellings) {
  for (const char* t : {"true", "TRUE", "yes", "1", "on"}) {
    setenv("ZOMP_TESTVAR", t, 1);
    EXPECT_EQ(env_bool("TESTVAR"), true) << t;
  }
  for (const char* f : {"false", "False", "no", "0", "off"}) {
    setenv("ZOMP_TESTVAR", f, 1);
    EXPECT_EQ(env_bool("TESTVAR"), false) << f;
  }
  setenv("ZOMP_TESTVAR", "maybe", 1);
  EXPECT_FALSE(env_bool("TESTVAR").has_value());
}

struct ScheduleCase {
  const char* text;
  bool ok;
  ScheduleKind kind;
  i64 chunk;
};

class ScheduleParseTest : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleParseTest, Parses) {
  const ScheduleCase& c = GetParam();
  const auto parsed = parse_schedule(c.text);
  ASSERT_EQ(parsed.has_value(), c.ok) << c.text;
  if (c.ok) {
    EXPECT_EQ(parsed->kind, c.kind) << c.text;
    EXPECT_EQ(parsed->chunk, c.chunk) << c.text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpellings, ScheduleParseTest,
    ::testing::Values(
        ScheduleCase{"static", true, ScheduleKind::kStatic, 0},
        ScheduleCase{"static,4", true, ScheduleKind::kStatic, 4},
        ScheduleCase{"STATIC, 16", true, ScheduleKind::kStatic, 16},
        ScheduleCase{"dynamic", true, ScheduleKind::kDynamic, 0},
        ScheduleCase{"dynamic,1", true, ScheduleKind::kDynamic, 1},
        ScheduleCase{"guided,8", true, ScheduleKind::kGuided, 8},
        ScheduleCase{"auto", true, ScheduleKind::kAuto, 0},
        ScheduleCase{"runtime", true, ScheduleKind::kRuntime, 0},
        ScheduleCase{"  guided  ", true, ScheduleKind::kGuided, 0},
        ScheduleCase{"bogus", false, ScheduleKind::kStatic, 0},
        ScheduleCase{"static,", false, ScheduleKind::kStatic, 0},
        ScheduleCase{"static,0", false, ScheduleKind::kStatic, 0},
        ScheduleCase{"static,-3", false, ScheduleKind::kStatic, 0},
        ScheduleCase{"static,4x", false, ScheduleKind::kStatic, 0},
        ScheduleCase{"", false, ScheduleKind::kStatic, 0}));

TEST(WaitPolicyParseTest, AcceptsActiveAndPassive) {
  EXPECT_EQ(parse_wait_policy("active"), WaitPolicy::kActive);
  EXPECT_EQ(parse_wait_policy("passive"), WaitPolicy::kPassive);
  EXPECT_EQ(parse_wait_policy("  PASSIVE "), WaitPolicy::kPassive);
  EXPECT_EQ(parse_wait_policy("Active"), WaitPolicy::kActive);
  EXPECT_FALSE(parse_wait_policy("spin").has_value());
  EXPECT_FALSE(parse_wait_policy("").has_value());
}

TEST(WaitPolicyParseTest, EnvVariantReadsWaitPolicy) {
  unsetenv("OMP_WAIT_POLICY");
  setenv("ZOMP_WAIT_POLICY", "passive", 1);
  EXPECT_EQ(env_wait_policy(), WaitPolicy::kPassive);
  setenv("ZOMP_WAIT_POLICY", "nonsense", 1);
  EXPECT_FALSE(env_wait_policy().has_value());
  unsetenv("ZOMP_WAIT_POLICY");
  EXPECT_FALSE(env_wait_policy().has_value());
}

TEST(ProcBindEnvTest, EnvVariantReadsBindList) {
  unsetenv("OMP_PROC_BIND");
  setenv("ZOMP_PROC_BIND", "spread, close", 1);
  const auto list = env_proc_bind();
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0], BindKind::kSpread);
  EXPECT_EQ((*list)[1], BindKind::kClose);
  setenv("ZOMP_PROC_BIND", "sideways", 1);
  EXPECT_FALSE(env_proc_bind().has_value());
  unsetenv("ZOMP_PROC_BIND");
  EXPECT_FALSE(env_proc_bind().has_value());
}

TEST(ProcBindEnvTest, BindKindsNamed) {
  EXPECT_STREQ(bind_kind_name(BindKind::kFalse), "false");
  EXPECT_STREQ(bind_kind_name(BindKind::kTrue), "true");
  EXPECT_STREQ(bind_kind_name(BindKind::kPrimary), "primary");
  EXPECT_STREQ(bind_kind_name(BindKind::kClose), "close");
  EXPECT_STREQ(bind_kind_name(BindKind::kSpread), "spread");
}

// -- Unified malformed-env handling ------------------------------------------
//
// Every parser funnels bad input through warn_malformed_env: one stderr line
// per variable name (not per read), then the caller falls back to its
// default. The table sweeps garbage through each typed reader.

TEST(MalformedEnvWarnTest, WarnsAtMostOncePerVariable) {
  env_warn_reset_for_test();
  EXPECT_EQ(env_malformed_warning_count(), 0);
  warn_malformed_env("WARNVAR", "garbage");
  warn_malformed_env("WARNVAR", "different-garbage");
  warn_malformed_env("WARNVAR", "garbage", "with detail");
  EXPECT_EQ(env_malformed_warning_count(), 1);
  warn_malformed_env("OTHERVAR", "junk", "expected an integer");
  EXPECT_EQ(env_malformed_warning_count(), 2);
  env_warn_reset_for_test();
  EXPECT_EQ(env_malformed_warning_count(), 0);
}

struct GarbageEnvCase {
  const char* name;   // suffix; the test sets ZOMP_<name>
  const char* value;  // offending value
  int reader;         // 0 int, 1 bool, 2 schedule, 3 wait-policy, 4 proc-bind
};

class GarbageEnvTest : public ::testing::TestWithParam<GarbageEnvCase> {
 protected:
  void TearDown() override {
    unsetenv((std::string("ZOMP_") + GetParam().name).c_str());
    env_warn_reset_for_test();
  }
};

TEST_P(GarbageEnvTest, WarnsOnceAndFallsBackToDefault) {
  const GarbageEnvCase& c = GetParam();
  env_warn_reset_for_test();
  setenv((std::string("ZOMP_") + c.name).c_str(), c.value, 1);
  const auto read = [&] {
    switch (c.reader) {
      case 0: return !env_int(c.name).has_value();
      case 1: return !env_bool(c.name).has_value();
      case 2: return !env_schedule().has_value();
      case 3: return !env_wait_policy().has_value();
      default: return !env_proc_bind().has_value();
    }
  };
  // Rejected every time, warned exactly once across repeated reads.
  EXPECT_TRUE(read()) << c.name << "=" << c.value;
  EXPECT_TRUE(read()) << c.name << "=" << c.value;
  EXPECT_TRUE(read()) << c.name << "=" << c.value;
  EXPECT_EQ(env_malformed_warning_count(), 1) << c.name << "=" << c.value;
}

INSTANTIATE_TEST_SUITE_P(
    GarbageTable, GarbageEnvTest,
    ::testing::Values(GarbageEnvCase{"NUM_THREADS", "many", 0},
                      GarbageEnvCase{"NUM_THREADS", "4.5", 0},
                      GarbageEnvCase{"DYNAMIC", "perhaps", 1},
                      GarbageEnvCase{"SCHEDULE", "sometimes,fast", 2},
                      GarbageEnvCase{"SCHEDULE", "static,zero", 2},
                      GarbageEnvCase{"WAIT_POLICY", "spin", 3},
                      GarbageEnvCase{"PROC_BIND", "sideways", 4},
                      GarbageEnvCase{"PROC_BIND", "close,far", 4},
                      GarbageEnvCase{"METRICS", "sometimes", 1}));

// -- S12 observability ICVs ---------------------------------------------------

TEST(TraceEnvTest, EmptyTraceValueWarnsOnceAndStaysDisarmed) {
  env_warn_reset_for_test();
  setenv("ZOMP_TRACE", "", 1);
  // An empty path is malformed (nowhere to write): one funnel warning even
  // across re-reads, and the tracer stays disarmed with no output path.
  trace_init_from_env();
  trace_init_from_env();
  EXPECT_EQ(env_malformed_warning_count(), 1);
  EXPECT_TRUE(trace_output_path().empty());
  EXPECT_FALSE(trace_ring_enabled());
  unsetenv("ZOMP_TRACE");
  env_warn_reset_for_test();
}

TEST(MetricsEnvTest, MalformedMetricsValueWarnsAndStaysOff) {
  env_warn_reset_for_test();
  metrics_set_enabled_for_test(false);
  setenv("ZOMP_METRICS", "sometimes", 1);
  metrics_init_from_env();
  EXPECT_EQ(env_malformed_warning_count(), 1);
  EXPECT_FALSE(trace_counters_enabled());
  unsetenv("ZOMP_METRICS");
  env_warn_reset_for_test();
}

TEST(MetricsEnvTest, FalseMetricsValueStaysOffWithoutWarning) {
  env_warn_reset_for_test();
  metrics_set_enabled_for_test(false);
  setenv("ZOMP_METRICS", "false", 1);
  metrics_init_from_env();
  EXPECT_EQ(env_malformed_warning_count(), 0);
  EXPECT_FALSE(trace_counters_enabled());
  unsetenv("ZOMP_METRICS");
}

TEST(DisplayEnvTest, PrintsLibompStyleIcvTable) {
  ::testing::internal::CaptureStderr();
  GlobalIcv::instance().display_env(/*verbose=*/false);
  const std::string out = ::testing::internal::GetCapturedStderr();
  // libomp's fenced block format, one "  NAME = 'value'" line per ICV.
  EXPECT_NE(out.find("OPENMP DISPLAY ENVIRONMENT BEGIN"), std::string::npos)
      << out;
  EXPECT_NE(out.find("OPENMP DISPLAY ENVIRONMENT END"), std::string::npos);
  EXPECT_NE(out.find("  OMP_NUM_THREADS = '"), std::string::npos);
  EXPECT_NE(out.find("  OMP_SCHEDULE = '"), std::string::npos);
  EXPECT_NE(out.find("  OMP_WAIT_POLICY = '"), std::string::npos);
  EXPECT_NE(out.find("  OMP_PROC_BIND = '"), std::string::npos);
  EXPECT_NE(out.find("  OMP_CANCELLATION = '"), std::string::npos);
  // Terse mode omits the zomp extensions...
  EXPECT_EQ(out.find("ZOMP_FAULT_INJECT"), std::string::npos);
  EXPECT_EQ(out.find("ZOMP_TRACE"), std::string::npos);
  EXPECT_EQ(out.find("ZOMP_METRICS"), std::string::npos);

  ::testing::internal::CaptureStderr();
  GlobalIcv::instance().display_env(/*verbose=*/true);
  const std::string verbose = ::testing::internal::GetCapturedStderr();
  // ...verbose prints them.
  EXPECT_NE(verbose.find("  ZOMP_FAULT_INJECT = '"), std::string::npos)
      << verbose;
  EXPECT_NE(verbose.find("  ZOMP_TRACE = '"), std::string::npos) << verbose;
  EXPECT_NE(verbose.find("  ZOMP_METRICS = '"), std::string::npos) << verbose;
}

TEST(ScheduleNameTest, AllKindsNamed) {
  EXPECT_STREQ(schedule_kind_name(ScheduleKind::kStatic), "static");
  EXPECT_STREQ(schedule_kind_name(ScheduleKind::kDynamic), "dynamic");
  EXPECT_STREQ(schedule_kind_name(ScheduleKind::kGuided), "guided");
  EXPECT_STREQ(schedule_kind_name(ScheduleKind::kAuto), "auto");
  EXPECT_STREQ(schedule_kind_name(ScheduleKind::kRuntime), "runtime");
}

}  // namespace
}  // namespace zomp::rt
