#include <gtest/gtest.h>

#include "src/runtime/machine.h"
#include "src/support/stats.h"
#include "src/runtime/syslib.h"
#include "src/verifier/verifier.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"
#include "src/workloads/graphical.h"

namespace dvm {
namespace {

// Shared verification helper: every class of the bundle must pass the static
// verifier when the whole bundle plus the library is visible.
void ExpectBundleVerifies(const AppBundle& bundle) {
  static const std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }
  for (const auto& cls : bundle.classes) {
    env.Add(&cls);
  }
  for (const auto& cls : bundle.classes) {
    auto verified = VerifyClass(cls, env);
    ASSERT_TRUE(verified.ok()) << cls.name() << ": "
                               << (verified.ok() ? "" : verified.error().ToString());
  }
}

CallOutcome RunBundle(const AppBundle& bundle) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  bundle.InstallInto(&provider);
  Machine machine({}, &provider);
  auto out = machine.RunMain(bundle.main_class);
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
  EXPECT_FALSE(out->threw) << out->exception_class << ": " << out->exception_message;
  EXPECT_EQ(machine.printed().size(), 1u);
  return out.ok() ? out.value() : CallOutcome{};
}

struct Fig5Case {
  const char* name;
  AppBundle (*build)(int);
  int classes;       // Figure 5 class count
  uint64_t size_kb;  // Figure 5 wire size
};

// gtest would otherwise print the raw struct bytes (pointers and padding),
// which change with every process under ASLR and so rename the ctest cases on
// every build.
void PrintTo(const Fig5Case& c, std::ostream* os) {
  *os << c.name << " (" << c.classes << " classes, " << c.size_kb << " KB)";
}

class Fig5AppTest : public ::testing::TestWithParam<Fig5Case> {};

TEST_P(Fig5AppTest, MatchesFigure5ShapeAndRuns) {
  const Fig5Case& param = GetParam();
  AppBundle bundle = param.build(1);
  EXPECT_EQ(bundle.classes.size(), static_cast<size_t>(param.classes));

  // Wire size within ~40% of the paper's table.
  double size_kb = static_cast<double>(bundle.TotalBytes()) / 1024.0;
  EXPECT_GT(size_kb, static_cast<double>(param.size_kb) * 0.6) << size_kb;
  EXPECT_LT(size_kb, static_cast<double>(param.size_kb) * 1.4) << size_kb;

  ExpectBundleVerifies(bundle);
  RunBundle(bundle);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, Fig5AppTest,
    ::testing::Values(Fig5Case{"jlex", BuildJlexApp, 20, 91},
                      Fig5Case{"javacup", BuildJavacupApp, 35, 130},
                      Fig5Case{"pizza", BuildPizzaApp, 241, 825},
                      Fig5Case{"instantdb", BuildInstantdbApp, 70, 312},
                      Fig5Case{"cassowary", BuildCassowaryApp, 34, 85}),
    [](const ::testing::TestParamInfo<Fig5Case>& info) { return info.param.name; });

TEST(WorkloadsTest, AppsAreDeterministic) {
  AppBundle a = BuildJlexApp(1);
  AppBundle b = BuildJlexApp(1);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  EXPECT_EQ(a.TotalBytes(), b.TotalBytes());

  auto run = [](const AppBundle& bundle) {
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    bundle.InstallInto(&provider);
    Machine machine({}, &provider);
    auto out = machine.RunMain(bundle.main_class);
    EXPECT_TRUE(out.ok());
    return machine.printed();
  };
  EXPECT_EQ(run(a), run(b));
}

TEST(WorkloadsTest, WorkScaleIncreasesRuntime) {
  auto time_of = [](int scale) {
    AppBundle bundle = BuildCassowaryApp(scale);
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    bundle.InstallInto(&provider);
    Machine machine({}, &provider);
    EXPECT_TRUE(machine.RunMain(bundle.main_class).ok());
    return machine.virtual_nanos();
  };
  EXPECT_GT(time_of(3), 2 * time_of(1));
}

TEST(WorkloadsTest, GraphicalAppsRunAndCarryColdCode) {
  for (const auto& spec : GraphicalAppSpecs()) {
    AppBundle bundle = GenerateGraphicalApp(spec);
    EXPECT_EQ(bundle.classes.size(), static_cast<size_t>(spec.class_count + 1));
    ExpectBundleVerifies(bundle);
    RunBundle(bundle);
    // Cold code in the 10-30% band the paper measured (section 5).
    double cold_fraction =
        static_cast<double>(spec.cold_instructions) /
        static_cast<double>(spec.cold_instructions + spec.hot_instructions);
    EXPECT_GT(cold_fraction, 0.08);
    EXPECT_LT(cold_fraction, 0.40);
  }
}

TEST(WorkloadsTest, GraphicalSuiteSpansSizes) {
  auto apps = BuildGraphicalApps();
  ASSERT_EQ(apps.size(), 6u);
  uint64_t largest = apps.front().TotalBytes();
  uint64_t smallest = apps.back().TotalBytes();
  EXPECT_GT(largest, 4 * smallest);  // a real size spread, like the 1999 suite
}

TEST(WorkloadsTest, AppletPopulationShape) {
  auto applets = BuildAppletPopulation(100, 7);
  ASSERT_EQ(applets.size(), 100u);
  RunningStats sizes;
  for (const auto& applet : applets) {
    sizes.Add(static_cast<double>(applet.TotalBytes()));
    EXPECT_GE(applet.classes.size(), 2u);  // Main + >=1 part
  }
  // Mean in the tens of KB with real spread.
  EXPECT_GT(sizes.mean(), 30'000.0);
  EXPECT_LT(sizes.mean(), 120'000.0);
  EXPECT_GT(sizes.stddev(), 10'000.0);
}

TEST(WorkloadsTest, AppletsAreRunnable) {
  auto applets = BuildAppletPopulation(5, 11);
  for (const auto& applet : applets) {
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    applet.InstallInto(&provider);
    Machine machine({}, &provider);
    auto out = machine.RunMain(applet.main_class);
    ASSERT_TRUE(out.ok()) << out.error().ToString();
    EXPECT_FALSE(out->threw);
  }
}

TEST(WorkloadsTest, AppletPopulationDeterministicPerSeed) {
  auto a = BuildAppletPopulation(10, 3);
  auto b = BuildAppletPopulation(10, 3);
  auto c = BuildAppletPopulation(10, 4);
  uint64_t total_a = 0, total_b = 0, total_c = 0;
  for (int i = 0; i < 10; i++) {
    total_a += a[static_cast<size_t>(i)].TotalBytes();
    total_b += b[static_cast<size_t>(i)].TotalBytes();
    total_c += c[static_cast<size_t>(i)].TotalBytes();
  }
  EXPECT_EQ(total_a, total_b);
  EXPECT_NE(total_a, total_c);
}

}  // namespace
}  // namespace dvm
