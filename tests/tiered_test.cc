// Differential tests for the tier-1 baseline compiler (DESIGN.md §16).
//
// The tiered engine (RunCompiled over BaselineCompile output, OSR at loop
// backedges, deoptimization back to the quickened interpreter) and the
// reference switch interpreter must be observably identical: same
// CallOutcomes, same guest output, same virtual clock, same architectural
// counters (the tier_*/osr_entries/quickened_sites family is engine-internal
// by design). These tests pin that equivalence with tiering forced at
// threshold 1 over the synthetic workload applications, then exercise each
// deoptimization path on purpose-built classes: forced per-span deopt,
// exception throw from compiled code, inline-cache megamorphic retirement,
// class-redefinition discard, and mid-loop on-stack replacement. The last
// group pins hot-method hints: a hinted method compiles at Prepare and runs
// compiled from its first call, a hint naming nothing compiles nothing, a
// machine with tiering off ignores it, and replicas emit it byte-identically.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/compiler/compiler.h"
#include "src/proxy/proxy.h"
#include "src/rewrite/filter.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/runtime/tiered.h"
#include "src/services/verify_service.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"
#include "src/workloads/graphical.h"

namespace dvm {
namespace {

// The CI tier-smoke job runs the whole suite under DVM_TIER_THRESHOLD=1 /
// DVM_TIER_FORCE_DEOPT=1 to hammer every OTHER test with tiering on. This
// suite pins exact tier configurations, so it strips the overrides before the
// first Machine is constructed.
struct TierEnvGuard {
  TierEnvGuard() {
    unsetenv("DVM_TIER_THRESHOLD");
    unsetenv("DVM_TIER_FORCE_DEOPT");
  }
} tier_env_guard;

MachineConfig TieredConfig(uint64_t inv_threshold, uint64_t osr_threshold,
                           bool force_deopt = false) {
  MachineConfig config;
  config.quicken = true;
  config.tier_invocation_threshold = inv_threshold;
  config.tier_osr_threshold = osr_threshold;
  config.tier_force_deopt = force_deopt;
  return config;
}

MachineConfig ReferenceConfig() {
  MachineConfig config;
  config.quicken = false;
  return config;
}

// Runs `main_class.main()V` under the tiered engine and the reference switch
// interpreter and asserts every observable is identical. Returns the tiered
// machine's counters so callers can assert the tier paths actually ran.
RuntimeCounters RunTieredVsReference(const AppBundle& bundle, const MachineConfig& tier_config) {
  MapClassProvider provider_tier;
  InstallSystemLibrary(provider_tier);
  bundle.InstallInto(&provider_tier);
  MapClassProvider provider_ref;
  InstallSystemLibrary(provider_ref);
  bundle.InstallInto(&provider_ref);

  Machine tiered(tier_config, &provider_tier);
  Machine reference(ReferenceConfig(), &provider_ref);

  auto to = tiered.RunMain(bundle.main_class);
  auto ro = reference.RunMain(bundle.main_class);
  EXPECT_EQ(to.ok(), ro.ok()) << bundle.name;
  if (to.ok() && ro.ok()) {
    EXPECT_EQ(to->threw, ro->threw) << bundle.name;
    EXPECT_EQ(to->exception_class, ro->exception_class) << bundle.name;
    EXPECT_EQ(to->exception_message, ro->exception_message) << bundle.name;
    EXPECT_EQ(static_cast<int>(to->value.kind), static_cast<int>(ro->value.kind))
        << bundle.name;
    if (to->value.kind != Value::Kind::kRef) {
      EXPECT_EQ(to->value.num, ro->value.num) << bundle.name;
    }
  }
  EXPECT_EQ(tiered.printed(), reference.printed()) << bundle.name;
  EXPECT_EQ(tiered.virtual_nanos(), reference.virtual_nanos()) << bundle.name;

  const RuntimeCounters& tc = tiered.counters();
  const RuntimeCounters& rc = reference.counters();
  EXPECT_EQ(tc.instructions, rc.instructions) << bundle.name;
  EXPECT_EQ(tc.method_invocations, rc.method_invocations) << bundle.name;
  EXPECT_EQ(tc.native_calls, rc.native_calls) << bundle.name;
  EXPECT_EQ(tc.allocations, rc.allocations) << bundle.name;
  EXPECT_EQ(tc.allocated_bytes, rc.allocated_bytes) << bundle.name;
  EXPECT_EQ(tc.gc_runs, rc.gc_runs) << bundle.name;
  EXPECT_EQ(tc.classes_loaded, rc.classes_loaded) << bundle.name;
  EXPECT_EQ(tc.exceptions_thrown, rc.exceptions_thrown) << bundle.name;
  // The reference engine never quickens and never tiers.
  EXPECT_EQ(rc.quickened_sites, 0u) << bundle.name;
  EXPECT_EQ(rc.tier_compiles, 0u) << bundle.name;
  return tc;
}

TEST(TieredDifferential, Fig5AppsAtThresholdOneAreEngineIdentical) {
  uint64_t compiles = 0;
  for (const AppBundle& bundle : BuildFig5Apps(/*work_scale=*/1)) {
    compiles += RunTieredVsReference(bundle, TieredConfig(1, 1)).tier_compiles;
  }
  EXPECT_GT(compiles, 0u) << "threshold 1 never tiered a fig5 method";
}

TEST(TieredDifferential, GraphicalAppsAtThresholdOneAreEngineIdentical) {
  for (const AppBundle& bundle : BuildGraphicalApps()) {
    RunTieredVsReference(bundle, TieredConfig(1, 1));
  }
}

TEST(TieredDifferential, AppletPopulationAtThresholdOneIsEngineIdentical) {
  for (const AppBundle& bundle : BuildAppletPopulation(/*count=*/12, /*seed=*/7)) {
    RunTieredVsReference(bundle, TieredConfig(1, 1));
  }
}

// tier_force_deopt bounds every compiled activation to one span before
// bailing out, so mixed compiled/interpreted execution covers every deopt
// resume point — and must still be observably identical.
TEST(TieredDifferential, ForcedDeoptPerSpanStaysEngineIdentical) {
  uint64_t deopts = 0;
  for (const AppBundle& bundle : BuildFig5Apps(/*work_scale=*/1)) {
    deopts += RunTieredVsReference(bundle, TieredConfig(1, 1, /*force_deopt=*/true)).tier_deopts;
  }
  EXPECT_GT(deopts, 0u) << "forced deopt never fired";
}

class TieredRegressionTest : public ::testing::Test {
 protected:
  TieredRegressionTest() { InstallSystemLibrary(provider_); }

  void AddClass(ClassBuilder& cb) {
    auto built = cb.Build();
    ASSERT_TRUE(built.ok()) << built.error().ToString();
    provider_.AddClassFile(built.value());
  }

  MapClassProvider provider_;
};

// sum(0..9999) in one invocation: with the invocation trigger disabled, the
// only way into compiled code is on-stack replacement at a loop backedge —
// and the OSR'd run must produce the same value as the cold reference run.
TEST_F(TieredRegressionTest, OsrEntersMidLoopAndMatchesReference) {
  ClassBuilder cb("app/Osr", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "work", "()I");
  Label loop = m.NewLabel(), end = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 0).PushInt(0).StoreLocal("I", 1);
  m.Bind(loop).LoadLocal("I", 1).PushInt(10'000).Branch(Op::kIfIcmpge, end)
      .LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kIadd).StoreLocal("I", 0)
      .Emit(Op::kIinc, 1, 1)
      .Branch(Op::kGoto, loop);
  m.Bind(end).LoadLocal("I", 0).Emit(Op::kIreturn);
  AddClass(cb);

  Machine tiered(TieredConfig(/*inv=*/0, /*osr=*/100), &provider_);
  auto outcome = tiered.CallStatic("app/Osr", "work", "()I");
  ASSERT_TRUE(outcome.ok()) << outcome.error().ToString();
  ASSERT_FALSE(outcome->threw);
  EXPECT_EQ(outcome->value.AsInt(), 49'995'000);
  EXPECT_GE(tiered.counters().osr_entries, 1u);
  EXPECT_GE(tiered.counters().tier_compiles, 1u);

  Machine reference(ReferenceConfig(), &provider_);
  auto cold = reference.CallStatic("app/Osr", "work", "()I");
  ASSERT_TRUE(cold.ok()) << cold.error().ToString();
  EXPECT_EQ(cold->value.AsInt(), outcome->value.AsInt());
  EXPECT_EQ(reference.counters().instructions, tiered.counters().instructions);
  EXPECT_EQ(reference.virtual_nanos(), tiered.virtual_nanos());
}

// A guest exception raised by a compiled checked op (idiv by zero) must bail
// to the interpreter (tier_deopts) and surface exactly like the reference
// engine's exception.
TEST_F(TieredRegressionTest, ExceptionThrowDeoptimizes) {
  ClassBuilder cb("app/Boom", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "work", "()I")
      .PushInt(10).PushInt(0).Emit(Op::kIdiv).Emit(Op::kIreturn);
  AddClass(cb);

  Machine tiered(TieredConfig(1, 1), &provider_);
  Machine reference(ReferenceConfig(), &provider_);
  for (int round = 0; round < 3; round++) {
    auto to = tiered.CallStatic("app/Boom", "work", "()I");
    auto ro = reference.CallStatic("app/Boom", "work", "()I");
    ASSERT_TRUE(to.ok()) << to.error().ToString();
    ASSERT_TRUE(ro.ok()) << ro.error().ToString();
    EXPECT_TRUE(to->threw);
    EXPECT_EQ(to->exception_class, ro->exception_class);
    EXPECT_EQ(to->exception_class, "java/lang/ArithmeticException");
    EXPECT_EQ(to->exception_message, ro->exception_message);
  }
  EXPECT_GE(tiered.counters().tier_compiles, 1u);
  EXPECT_GE(tiered.counters().tier_deopts, 1u);
  EXPECT_EQ(tiered.counters().exceptions_thrown, reference.counters().exceptions_thrown);
}

// A virtual site inside compiled code that keeps changing receiver class goes
// megamorphic: the direct-call assumption is dead, the compiled body is
// retired, and execution continues (correctly) in the interpreter.
TEST_F(TieredRegressionTest, MegamorphicSiteRetiresCompiledCode) {
  ClassBuilder base("app/MBase", "java/lang/Object");
  base.AddDefaultConstructor();
  base.AddMethod(AccessFlags::kPublic, "m", "()I").PushInt(1).Emit(Op::kIreturn);
  AddClass(base);
  ClassBuilder sub("app/MSub", "app/MBase");
  sub.AddDefaultConstructor();
  sub.AddMethod(AccessFlags::kPublic, "m", "()I").PushInt(2).Emit(Op::kIreturn);
  AddClass(sub);

  ClassBuilder cb("app/MPoly", "java/lang/Object");
  MethodBuilder& call = cb.AddMethod(AccessFlags::kStatic, "call", "(Lapp/MBase;)I");
  call.LoadLocal("L", 0).InvokeVirtual("app/MBase", "m", "()I").Emit(Op::kIreturn);
  MethodBuilder& go = cb.AddMethod(AccessFlags::kStatic, "go", "()I");
  // Eight MBase/MSub pairs through ONE shared invokevirtual site: each
  // receiver flip is an inline-cache transition, far past the megamorphic
  // threshold. Expected sum: 8 * (1 + 2) = 24.
  go.PushInt(0).StoreLocal("I", 0);
  for (int pair = 0; pair < 8; pair++) {
    for (const char* cls : {"app/MBase", "app/MSub"}) {
      go.New(cls).Emit(Op::kDup).InvokeSpecial(cls, "<init>", "()V")
          .InvokeStatic("app/MPoly", "call", "(Lapp/MBase;)I")
          .LoadLocal("I", 0).Emit(Op::kIadd).StoreLocal("I", 0);
    }
  }
  go.LoadLocal("I", 0).Emit(Op::kIreturn);
  AddClass(cb);

  Machine tiered(TieredConfig(1, 1), &provider_);
  Machine reference(ReferenceConfig(), &provider_);
  auto to = tiered.CallStatic("app/MPoly", "go", "()I");
  auto ro = reference.CallStatic("app/MPoly", "go", "()I");
  ASSERT_TRUE(to.ok()) << to.error().ToString();
  ASSERT_TRUE(ro.ok()) << ro.error().ToString();
  ASSERT_FALSE(to->threw);
  EXPECT_EQ(to->value.AsInt(), 24);
  EXPECT_EQ(ro->value.AsInt(), 24);
  EXPECT_GE(tiered.counters().tier_compiles, 1u);
  // The retired body deopts at its next span boundary.
  EXPECT_GE(tiered.counters().tier_deopts, 1u);

  // The site stays correct after retirement.
  auto again = tiered.CallStatic("app/MPoly", "go", "()I");
  ASSERT_TRUE(again.ok()) << again.error().ToString();
  EXPECT_EQ(again->value.AsInt(), 24);
}

// Class redefinition discards every compiled method fleet-wide (the proxy's
// push invalidates caches); subsequent calls run interpreted, stay correct,
// and the method may tier up AGAIN — redefinition, unlike megamorphic
// retirement, does not block recompilation.
TEST_F(TieredRegressionTest, RedefinitionDiscardsThenRetiers) {
  ClassBuilder cb("app/Redef", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "work", "()I")
      .PushInt(20).PushInt(21).Emit(Op::kIadd).Emit(Op::kIreturn);
  AddClass(cb);

  Machine tiered(TieredConfig(1, 1), &provider_);
  auto first = tiered.CallStatic("app/Redef", "work", "()I");
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  EXPECT_EQ(first->value.AsInt(), 41);
  const uint64_t compiles_before = tiered.counters().tier_compiles;
  EXPECT_GE(compiles_before, 1u);

  tiered.DiscardTieredCode();

  auto second = tiered.CallStatic("app/Redef", "work", "()I");
  ASSERT_TRUE(second.ok()) << second.error().ToString();
  EXPECT_EQ(second->value.AsInt(), 41);
  // Re-tiered from scratch after the discard.
  EXPECT_GT(tiered.counters().tier_compiles, compiles_before);
}

// ---------------------------------------------------------------------------
// Hot-method hints: the proxy names hot methods (kAttrHotMethods) and a
// tiering client compiles them locally at Prepare. The hint is advice, never
// code.
// ---------------------------------------------------------------------------

// app/Hot.work sums 0..99 in a loop; main prints whether it got 4950.
ClassFile HotLoopClass() {
  ClassBuilder cb("app/Hot", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "work", "()I");
  Label loop = m.NewLabel(), end = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 0).PushInt(0).StoreLocal("I", 1);
  m.Bind(loop).LoadLocal("I", 1).PushInt(100).Branch(Op::kIfIcmpge, end)
      .LoadLocal("I", 0).LoadLocal("I", 1).Emit(Op::kIadd).StoreLocal("I", 0)
      .Emit(Op::kIinc, 1, 1)
      .Branch(Op::kGoto, loop);
  m.Bind(end).LoadLocal("I", 0).Emit(Op::kIreturn);
  MethodBuilder& main = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  Label wrong = main.NewLabel();
  main.InvokeStatic("app/Hot", "work", "()I").PushInt(4950).Branch(Op::kIfIcmpne, wrong)
      .PushString("4950").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V")
      .Emit(Op::kReturn);
  main.Bind(wrong)
      .PushString("wrong").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V")
      .Emit(Op::kReturn);
  return cb.Build().value();
}

AppBundle HotBundle(ClassFile cls) {
  AppBundle bundle;
  bundle.name = "hot";
  bundle.main_class = "app/Hot";
  bundle.classes.push_back(std::move(cls));
  return bundle;
}

// app/Hot with its hint attribute set to `payload` by hand.
AppBundle HotBundleWithHint(const std::string& payload) {
  ClassFile cls = HotLoopClass();
  cls.SetAttribute(kAttrHotMethods, Bytes(payload.begin(), payload.end()));
  return HotBundle(std::move(cls));
}

// Production thresholds: nothing in these runs gets hot on its own.
MachineConfig ProductionConfig(bool force_deopt = false) {
  return TieredConfig(10'000, 10'000, force_deopt);
}

class HotMethodHintTest : public ::testing::Test {
 protected:
  HotMethodHintTest() : library_(BuildSystemLibrary()) {
    InstallSystemLibrary(origin_);
    origin_.AddClassFile(HotLoopClass());
    for (const auto& cls : library_) {
      env_.Add(&cls);
    }
  }

  // A proxy whose compiler filter hints `hot` for app/Hot (the warm-fleet
  // path).
  std::unique_ptr<DvmProxy> MakeHintingProxy(std::set<std::string> hot) {
    auto proxy = std::make_unique<DvmProxy>(ProxyConfig{}, &env_, &origin_);
    proxy->AddFilter(std::make_unique<VerificationFilter>());
    auto compiler = std::make_unique<CompilerFilter>("");
    compiler->SetHotMethods({{"app/Hot", std::move(hot)}});
    proxy->AddFilter(std::move(compiler));
    return proxy;
  }

  MapClassProvider origin_;
  std::vector<ClassFile> library_;
  MapClassEnv env_;
};

TEST_F(HotMethodHintTest, HintedMethodCompilesAtPrepareAndRunsCompiled) {
  auto proxy = MakeHintingProxy({"work:()I"});
  auto response = proxy->HandleRequest("app/Hot");
  ASSERT_TRUE(response.ok()) << response.error().ToString();
  auto shipped = ReadClassFile(response->data);
  ASSERT_TRUE(shipped.ok()) << shipped.error().ToString();
  const AppBundle bundle = HotBundle(shipped.value());

  // work runs once with 100 backedges, far below the thresholds, yet it is
  // compiled at Prepare; output, virtual clock and architectural counters
  // still equal the reference engine's.
  RuntimeCounters counters = RunTieredVsReference(bundle, ProductionConfig());
  EXPECT_EQ(counters.tier_compiles, 1u);
  EXPECT_EQ(counters.osr_entries, 0u);

  // With per-span deopt forced, the one invocation of work deoptimizes, so
  // it entered compiled code on that first invocation.
  counters = RunTieredVsReference(bundle, ProductionConfig(/*force_deopt=*/true));
  EXPECT_EQ(counters.tier_compiles, 1u);
  EXPECT_GE(counters.tier_deopts, 1u);
}

// Junk bytes, an empty hint, and ids naming no method of the class (a wrong
// descriptor, another class's method, a near miss) compile nothing and change
// no observable.
TEST_F(HotMethodHintTest, HintNamingNoMethodCompilesNothing) {
  const RuntimeCounters plain = RunTieredVsReference(HotBundle(HotLoopClass()), ProductionConfig());
  EXPECT_EQ(plain.tier_compiles, 0u);
  const std::string junk("\xff\x00\nwork:()I\x01\n\x80\xfe", 15);
  for (const std::string& payload :
       {junk, std::string(), std::string("work:()J"), std::string("call:(Lapp/MBase;)I"),
        std::string("work:()I "), std::string("\n\n"), std::string("work")}) {
    const RuntimeCounters counters =
        RunTieredVsReference(HotBundleWithHint(payload), ProductionConfig());
    EXPECT_EQ(counters.tier_compiles, 0u) << payload;
    EXPECT_EQ(counters.instructions, plain.instructions) << payload;
    EXPECT_EQ(counters.method_invocations, plain.method_invocations) << payload;
  }
}

// A machine with tiering off never compiles, hint or not.
TEST_F(HotMethodHintTest, TieringOffMachineIgnoresHint) {
  const AppBundle bundle = HotBundleWithHint("work:()I");
  EXPECT_EQ(RunTieredVsReference(bundle, ReferenceConfig()).tier_compiles, 0u);
  EXPECT_EQ(RunTieredVsReference(bundle, TieredConfig(0, 0)).tier_compiles, 0u);
  // The same bytes on a tiering machine compile the hinted method.
  EXPECT_EQ(RunTieredVsReference(bundle, ProductionConfig()).tier_compiles, 1u);
}

// Replicas given the same hot set emit byte-identical artifacts, hint
// included, and the hint lists the ids sorted and '\n'-joined.
TEST_F(HotMethodHintTest, ReplicasEmitIdenticalHintedArtifacts) {
  const std::string key = DvmProxy::RewriteCacheKey("app/Hot", "");
  std::vector<Bytes> artifacts;
  for (int replica = 0; replica < 3; replica++) {
    auto proxy = MakeHintingProxy({"work:()I", "main:()V"});
    ASSERT_TRUE(proxy->HandleRequest("app/Hot").ok());
    auto cached = proxy->cache().Peek(key);
    ASSERT_TRUE(cached.has_value());
    artifacts.push_back(cached->main_class);
  }
  EXPECT_EQ(artifacts[1], artifacts[0]);
  EXPECT_EQ(artifacts[2], artifacts[0]);

  auto cls = ReadClassFile(artifacts[0]);
  ASSERT_TRUE(cls.ok()) << cls.error().ToString();
  const Attribute* hint = cls->FindAttribute(kAttrHotMethods);
  ASSERT_NE(hint, nullptr);
  EXPECT_EQ(std::string(hint->data.begin(), hint->data.end()), "main:()V\nwork:()I");
}

}  // namespace
}  // namespace dvm
