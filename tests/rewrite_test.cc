#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/bytecode/stack_effect.h"
#include "src/rewrite/filter.h"
#include "src/rewrite/method_editor.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

// A loop method whose first instruction is a backward-branch target, to
// exercise the "guard runs once" insertion semantics.
ClassFile BuildLoopClass() {
  ClassBuilder cb("rw/Loop", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.LoadLocal("I", 1).LoadLocal("I", 0).Emit(Op::kIadd).StoreLocal("I", 1);
  m.Emit(Op::kIinc, 0, -1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 1).Emit(Op::kIreturn);
  return MustBuild(cb);
}

int RunF(const ClassFile& cls, int arg) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  provider.AddClassFile(cls);
  Machine machine({}, &provider);
  auto out = machine.CallStatic(cls.name(), "f", "(I)I", {Value::Int(arg)});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
  EXPECT_FALSE(out->threw) << out->exception_class;
  return out->value.AsInt();
}

TEST(MethodEditorTest, InsertAtEntryPreservesSemantics) {
  ClassFile cls = BuildLoopClass();
  int before = RunF(cls, 10);

  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  // Harmless preamble: push + pop.
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 42, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());

  EXPECT_EQ(RunF(cls, 10), before);
}

TEST(MethodEditorTest, BackwardBranchSkipsInsertedCode) {
  // Count how many times the preamble executes by making it increment a
  // static counter; a back edge to the old first instruction must not re-run
  // the preamble.
  ClassBuilder cb("rw/Guard", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic | AccessFlags::kPublic, "count", "I");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.Emit(Op::kIinc, 0, -1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done).GetStatic("rw/Guard", "count", "I").Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);

  MethodInfo* method = cls.FindMethod("f", "(I)I");
  uint16_t counter = cls.pool().AddFieldRef("rw/Guard", "count", "I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor
                  ->InsertBefore(0, {{Op::kGetstatic, counter, 0},
                                     {Op::kIconst1, 0, 0},
                                     {Op::kIadd, 0, 0},
                                     {Op::kPutstatic, counter, 0}})
                  .ok());
  ASSERT_TRUE(editor->Commit().ok());

  // Loop runs 5 iterations; preamble must execute exactly once.
  EXPECT_EQ(RunF(cls, 5), 1);
}

TEST(MethodEditorTest, RewrittenClassStillVerifies) {
  ClassFile cls = BuildLoopClass();
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 1, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());

  ClassBuilder obj_cb("java/lang/Object", "");
  obj_cb.AddDefaultConstructor();
  ClassFile object = MustBuild(obj_cb);
  MapClassEnv env;
  env.Add(&object);
  auto verified = VerifyClass(cls, env);
  EXPECT_TRUE(verified.ok()) << (verified.ok() ? "" : verified.error().ToString());
}

TEST(MethodEditorTest, HandlerRangesShiftWithCode) {
  ClassBuilder cb("rw/Handler", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label start = m.NewLabel(), end = m.NewLabel(), handler = m.NewLabel();
  m.Bind(start);
  m.PushInt(10).LoadLocal("I", 0).Emit(Op::kIdiv).Emit(Op::kIreturn);
  m.Bind(end);
  m.Bind(handler);
  m.Emit(Op::kPop).PushInt(-1).Emit(Op::kIreturn);
  m.AddHandler(start, end, handler, "java/lang/ArithmeticException");
  ClassFile cls = MustBuild(cb);

  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 9, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());

  EXPECT_EQ(RunF(cls, 2), 5);    // normal path
  EXPECT_EQ(RunF(cls, 0), -1);   // divide by zero caught by shifted handler
}

TEST(MethodEditorTest, MaxStackGrowsWhenNeeded) {
  ClassFile cls = BuildLoopClass();
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  uint16_t old_stack = method->code->max_stack;
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  std::vector<Instr> deep;
  for (int i = 0; i < 6; i++) {
    deep.push_back({Op::kBipush, i, 0});
  }
  for (int i = 0; i < 5; i++) {
    deep.push_back({Op::kIadd, 0, 0});
  }
  deep.push_back({Op::kPop, 0, 0});
  ASSERT_TRUE(editor->InsertBefore(0, deep).ok());
  ASSERT_TRUE(editor->Commit().ok());
  EXPECT_GE(method->code->max_stack, 6);
  EXPECT_GT(method->code->max_stack, old_stack);
  EXPECT_EQ(RunF(cls, 4), 10);
}

TEST(MethodEditorTest, ReplaceSwapsInstruction) {
  ClassBuilder cb("rw/Rep", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  m.LoadLocal("I", 0).PushInt(3).Emit(Op::kIadd).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  // Replace iadd (index 2) with isub.
  ASSERT_TRUE(editor->Replace(2, {{Op::kIsub, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());
  EXPECT_EQ(RunF(cls, 10), 7);
}

TEST(MethodEditorTest, OpenFailsOnBodylessMethod) {
  ClassBuilder cb("rw/Nat", "java/lang/Object");
  cb.AddNativeMethod(AccessFlags::kStatic, "n", "()V");
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(MethodEditor::Open(&cls, cls.FindMethod("n", "()V")).ok());
}

// `iconst_0; goto 0`: every trip round the loop pushes one more int, so the
// depth never settles. Assembled by hand, since the builder runs the same
// max-stack propagation and now refuses the body.
ClassFile BuildStackGrowthLoop() {
  ClassBuilder cb("rw/Grow", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()V").Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  MethodInfo* method = cls.FindMethod("f", "()V");
  method->code->code = EncodeCode({{Op::kIconst0, 0, 0}, {Op::kGoto, 0, 0}}).value();
  method->code->max_stack = 1;
  return cls;
}

TEST(MaxStackDepthTest, StackGrowingLoopFailsWithCapacity) {
  ClassFile cls = BuildStackGrowthLoop();
  std::vector<Instr> loop = {{Op::kIconst0, 0, 0}, {Op::kGoto, 0, 0}};
  auto depth = ComputeMaxStackDepth(loop, cls.pool(), {});
  ASSERT_FALSE(depth.ok());
  EXPECT_EQ(depth.error().code, ErrorCode::kCapacity);
  EXPECT_EQ(depth.error().message, "max stack exceeds 65535");
}

TEST(MaxStackDepthTest, HandlerEntriesStartWithTheThrownReference) {
  ClassFile cls = BuildLoopClass();
  std::vector<Instr> body = {{Op::kReturn, 0, 0}, {Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
  auto depth = ComputeMaxStackDepth(body, cls.pool(), {1});
  ASSERT_TRUE(depth.ok()) << depth.error().ToString();
  EXPECT_EQ(*depth, 1);
  auto without_handler = ComputeMaxStackDepth(body, cls.pool(), {});
  ASSERT_TRUE(without_handler.ok());  // the pop is unreachable without the handler edge
  EXPECT_EQ(*without_handler, 0);
}

TEST(MaxStackDepthTest, BuilderRefusesStackGrowingLoop) {
  ClassBuilder cb("rw/Grow", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()V");
  Label top = m.NewLabel();
  m.Bind(top).PushInt(0).Branch(Op::kGoto, top);
  auto built = cb.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code, ErrorCode::kCapacity);
}

// The audit rewriter on unverified code (a proxy with verification off, or
// audit stacked without verification in front) used to spin forever on this
// body; it must fail closed instead.
TEST(AuditFilterTest, StackGrowingLoopFailsClosed) {
  MapClassEnv env;
  FilterPipeline pipeline(&env);
  pipeline.Add(std::make_unique<AuditFilter>());
  auto result = pipeline.Run(BuildStackGrowthLoop());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kCapacity);
  EXPECT_EQ(result.error().message, "max stack exceeds 65535");
}

// --- filter pipeline -------------------------------------------------------------

class CountingFilter : public CodeFilter {
 public:
  explicit CountingFilter(std::string tag, std::vector<std::string>* order)
      : tag_(std::move(tag)), order_(order) {}
  std::string name() const override { return tag_; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) override {
    order_->push_back(tag_);
    FilterOutcome outcome;
    outcome.checks_performed = 1;
    return outcome;
  }

 private:
  std::string tag_;
  std::vector<std::string>* order_;
};

class RenamingFilter : public CodeFilter {
 public:
  std::string name() const override { return "renamer"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) override {
    FilterOutcome outcome;
    ClassBuilder cb("rw/Replaced", "java/lang/Object");
    outcome.replacement = cb.Build().value();
    return outcome;
  }
};

TEST(FilterPipelineTest, RunsFiltersInStackingOrder) {
  std::vector<std::string> order;
  MapClassEnv env;
  FilterPipeline pipeline(&env);
  pipeline.Add(std::make_unique<CountingFilter>("first", &order));
  pipeline.Add(std::make_unique<CountingFilter>("second", &order));

  ClassBuilder cb("rw/P", "java/lang/Object");
  auto result = pipeline.Run(MustBuild(cb));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(result->checks_performed, 2u);
  EXPECT_EQ(result->filters_run.size(), 2u);
  EXPECT_FALSE(result->modified);
}

TEST(FilterPipelineTest, ReplacementClassFlowsThrough) {
  MapClassEnv env;
  FilterPipeline pipeline(&env);
  pipeline.Add(std::make_unique<RenamingFilter>());
  ClassBuilder cb("rw/Original", "java/lang/Object");
  auto result = pipeline.Run(MustBuild(cb));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->class_name, "rw/Replaced");
  EXPECT_TRUE(result->modified);
  auto back = ReadClassFile(result->class_bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "rw/Replaced");
}

TEST(FilterPipelineTest, ParsesBytesOnce) {
  MapClassEnv env;
  FilterPipeline pipeline(&env);
  ClassBuilder cb("rw/Bytes", "java/lang/Object");
  ClassFile cls = MustBuild(cb);
  auto result = pipeline.Run(MustWriteClassFile(cls));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->class_name, "rw/Bytes");
}

}  // namespace
}  // namespace dvm
