// Property-based sweeps over the toolchain invariants:
//   1. every opcode encode/decode round-trips,
//   2. randomly generated (stack-disciplined) programs verify, serialize,
//      execute deterministically, and survive rewriting unchanged,
//   3. random byte mutations of valid class files never crash the parser,
//      verifier, or interpreter — they fail cleanly or run safely,
//   4. random object graphs survive garbage collection exactly when reachable.
#include <gtest/gtest.h>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/rewrite/method_editor.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/support/rng.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

// ---------------------------------------------------------------------------
// 1. Opcode round-trip sweep.
// ---------------------------------------------------------------------------

std::vector<Op> AllOps() {
  std::vector<Op> ops;
  for (int raw = 0; raw < 256; raw++) {
    if (GetOpInfo(static_cast<uint8_t>(raw)) != nullptr) {
      ops.push_back(static_cast<Op>(raw));
    }
  }
  return ops;
}

class OpcodeRoundTripTest : public ::testing::TestWithParam<Op> {};

TEST_P(OpcodeRoundTripTest, EncodeDecodeRoundTrips) {
  Op op = GetParam();
  const OpInfo* info = GetOpInfo(op);
  ASSERT_NE(info, nullptr);

  Instr instr{op, 0, 0};
  switch (info->operands) {
    case OperandKind::kI8:
      instr.a = -77;
      break;
    case OperandKind::kI16:
      instr.a = -12345;
      break;
    case OperandKind::kU8:
      instr.a = 200;
      break;
    case OperandKind::kCpIndex:
      instr.a = 1234;
      break;
    case OperandKind::kBranch16:
      instr.a = 1;  // target: the trailing return
      break;
    case OperandKind::kLocalIncr:
      instr.a = 9;
      instr.b = -3;
      break;
    case OperandKind::kArrayKind:
      instr.a = static_cast<int>(ArrayKind::kLong);
      break;
    case OperandKind::kNone:
      break;
  }
  std::vector<Instr> code = {instr, {Op::kReturn, 0, 0}};
  auto encoded = EncodeCode(code);
  if (IsQuickOp(op)) {
    // Quick forms are runtime-internal: they never serialize and a class file
    // carrying one must not decode.
    EXPECT_FALSE(encoded.ok());
    return;
  }
  ASSERT_TRUE(encoded.ok()) << encoded.error().ToString();
  auto decoded = DecodeCode(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->instrs, code);
  EXPECT_EQ(static_cast<int>((*encoded).size()),
            InstructionLength(op) + InstructionLength(Op::kReturn));
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeRoundTripTest, ::testing::ValuesIn(AllOps()),
                         [](const ::testing::TestParamInfo<Op>& info) {
                           return std::string(GetOpInfo(info.param)->name);
                         });

// ---------------------------------------------------------------------------
// 2. Random stack-disciplined programs.
// ---------------------------------------------------------------------------

// Emits a random straight-line body over int locals 1..4 (local 0 is the
// argument), tracking stack depth so the program always verifies, wrapped in a
// countdown loop on local 0 to exercise branches.
ClassFile GenerateRandomProgram(uint64_t seed) {
  Rng rng(seed);
  ClassBuilder cb("prop/R" + std::to_string(seed), "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");

  for (int local = 1; local <= 4; local++) {
    m.PushInt(static_cast<int32_t>(rng.Range(-50, 50))).StoreLocal("I", local);
  }
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfle, done);

  int depth = 0;
  int ops = static_cast<int>(rng.Range(10, 60));
  for (int i = 0; i < ops; i++) {
    switch (rng.Uniform(8)) {
      case 0:
        m.PushInt(static_cast<int32_t>(rng.Range(-100, 100)));
        depth++;
        break;
      case 1:
        m.LoadLocal("I", static_cast<int>(rng.Range(1, 4)));
        depth++;
        break;
      case 2:
        if (depth >= 1) {
          m.StoreLocal("I", static_cast<int>(rng.Range(1, 4)));
          depth--;
        }
        break;
      case 3:
      case 4: {
        if (depth >= 2) {
          // No idiv/irem: keep the program exception-free by construction.
          Op arith[] = {Op::kIadd, Op::kIsub, Op::kImul, Op::kIand, Op::kIor, Op::kIxor};
          m.Emit(arith[rng.Uniform(6)]);
          depth--;
        }
        break;
      }
      case 5:
        if (depth >= 1) {
          m.Emit(Op::kDup);
          depth++;
        }
        break;
      case 6:
        if (depth >= 2) {
          m.Emit(Op::kSwap);
        }
        break;
      case 7:
        m.Emit(Op::kIinc, static_cast<int>(rng.Range(1, 4)),
               static_cast<int>(rng.Range(-3, 3)));
        break;
    }
  }
  while (depth > 0) {
    m.Emit(Op::kPop);
    depth--;
  }
  m.Emit(Op::kIinc, 0, -1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done);
  m.LoadLocal("I", 1).LoadLocal("I", 2).Emit(Op::kIadd);
  m.LoadLocal("I", 3).Emit(Op::kIxor).Emit(Op::kIreturn);

  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, VerifiesSerializesRunsDeterministically) {
  ClassFile cls = GenerateRandomProgram(GetParam());

  // Verifies against a minimal environment.
  ClassBuilder obj_cb("java/lang/Object", "");
  obj_cb.AddDefaultConstructor();
  ClassFile object = obj_cb.Build().value();
  MapClassEnv env;
  env.Add(&object);
  auto verified = VerifyClass(cls, env);
  ASSERT_TRUE(verified.ok()) << verified.error().ToString();

  // Serializer round-trip is byte-stable.
  Bytes wire = MustWriteClassFile(cls);
  auto back = ReadClassFile(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(MustWriteClassFile(*back), wire);

  // Runs cleanly and deterministically.
  auto run = [&cls](int arg) {
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    provider.AddClassFile(cls);
    Machine machine({}, &provider);
    auto out = machine.CallStatic(cls.name(), "f", "(I)I", {Value::Int(arg)});
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
    EXPECT_FALSE(out->threw);
    return out->value.AsInt();
  };
  int first = run(9);
  EXPECT_EQ(run(9), first);

  // Rewriting with a no-op preamble preserves the result and still verifies.
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 11, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());
  auto reverified = VerifyClass(cls, env);
  ASSERT_TRUE(reverified.ok()) << reverified.error().ToString();
  EXPECT_EQ(run(9), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// 3. Mutation robustness: corrupt class files fail cleanly.
// ---------------------------------------------------------------------------

class MutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationTest, CorruptClassFilesNeverCrashTheStack) {
  ClassFile cls = GenerateRandomProgram(GetParam());
  Bytes wire = MustWriteClassFile(cls);

  Rng rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 60; trial++) {
    Bytes mutated = wire;
    int flips = static_cast<int>(rng.Range(1, 4));
    for (int f = 0; f < flips; f++) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    auto parsed = ReadClassFile(mutated);
    if (!parsed.ok()) {
      continue;  // clean parse rejection
    }
    ClassBuilder obj_cb("java/lang/Object", "");
    obj_cb.AddDefaultConstructor();
    ClassFile object = obj_cb.Build().value();
    MapClassEnv env;
    env.Add(&object);
    auto verified = VerifyClass(*parsed, env);
    if (!verified.ok()) {
      continue;  // clean verification rejection
    }
    // Survived both: it must also execute without host-level failure (guest
    // exceptions are fine). Bound the budget in case the mutation changed a
    // loop counter.
    MapClassProvider provider;
    InstallSystemLibrary(provider);
    provider.AddClassFile(*parsed);
    MachineConfig config;
    config.max_instructions = 200'000;
    Machine machine(config, &provider);
    if (parsed->FindMethod("f", "(I)I") != nullptr) {
      auto out = machine.CallStatic(parsed->name(), "f", "(I)I", {Value::Int(3)});
      if (!out.ok()) {
        // Structured failures are fine (budget exhaustion, unresolvable names
        // the static verifier correctly deferred to link time); an internal
        // invariant violation is not.
        EXPECT_NE(out.error().code, ErrorCode::kInternal) << out.error().ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationTest, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// 4. GC reachability property.
// ---------------------------------------------------------------------------

class GcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcPropertyTest, CollectKeepsExactlyTheReachable) {
  Rng rng(GetParam());
  Heap heap(8 * 1024 * 1024);

  // Build a random graph of ref-arrays.
  std::vector<ObjRef> nodes;
  for (int i = 0; i < 80; i++) {
    nodes.push_back(heap.AllocRefArray("[Ljava/lang/Object;", 4).value());
  }
  for (int e = 0; e < 160; e++) {
    ObjRef from = nodes[rng.Uniform(nodes.size())];
    ObjRef to = nodes[rng.Uniform(nodes.size())];
    heap.Get(from)->refs[rng.Uniform(4)] = to;
  }
  // Pick random roots and compute reachability independently.
  std::vector<ObjRef> roots;
  for (int r = 0; r < 5; r++) {
    roots.push_back(nodes[rng.Uniform(nodes.size())]);
  }
  std::set<ObjRef> reachable;
  std::vector<ObjRef> work = roots;
  while (!work.empty()) {
    ObjRef ref = work.back();
    work.pop_back();
    if (ref == kNullRef || !reachable.insert(ref).second) {
      continue;
    }
    for (ObjRef next : heap.Get(ref)->refs) {
      work.push_back(next);
    }
  }

  heap.Collect(roots);

  for (ObjRef node : nodes) {
    if (reachable.count(node)) {
      EXPECT_NE(heap.Get(node), nullptr) << "reachable object collected";
    } else {
      EXPECT_EQ(heap.Get(node), nullptr) << "garbage survived";
    }
  }
  EXPECT_EQ(heap.live_objects(), reachable.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest, ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dvm
