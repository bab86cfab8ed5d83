// Table-driven sweep of unsafe bytecode sequences the verifier must reject —
// one TEST_P instance per exploit shape. Each case hand-assembles a method
// body (bypassing the builder's own safety checks) and asserts phases 1-3
// refuse it. These are the classic attack patterns from the verifier
// literature ([Dean et al. 97], [McGraw & Felten 99]) the paper's service is
// meant to centralize defenses against.
#include <gtest/gtest.h>

#include <ostream>

#include "src/bytecode/builder.h"
#include "src/runtime/syslib.h"
#include "src/verifier/certificate.h"
#include "src/verifier/dataflow.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

struct RejectionCase {
  const char* name;
  const char* descriptor;           // method descriptor for `f`
  std::vector<Instr> (*body)(ConstantPool& pool);
  uint16_t max_stack;
  uint16_t max_locals;
};

// Names the case in ctest output; gtest would otherwise print the struct's
// raw bytes (pointers), which move with the binary's layout.
void PrintTo(const RejectionCase& c, std::ostream* os) { *os << c.name; }

// The system library as a verification environment.
const MapClassEnv& LibraryEnv() {
  static const std::vector<ClassFile>* library =
      new std::vector<ClassFile>(BuildSystemLibrary());
  static const MapClassEnv* env = [] {
    auto* env = new MapClassEnv;
    for (const auto& lib_cls : *library) {
      env->Add(&lib_cls);
    }
    return env;
  }();
  return *env;
}

std::vector<Instr> JustReturn(ConstantPool&) { return {{Op::kReturn, 0, 0}}; }

std::vector<Instr> StackUnderflow(ConstantPool&) {
  return {{Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
}

std::vector<Instr> StackOverflowBody(ConstantPool&) {
  // Pushes past the declared max_stack of 1.
  return {{Op::kIconst0, 0, 0}, {Op::kIconst0, 0, 0}, {Op::kReturn, 0, 0}};
}

std::vector<Instr> TypeConfusionIntAsRef(ConstantPool& pool) {
  // Use an int as a receiver: iconst_0; invokevirtual Object.hashCode().
  uint16_t m = pool.AddMethodRef("java/lang/Object", "hashCode", "()I");
  return {{Op::kIconst0, 0, 0}, {Op::kInvokevirtual, m, 0}, {Op::kPop, 0, 0},
          {Op::kReturn, 0, 0}};
}

std::vector<Instr> TypeConfusionRefAsInt(ConstantPool& pool) {
  // Arithmetic on a string reference.
  uint16_t s = pool.AddString("x");
  return {{Op::kLdc, s, 0}, {Op::kIconst1, 0, 0}, {Op::kIadd, 0, 0}, {Op::kPop, 0, 0},
          {Op::kReturn, 0, 0}};
}

std::vector<Instr> LongIntMix(ConstantPool& pool) {
  uint16_t l = pool.AddLong(1);
  return {{Op::kLdc, l, 0}, {Op::kIconst1, 0, 0}, {Op::kLadd, 0, 0}, {Op::kPop, 0, 0},
          {Op::kReturn, 0, 0}};
}

std::vector<Instr> UninitializedLocalRead(ConstantPool&) {
  // iload of a never-written local (entry frame marks it Top).
  return {{Op::kIload, 1, 0}, {Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
}

std::vector<Instr> FallOffEnd(ConstantPool&) {
  return {{Op::kIconst0, 0, 0}, {Op::kPop, 0, 0}};
}

std::vector<Instr> WrongReturnKind(ConstantPool&) {
  // ()V method executing ireturn.
  return {{Op::kIconst0, 0, 0}, {Op::kIreturn, 0, 0}};
}

std::vector<Instr> BranchDepthMismatch(ConstantPool&) {
  // Two paths reach the same join with different stack depths.
  return {
      {Op::kIload, 0, 0},     // 0
      {Op::kIfeq, 3, 0},      // 1: branch to 3 with empty stack
      {Op::kIconst0, 0, 0},   // 2: fall-through pushes
      {Op::kReturn, 0, 0},    // 3: join — depth 0 vs 1
  };
}

std::vector<Instr> UseBeforeInit(ConstantPool& pool) {
  // new without <init>, then used as an argument.
  uint16_t cls = pool.AddClass("java/lang/Object");
  uint16_t m = pool.AddMethodRef("java/lang/Object", "hashCode", "()I");
  return {{Op::kNew, cls, 0}, {Op::kInvokevirtual, m, 0}, {Op::kPop, 0, 0},
          {Op::kReturn, 0, 0}};
}

std::vector<Instr> ArrayTypeConfusion(ConstantPool&) {
  // laload from an int array.
  return {{Op::kBipush, 4, 0},
          {Op::kNewarray, static_cast<int>(ArrayKind::kInt), 0},
          {Op::kIconst0, 0, 0},
          {Op::kLaload, 0, 0},
          {Op::kPop, 0, 0},
          {Op::kReturn, 0, 0}};
}

std::vector<Instr> ArraylengthOnNonArray(ConstantPool& pool) {
  uint16_t s = pool.AddString("x");
  return {{Op::kLdc, s, 0}, {Op::kArraylength, 0, 0}, {Op::kPop, 0, 0},
          {Op::kReturn, 0, 0}};
}

std::vector<Instr> ThrowNonThrowable(ConstantPool& pool) {
  uint16_t s = pool.AddString("x");
  return {{Op::kLdc, s, 0}, {Op::kAthrow, 0, 0}};
}

std::vector<Instr> MonitorOnInt(ConstantPool&) {
  return {{Op::kIconst0, 0, 0}, {Op::kMonitorenter, 0, 0}, {Op::kReturn, 0, 0}};
}

std::vector<Instr> LocalIndexOutOfRange(ConstantPool&) {
  return {{Op::kIload, 50, 0}, {Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
}

std::vector<Instr> StoreRefReadInt(ConstantPool& pool) {
  // astore a string into local 1, then iload it — the classic pointer-forging
  // primitive.
  uint16_t s = pool.AddString("x");
  return {{Op::kLdc, s, 0},   {Op::kAstore, 1, 0}, {Op::kIload, 1, 0},
          {Op::kPop, 0, 0},   {Op::kReturn, 0, 0}};
}

const RejectionCase kCases[] = {
    {"StackUnderflow", "()V", StackUnderflow, 4, 2},
    {"StackOverflow", "()V", StackOverflowBody, 1, 2},
    {"IntUsedAsReceiver", "()V", TypeConfusionIntAsRef, 4, 2},
    {"RefUsedAsInt", "()V", TypeConfusionRefAsInt, 4, 2},
    {"LongIntMix", "()V", LongIntMix, 4, 2},
    {"UninitializedLocalRead", "()V", UninitializedLocalRead, 4, 2},
    {"FallOffEnd", "()V", FallOffEnd, 4, 2},
    {"WrongReturnKind", "()V", WrongReturnKind, 4, 2},
    {"BranchDepthMismatch", "(I)V", BranchDepthMismatch, 4, 2},
    {"UseBeforeInit", "()V", UseBeforeInit, 4, 2},
    {"ArrayTypeConfusion", "()V", ArrayTypeConfusion, 4, 2},
    {"ArraylengthOnNonArray", "()V", ArraylengthOnNonArray, 4, 2},
    {"ThrowNonThrowable", "()V", ThrowNonThrowable, 4, 2},
    {"MonitorOnInt", "()V", MonitorOnInt, 4, 2},
    {"LocalIndexOutOfRange", "()V", LocalIndexOutOfRange, 4, 2},
    {"StoreRefReadInt", "()V", StoreRefReadInt, 4, 2},
    // Fuzz-found (tests/corpus/entry_frame_oob.bin): three int parameters but
    // max_locals 0 — the verifier formerly wrote the entry frame out of
    // bounds while constructing it.
    {"ParamsExceedMaxLocals", "(III)V", JustReturn, 0, 0},
};

class VerifierRejectionTest : public ::testing::TestWithParam<RejectionCase> {};

TEST_P(VerifierRejectionTest, UnsafeBytecodeIsRejected) {
  const RejectionCase& param = GetParam();

  ClassBuilder cb("evil/E", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", param.descriptor)
      .Emit(Op::kReturn);
  auto built = cb.Build();
  ASSERT_TRUE(built.ok());
  ClassFile cls = std::move(built).value();

  ConstantPool& pool = cls.pool();
  auto body = param.body(pool);
  auto encoded = EncodeCode(body);
  ASSERT_TRUE(encoded.ok()) << encoded.error().ToString();
  MethodInfo* method = cls.FindMethod("f", param.descriptor);
  method->code->code = std::move(encoded).value();
  method->code->max_stack = param.max_stack;
  method->code->max_locals = param.max_locals;

  auto verified = VerifyClass(cls, LibraryEnv());
  ASSERT_FALSE(verified.ok()) << "verifier accepted unsafe pattern " << param.name;
  EXPECT_EQ(verified.error().code, ErrorCode::kVerifyError) << verified.error().ToString();
}

INSTANTIATE_TEST_SUITE_P(Exploits, VerifierRejectionTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<RejectionCase>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// Fuzz-found shapes that don't fit the body-table (they corrupt handlers or
// descriptors rather than the instruction stream). Each mirrors a minimized
// input in tests/corpus/.
// ---------------------------------------------------------------------------

// Hand-assembles evil/E with a raw body and handler table, then verifies it
// against the system library. Returns the verifier's verdict.
Result<VerifiedClass> VerifyHandAssembled(const std::vector<Instr>& body,
                                          std::vector<ExceptionHandler> handlers,
                                          const char* descriptor = "()V") {
  ClassBuilder cb("evil/E", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", descriptor)
      .Emit(Op::kReturn);
  ClassFile cls = cb.Build().value();
  MethodInfo* method = cls.FindMethod("f", descriptor);
  method->code->code = EncodeCode(body).value();
  method->code->max_stack = 4;
  method->code->max_locals = 2;
  method->code->handlers = std::move(handlers);
  return VerifyClass(cls, LibraryEnv());
}

// tests/corpus/handler_inverted.bin: start_pc >= end_pc protects nothing and
// signals a corrupted table.
TEST(VerifierHandlerRejection, InvertedHandlerRange) {
  std::vector<Instr> body = {{Op::kIconst0, 0, 0}, {Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
  auto verified = VerifyHandAssembled(body, {{/*start=*/2, /*end=*/1, /*handler=*/0, 0}});
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, ErrorCode::kVerifyError) << verified.error().ToString();
}

// tests/corpus/handler_mid_instruction.bin: handler_pc lands inside a bipush,
// so dispatching there would re-interpret an operand byte as an opcode.
TEST(VerifierHandlerRejection, HandlerPcMidInstruction) {
  std::vector<Instr> body = {{Op::kBipush, 5, 0}, {Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
  auto verified = VerifyHandAssembled(body, {{/*start=*/0, /*end=*/3, /*handler=*/1, 0}});
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, ErrorCode::kVerifyError) << verified.error().ToString();
}

// tests/corpus/malformed_method_descriptor.bin: a descriptor that does not
// parse must be rejected in phase 1, before any dataflow runs.
TEST(VerifierHandlerRejection, MalformedMethodDescriptor) {
  ClassBuilder cb("evil/E", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()V").Emit(Op::kReturn);
  ClassFile cls = cb.Build().value();
  cls.FindMethod("f", "()V")->descriptor = "(\x03";

  auto verified = VerifyClass(cls, LibraryEnv());
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, ErrorCode::kVerifyError) << verified.error().ToString();
}

// ---------------------------------------------------------------------------
// Frame-table bound: phase 3 keeps one max_locals-wide frame per instruction,
// so instructions x (max_locals + max_stack) is capped at kMaxFrameTableSlots
// before any frame is built.
// ---------------------------------------------------------------------------

// evil/E.f()V: `nops` nops, then return, with the given frame limits.
ClassFile NopMethodClass(size_t nops, uint16_t max_stack, uint16_t max_locals) {
  std::vector<Instr> body(nops, Instr{Op::kNop, 0, 0});
  body.push_back({Op::kReturn, 0, 0});
  ClassBuilder cb("evil/E", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()V").Emit(Op::kReturn);
  ClassFile cls = cb.Build().value();
  MethodInfo* method = cls.FindMethod("f", "()V");
  method->code->code = EncodeCode(body).value();
  method->code->max_stack = max_stack;
  method->code->max_locals = max_locals;
  return cls;
}

// 101 instructions x 65535 locals would be 6.6 M slots (~80 MB of frames).
// The verifier and the certificate validator both refuse it up front; the
// validator is given the honest body's certificate, which it never reaches.
TEST(VerifierFrameTableBound, HostileMaxLocalsIsRejectedByVerifyAndValidate) {
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(NopMethodClass(100, 0, 1), LibraryEnv(), &cert).ok());

  const ClassFile hostile = NopMethodClass(100, 0, 65535);
  auto verified = VerifyClass(hostile, LibraryEnv());
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, ErrorCode::kVerifyError);
  EXPECT_NE(verified.error().message.find("frame table"), std::string::npos)
      << verified.error().ToString();

  ValidateStats stats;
  Status validated = ValidateCertificate(hostile, LibraryEnv(), cert, &stats);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.error().code, ErrorCode::kVerifyError);
  EXPECT_NE(validated.error().message.find("frame table"), std::string::npos)
      << validated.error().ToString();
}

// 16 instructions x (65535 + 65535) = 2,097,120 slots, just under 2^21:
// verified, certified and validated. One more nop crosses the bound.
TEST(VerifierFrameTableBound, MethodJustUnderTheBoundVerifies) {
  static_assert(16 * (65535 + 65535) <= kMaxFrameTableSlots);
  static_assert(17 * (65535 + 65535) > kMaxFrameTableSlots);
  const ClassFile cls = NopMethodClass(15, 65535, 65535);
  ClassCertificate cert;
  auto verified = VerifyClass(cls, LibraryEnv(), &cert);
  ASSERT_TRUE(verified.ok()) << verified.error().ToString();
  ValidateStats stats;
  Status validated = ValidateCertificate(cls, LibraryEnv(), cert, &stats);
  EXPECT_TRUE(validated.ok()) << validated.error().ToString();

  EXPECT_FALSE(VerifyClass(NopMethodClass(16, 65535, 65535), LibraryEnv()).ok());
}

}  // namespace
}  // namespace dvm
