#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <unordered_map>

#include "src/bytecode/builder.h"
#include "src/bytecode/code.h"
#include "src/bytecode/constant_pool.h"
#include "src/bytecode/descriptor.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/opcodes.h"
#include "src/bytecode/serializer.h"
#include "src/bytecode/stack_effect.h"

namespace dvm {
namespace {

TEST(OpcodesTest, MetadataPresentForAllOps) {
  EXPECT_NE(GetOpInfo(Op::kNop), nullptr);
  EXPECT_NE(GetOpInfo(Op::kInvokevirtual), nullptr);
  EXPECT_EQ(GetOpInfo(static_cast<Op>(0xFE)), nullptr);
}

// The opcode table as it was before it became a dense 256-entry array: a
// hash map from opcode byte to metadata, with lengths, branch and terminator
// queries derived per call. Kept here only as the reference for the test
// below.
namespace reference {

struct Entry {
  Op op;
  OpInfo info;
};

const Entry kTable[] = {
    {Op::kNop, {"nop", OperandKind::kNone, 0, false}},
    {Op::kAconstNull, {"aconst_null", OperandKind::kNone, 1, false}},
    {Op::kIconst0, {"iconst_0", OperandKind::kNone, 1, false}},
    {Op::kIconst1, {"iconst_1", OperandKind::kNone, 1, false}},
    {Op::kBipush, {"bipush", OperandKind::kI8, 1, false}},
    {Op::kSipush, {"sipush", OperandKind::kI16, 1, false}},
    {Op::kLdc, {"ldc", OperandKind::kCpIndex, 1, false}},
    {Op::kIload, {"iload", OperandKind::kU8, 1, false}},
    {Op::kLload, {"lload", OperandKind::kU8, 1, false}},
    {Op::kAload, {"aload", OperandKind::kU8, 1, false}},
    {Op::kIstore, {"istore", OperandKind::kU8, -1, false}},
    {Op::kLstore, {"lstore", OperandKind::kU8, -1, false}},
    {Op::kAstore, {"astore", OperandKind::kU8, -1, false}},
    {Op::kIaload, {"iaload", OperandKind::kNone, -1, false}},
    {Op::kLaload, {"laload", OperandKind::kNone, -1, false}},
    {Op::kAaload, {"aaload", OperandKind::kNone, -1, false}},
    {Op::kIastore, {"iastore", OperandKind::kNone, -3, false}},
    {Op::kLastore, {"lastore", OperandKind::kNone, -3, false}},
    {Op::kAastore, {"aastore", OperandKind::kNone, -3, false}},
    {Op::kPop, {"pop", OperandKind::kNone, -1, false}},
    {Op::kDup, {"dup", OperandKind::kNone, 1, false}},
    {Op::kDupX1, {"dup_x1", OperandKind::kNone, 1, false}},
    {Op::kSwap, {"swap", OperandKind::kNone, 0, false}},
    {Op::kIadd, {"iadd", OperandKind::kNone, -1, false}},
    {Op::kLadd, {"ladd", OperandKind::kNone, -1, false}},
    {Op::kIsub, {"isub", OperandKind::kNone, -1, false}},
    {Op::kLsub, {"lsub", OperandKind::kNone, -1, false}},
    {Op::kImul, {"imul", OperandKind::kNone, -1, false}},
    {Op::kLmul, {"lmul", OperandKind::kNone, -1, false}},
    {Op::kIdiv, {"idiv", OperandKind::kNone, -1, false}},
    {Op::kLdiv, {"ldiv", OperandKind::kNone, -1, false}},
    {Op::kIrem, {"irem", OperandKind::kNone, -1, false}},
    {Op::kLrem, {"lrem", OperandKind::kNone, -1, false}},
    {Op::kIneg, {"ineg", OperandKind::kNone, 0, false}},
    {Op::kLneg, {"lneg", OperandKind::kNone, 0, false}},
    {Op::kIshl, {"ishl", OperandKind::kNone, -1, false}},
    {Op::kIshr, {"ishr", OperandKind::kNone, -1, false}},
    {Op::kIushr, {"iushr", OperandKind::kNone, -1, false}},
    {Op::kIand, {"iand", OperandKind::kNone, -1, false}},
    {Op::kIor, {"ior", OperandKind::kNone, -1, false}},
    {Op::kIxor, {"ixor", OperandKind::kNone, -1, false}},
    {Op::kIinc, {"iinc", OperandKind::kLocalIncr, 0, false}},
    {Op::kI2l, {"i2l", OperandKind::kNone, 0, false}},
    {Op::kL2i, {"l2i", OperandKind::kNone, 0, false}},
    {Op::kLcmp, {"lcmp", OperandKind::kNone, -1, false}},
    {Op::kIfeq, {"ifeq", OperandKind::kBranch16, -1, false}},
    {Op::kIfne, {"ifne", OperandKind::kBranch16, -1, false}},
    {Op::kIflt, {"iflt", OperandKind::kBranch16, -1, false}},
    {Op::kIfge, {"ifge", OperandKind::kBranch16, -1, false}},
    {Op::kIfgt, {"ifgt", OperandKind::kBranch16, -1, false}},
    {Op::kIfle, {"ifle", OperandKind::kBranch16, -1, false}},
    {Op::kIfIcmpeq, {"if_icmpeq", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmpne, {"if_icmpne", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmplt, {"if_icmplt", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmpge, {"if_icmpge", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmpgt, {"if_icmpgt", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmple, {"if_icmple", OperandKind::kBranch16, -2, false}},
    {Op::kIfAcmpeq, {"if_acmpeq", OperandKind::kBranch16, -2, false}},
    {Op::kIfAcmpne, {"if_acmpne", OperandKind::kBranch16, -2, false}},
    {Op::kGoto, {"goto", OperandKind::kBranch16, 0, false}},
    {Op::kIreturn, {"ireturn", OperandKind::kNone, -1, false}},
    {Op::kLreturn, {"lreturn", OperandKind::kNone, -1, false}},
    {Op::kAreturn, {"areturn", OperandKind::kNone, -1, false}},
    {Op::kReturn, {"return", OperandKind::kNone, 0, false}},
    {Op::kGetstatic, {"getstatic", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutstatic, {"putstatic", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kGetfield, {"getfield", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutfield, {"putfield", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokevirtual, {"invokevirtual", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokespecial, {"invokespecial", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokestatic, {"invokestatic", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kNew, {"new", OperandKind::kCpIndex, 1, false}},
    {Op::kNewarray, {"newarray", OperandKind::kArrayKind, 0, false}},
    {Op::kAnewarray, {"anewarray", OperandKind::kCpIndex, 0, false}},
    {Op::kArraylength, {"arraylength", OperandKind::kNone, 0, false}},
    {Op::kAthrow, {"athrow", OperandKind::kNone, -1, false}},
    {Op::kCheckcast, {"checkcast", OperandKind::kCpIndex, 0, false}},
    {Op::kInstanceof, {"instanceof", OperandKind::kCpIndex, 0, false}},
    {Op::kMonitorenter, {"monitorenter", OperandKind::kNone, -1, false}},
    {Op::kMonitorexit, {"monitorexit", OperandKind::kNone, -1, false}},
    {Op::kIfnull, {"ifnull", OperandKind::kBranch16, -1, false}},
    {Op::kIfnonnull, {"ifnonnull", OperandKind::kBranch16, -1, false}},
    {Op::kLdcQuick, {"ldc_quick", OperandKind::kCpIndex, 1, false}},
    {Op::kGetfieldQuick, {"getfield_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutfieldQuick, {"putfield_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kGetstaticQuick, {"getstatic_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutstaticQuick, {"putstatic_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokevirtualQuick,
     {"invokevirtual_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokespecialQuick,
     {"invokespecial_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokestaticQuick,
     {"invokestatic_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kNewQuick, {"new_quick", OperandKind::kCpIndex, 1, false}},
    {Op::kAnewarrayQuick, {"anewarray_quick", OperandKind::kCpIndex, 0, false}},
    {Op::kCheckcastQuick, {"checkcast_quick", OperandKind::kCpIndex, 0, false}},
    {Op::kInstanceofQuick, {"instanceof_quick", OperandKind::kCpIndex, 0, false}},
};

const std::unordered_map<uint8_t, const OpInfo*>& Table() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<uint8_t, const OpInfo*>();
    for (const auto& e : kTable) {
      (*m)[static_cast<uint8_t>(e.op)] = &e.info;
    }
    return m;
  }();
  return *map;
}

const OpInfo* GetOpInfo(Op op) {
  auto it = Table().find(static_cast<uint8_t>(op));
  return it == Table().end() ? nullptr : it->second;
}

int InstructionLength(Op op) {
  const OpInfo* info = reference::GetOpInfo(op);
  if (info == nullptr) {
    return -1;
  }
  switch (info->operands) {
    case OperandKind::kNone:
      return 1;
    case OperandKind::kI8:
    case OperandKind::kU8:
    case OperandKind::kArrayKind:
      return 2;
    case OperandKind::kI16:
    case OperandKind::kCpIndex:
    case OperandKind::kBranch16:
    case OperandKind::kLocalIncr:
      return 3;
  }
  return -1;
}

bool IsBranch(Op op) {
  const OpInfo* info = reference::GetOpInfo(op);
  return info != nullptr && info->operands == OperandKind::kBranch16;
}

bool IsTerminator(Op op) {
  return op == Op::kIreturn || op == Op::kLreturn || op == Op::kAreturn ||
         op == Op::kReturn || op == Op::kGoto || op == Op::kAthrow;
}

bool IsQuickOp(Op op) {
  uint8_t raw = static_cast<uint8_t>(op);
  return raw >= 0xd3 && raw <= 0xde;
}

}  // namespace reference

// Every byte value, defined or not (the quick range 0xd3-0xde and the
// undefined 0xdf-0xff included), answers exactly as the map-based table did.
TEST(OpcodesTest, DenseTableMatchesMapTableForEveryByte) {
  size_t defined = 0;
  for (int raw = 0; raw < 256; raw++) {
    SCOPED_TRACE("opcode byte " + std::to_string(raw));
    Op op = static_cast<Op>(raw);
    const OpInfo* want = reference::GetOpInfo(op);
    const OpInfo* got = GetOpInfo(op);
    ASSERT_EQ(got == nullptr, want == nullptr);
    EXPECT_EQ(GetOpInfo(static_cast<uint8_t>(raw)), got);
    if (want != nullptr) {
      defined++;
      EXPECT_EQ(got->name, want->name);
      EXPECT_EQ(got->operands, want->operands);
      EXPECT_EQ(got->stack_delta, want->stack_delta);
      EXPECT_EQ(got->variable_stack, want->variable_stack);
    }
    EXPECT_EQ(InstructionLength(op), reference::InstructionLength(op));
    EXPECT_EQ(IsBranch(op), reference::IsBranch(op));
    EXPECT_EQ(IsTerminator(op), reference::IsTerminator(op));
    EXPECT_EQ(IsQuickOp(op), reference::IsQuickOp(op));
    EXPECT_EQ(IsQuickOp(static_cast<uint8_t>(raw)), reference::IsQuickOp(op));
  }
  EXPECT_EQ(defined, std::size(reference::kTable));
}

TEST(OpcodesTest, InstructionLengths) {
  EXPECT_EQ(InstructionLength(Op::kNop), 1);
  EXPECT_EQ(InstructionLength(Op::kBipush), 2);
  EXPECT_EQ(InstructionLength(Op::kSipush), 3);
  EXPECT_EQ(InstructionLength(Op::kLdc), 3);
  EXPECT_EQ(InstructionLength(Op::kIinc), 3);
  EXPECT_EQ(InstructionLength(Op::kGoto), 3);
}

TEST(OpcodesTest, Predicates) {
  EXPECT_TRUE(IsBranch(Op::kGoto));
  EXPECT_TRUE(IsConditionalBranch(Op::kIfeq));
  EXPECT_FALSE(IsConditionalBranch(Op::kGoto));
  EXPECT_TRUE(IsReturn(Op::kIreturn));
  EXPECT_TRUE(IsTerminator(Op::kAthrow));
  EXPECT_FALSE(IsTerminator(Op::kIfeq));
  EXPECT_TRUE(IsInvoke(Op::kInvokestatic));
  EXPECT_TRUE(IsFieldAccess(Op::kPutfield));
}

TEST(ConstantPoolTest, InterningReturnsSameIndex) {
  ConstantPool pool;
  uint16_t a = pool.AddUtf8("hello");
  uint16_t b = pool.AddUtf8("hello");
  EXPECT_EQ(a, b);
  EXPECT_NE(pool.AddUtf8("world"), a);
}

TEST(ConstantPoolTest, MemberRefResolves) {
  ConstantPool pool;
  uint16_t index = pool.AddMethodRef("java/lang/System", "println", "(Ljava/lang/String;)V");
  auto ref = pool.MethodRefAt(index);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->class_name, "java/lang/System");
  EXPECT_EQ(ref->member_name, "println");
  EXPECT_EQ(ref->descriptor, "(Ljava/lang/String;)V");
}

TEST(ConstantPoolTest, WrongTagIsError) {
  ConstantPool pool;
  uint16_t utf8 = pool.AddUtf8("x");
  EXPECT_FALSE(pool.ClassNameAt(utf8).ok());
  EXPECT_FALSE(pool.IntegerAt(utf8).ok());
  EXPECT_FALSE(pool.MethodRefAt(0).ok());
}

TEST(ConstantPoolTest, ValidateCatchesBadCrossRefs) {
  ConstantPool pool;
  CpEntry bad;
  bad.tag = CpTag::kClass;
  bad.ref1 = 99;  // dangling
  ASSERT_TRUE(pool.AppendRaw(bad).ok());
  EXPECT_FALSE(pool.Validate().ok());
}

TEST(ConstantPoolTest, ValidatePassesWellFormed) {
  ConstantPool pool;
  pool.AddMethodRef("a/B", "m", "()V");
  pool.AddFieldRef("a/B", "f", "I");
  pool.AddString("s");
  pool.AddInteger(5);
  pool.AddLong(5);
  EXPECT_TRUE(pool.Validate().ok());
}

TEST(DescriptorTest, ValidatesTypes) {
  EXPECT_TRUE(IsValidTypeDescriptor("I"));
  EXPECT_TRUE(IsValidTypeDescriptor("J"));
  EXPECT_TRUE(IsValidTypeDescriptor("Ljava/lang/String;"));
  EXPECT_TRUE(IsValidTypeDescriptor("[I"));
  EXPECT_TRUE(IsValidTypeDescriptor("[[Lfoo/Bar;"));
  EXPECT_FALSE(IsValidTypeDescriptor("V"));
  EXPECT_FALSE(IsValidTypeDescriptor("L;"));
  EXPECT_FALSE(IsValidTypeDescriptor("Lfoo"));
  EXPECT_FALSE(IsValidTypeDescriptor("X"));
  EXPECT_FALSE(IsValidTypeDescriptor("II"));
  EXPECT_TRUE(IsValidReturnDescriptor("V"));
}

TEST(DescriptorTest, ParsesMethodDescriptors) {
  auto sig = ParseMethodDescriptor("(IJ[Lfoo/Bar;)Lbaz/Qux;");
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->params.size(), 3u);
  EXPECT_EQ(sig->params[0], "I");
  EXPECT_EQ(sig->params[1], "J");
  EXPECT_EQ(sig->params[2], "[Lfoo/Bar;");
  EXPECT_EQ(sig->return_type, "Lbaz/Qux;");
  EXPECT_EQ(sig->ArgSlots(), 3);
  EXPECT_FALSE(sig->ReturnsVoid());
}

TEST(DescriptorTest, ParsesEmptyParams) {
  auto sig = ParseMethodDescriptor("()V");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(sig->params.empty());
  EXPECT_TRUE(sig->ReturnsVoid());
}

TEST(DescriptorTest, RejectsMalformed) {
  EXPECT_FALSE(ParseMethodDescriptor("I)V").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(X)V").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(I").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(I)").ok());
  EXPECT_FALSE(ParseMethodDescriptor("(I)W").ok());
}

TEST(DescriptorTest, NameConversions) {
  EXPECT_EQ(ClassNameFromDescriptor("Lfoo/Bar;"), "foo/Bar");
  EXPECT_EQ(DescriptorFromClassName("foo/Bar"), "Lfoo/Bar;");
  EXPECT_EQ(MakeMethodDescriptor({"I", "J"}, "V"), "(IJ)V");
  EXPECT_EQ(ArrayElementDescriptor("[[I"), "[I");
  EXPECT_EQ(ArrayElementDescriptor("[Lfoo/Bar;"), "Lfoo/Bar;");
}

TEST(CodeTest, EncodeDecodeRoundTrip) {
  std::vector<Instr> instrs = {
      {Op::kIconst0, 0, 0}, {Op::kIstore, 1, 0},  {Op::kIload, 1, 0},
      {Op::kBipush, 10, 0}, {Op::kIfIcmpge, 7, 0}, {Op::kIinc, 1, 1},
      {Op::kGoto, 2, 0},    {Op::kReturn, 0, 0},
  };
  auto encoded = EncodeCode(instrs);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeCode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->instrs, instrs);
}

TEST(CodeTest, NegativeImmediatesRoundTrip) {
  std::vector<Instr> instrs = {
      {Op::kBipush, -100, 0},
      {Op::kSipush, -30000, 0},
      {Op::kIinc, 3, -5, },
      {Op::kReturn, 0, 0},
  };
  auto encoded = EncodeCode(instrs);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeCode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->instrs, instrs);
}

TEST(CodeTest, RejectsUnknownOpcode) {
  Bytes bad = {0xFE};
  EXPECT_FALSE(DecodeCode(bad).ok());
}

TEST(CodeTest, RejectsTruncatedInstruction) {
  Bytes bad = {static_cast<uint8_t>(Op::kSipush), 0x01};
  EXPECT_FALSE(DecodeCode(bad).ok());
}

TEST(CodeTest, RejectsBranchEscapingMethod) {
  // goto +100 with a 3-byte method body.
  Bytes bad = {static_cast<uint8_t>(Op::kGoto), 0x00, 0x64};
  EXPECT_FALSE(DecodeCode(bad).ok());
}

TEST(CodeTest, RejectsBranchIntoMiddleOfInstruction) {
  // sipush occupies offsets 0-2; goto at 3 targets offset 1.
  Bytes bad = {static_cast<uint8_t>(Op::kSipush), 0x00, 0x05,
               static_cast<uint8_t>(Op::kGoto), 0xFF, 0xFE};
  EXPECT_FALSE(DecodeCode(bad).ok());
}

// The dense pc maps, at the shapes where a vector indexed by pc could read out
// of bounds where the old hash map could not.
TEST(CodeTest, PcMapsCoverEveryByteAndTheEnd) {
  // sipush 0x0102; nop; return
  Bytes code = {static_cast<uint8_t>(Op::kSipush), 0x01, 0x02, static_cast<uint8_t>(Op::kNop),
                static_cast<uint8_t>(Op::kReturn)};
  auto decoded = DecodeCode(code);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->offsets, (std::vector<uint32_t>{0, 3, 4, 5}));
  EXPECT_EQ(decoded->pc_to_index, (std::vector<int32_t>{0, -1, -1, 1, 2, 3}));
  EXPECT_EQ(decoded->IndexAt(5), 3);  // the code length maps to instrs.size()
  EXPECT_EQ(decoded->IndexAt(6), -1);
  EXPECT_EQ(decoded->IndexAt(0xFFFF), -1);
  EXPECT_EQ(decoded->IndexAt(UINT32_MAX), -1);
}

TEST(CodeTest, BranchToOffsetZero) {
  Bytes code = {static_cast<uint8_t>(Op::kGoto), 0x00, 0x00};
  auto decoded = DecodeCode(code);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  ASSERT_EQ(decoded->instrs.size(), 1u);
  EXPECT_EQ(decoded->instrs[0].a, 0);
}

TEST(CodeTest, BranchToLastInstruction) {
  // ifeq +4 (to the return at offset 4); nop; return
  Bytes code = {static_cast<uint8_t>(Op::kIfeq), 0x00, 0x04, static_cast<uint8_t>(Op::kNop),
                static_cast<uint8_t>(Op::kReturn)};
  auto decoded = DecodeCode(code);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  ASSERT_EQ(decoded->instrs.size(), 3u);
  EXPECT_EQ(decoded->instrs[0].a, 2);
}

TEST(CodeTest, BranchIntoThreeByteInstructionNamesTheOffset) {
  // sipush at 0-2; goto at 3 targets offset 2, the sipush's last byte.
  Bytes code = {static_cast<uint8_t>(Op::kSipush), 0x00, 0x05,
                static_cast<uint8_t>(Op::kGoto), 0xFF, 0xFF};
  auto decoded = DecodeCode(code);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().message, "branch targets mid-instruction offset 2");
}

TEST(CodeTest, BranchToCodeLengthEscapes) {
  // nop; goto +2 lands exactly on the code length: not an instruction.
  Bytes code = {static_cast<uint8_t>(Op::kNop), static_cast<uint8_t>(Op::kGoto), 0x00, 0x03};
  auto decoded = DecodeCode(code);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().message, "branch at offset 1 escapes method body");
}

TEST(CodeTest, ByteOffsetsAccountForWidths) {
  std::vector<Instr> instrs = {{Op::kNop, 0, 0}, {Op::kBipush, 1, 0}, {Op::kSipush, 2, 0}};
  auto offsets = CodeByteOffsets(instrs);
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 1u);
  EXPECT_EQ(offsets[2], 3u);
  EXPECT_EQ(offsets[3], 6u);
}

TEST(StackEffectTest, FixedOps) {
  ConstantPool pool;
  EXPECT_EQ(StackDelta({Op::kIconst0, 0, 0}, pool).value(), 1);
  EXPECT_EQ(StackDelta({Op::kIadd, 0, 0}, pool).value(), -1);
  EXPECT_EQ(StackPops({Op::kIadd, 0, 0}, pool).value(), 2);
  EXPECT_EQ(StackPops({Op::kIastore, 0, 0}, pool).value(), 3);
}

TEST(StackEffectTest, InvokeUsesDescriptor) {
  ConstantPool pool;
  uint16_t m = pool.AddMethodRef("a/B", "f", "(II)I");
  EXPECT_EQ(StackDelta({Op::kInvokestatic, m, 0}, pool).value(), -1);
  EXPECT_EQ(StackPops({Op::kInvokestatic, m, 0}, pool).value(), 2);
  // Virtual adds the receiver.
  EXPECT_EQ(StackDelta({Op::kInvokevirtual, m, 0}, pool).value(), -2);
  EXPECT_EQ(StackPops({Op::kInvokevirtual, m, 0}, pool).value(), 3);
}

TEST(StackEffectTest, FieldOpsUseDescriptor) {
  ConstantPool pool;
  uint16_t f = pool.AddFieldRef("a/B", "x", "I");
  EXPECT_EQ(StackDelta({Op::kGetstatic, f, 0}, pool).value(), 1);
  EXPECT_EQ(StackDelta({Op::kPutstatic, f, 0}, pool).value(), -1);
  EXPECT_EQ(StackDelta({Op::kGetfield, f, 0}, pool).value(), 0);
  EXPECT_EQ(StackDelta({Op::kPutfield, f, 0}, pool).value(), -2);
}

ClassFile BuildCounterClass() {
  ClassBuilder cb("test/Counter", "java/lang/Object");
  cb.AddField(AccessFlags::kPublic, "count", "I");
  cb.AddDefaultConstructor();

  // static int sumTo(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "sumTo", "(I)I");
  Label loop = m.NewLabel();
  Label done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);   // s = 0
  m.PushInt(0).StoreLocal("I", 2);   // i = 0
  m.Bind(loop);
  m.LoadLocal("I", 2).LoadLocal("I", 0);
  m.Branch(Op::kIfIcmpge, done);
  m.LoadLocal("I", 1).LoadLocal("I", 2).Emit(Op::kIadd).StoreLocal("I", 1);
  m.Emit(Op::kIinc, 2, 1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done);
  m.LoadLocal("I", 1).Emit(Op::kIreturn);

  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

TEST(BuilderTest, BuildsWellFormedClass) {
  ClassFile cls = BuildCounterClass();
  EXPECT_EQ(cls.name(), "test/Counter");
  EXPECT_EQ(cls.super_name(), "java/lang/Object");
  ASSERT_NE(cls.FindMethod("sumTo", "(I)I"), nullptr);
  ASSERT_NE(cls.FindMethod("<init>", "()V"), nullptr);
  ASSERT_NE(cls.FindField("count"), nullptr);
  EXPECT_TRUE(cls.pool().Validate().ok());
}

TEST(BuilderTest, ComputesMaxStackAndLocals) {
  ClassFile cls = BuildCounterClass();
  const MethodInfo* m = cls.FindMethod("sumTo", "(I)I");
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->code.has_value());
  EXPECT_EQ(m->code->max_stack, 2);
  EXPECT_EQ(m->code->max_locals, 3);
}

TEST(BuilderTest, BranchesResolve) {
  ClassFile cls = BuildCounterClass();
  const MethodInfo* m = cls.FindMethod("sumTo", "(I)I");
  auto decoded = DecodeCode(m->code->code);
  ASSERT_TRUE(decoded.ok());
  bool saw_backward = false;
  for (size_t i = 0; i < decoded->instrs.size(); i++) {
    if (decoded->instrs[i].op == Op::kGoto && decoded->instrs[i].a < static_cast<int>(i)) {
      saw_backward = true;
    }
  }
  EXPECT_TRUE(saw_backward);
}

TEST(BuilderTest, UnboundLabelFails) {
  ClassBuilder cb("test/Bad", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()V");
  Label never = m.NewLabel();
  m.Branch(Op::kGoto, never);
  EXPECT_FALSE(cb.Build().ok());
}

TEST(BuilderTest, StackUnderflowFails) {
  ClassBuilder cb("test/Bad", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic, "f", "()V").Emit(Op::kPop).Emit(Op::kReturn);
  EXPECT_FALSE(cb.Build().ok());
}

TEST(BuilderTest, NativeAndAbstractMethods) {
  ClassBuilder cb("test/Natives", "java/lang/Object", AccessFlags::kPublic);
  cb.AddNativeMethod(AccessFlags::kPublic | AccessFlags::kStatic, "now", "()J");
  cb.AddAbstractMethod(AccessFlags::kPublic, "run", "()V");
  auto cls = cb.Build();
  ASSERT_TRUE(cls.ok());
  EXPECT_TRUE(cls->FindMethod("now", "()J")->IsNative());
  EXPECT_TRUE(cls->FindMethod("run", "()V")->IsAbstract());
  EXPECT_FALSE(cls->FindMethod("now", "()J")->code.has_value());
}

TEST(SerializerTest, RoundTripsClass) {
  ClassFile cls = BuildCounterClass();
  Bytes data = MustWriteClassFile(cls);
  auto back = ReadClassFile(data);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(back->name(), "test/Counter");
  EXPECT_EQ(back->super_name(), "java/lang/Object");
  const MethodInfo* m = back->FindMethod("sumTo", "(I)I");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->code->code, cls.FindMethod("sumTo", "(I)I")->code->code);
  // Second serialization is byte-identical.
  EXPECT_EQ(MustWriteClassFile(*back), data);
}

TEST(SerializerTest, RoundTripsAttributes) {
  ClassBuilder cb("test/Attrs", "java/lang/Object");
  auto built = cb.Build();
  ASSERT_TRUE(built.ok());
  ClassFile cls = std::move(built).value();
  cls.SetAttribute(kAttrSignatureDigest, Bytes{1, 2, 3});
  Bytes data = MustWriteClassFile(cls);
  auto back = ReadClassFile(data);
  ASSERT_TRUE(back.ok());
  const Attribute* attr = back->FindAttribute(kAttrSignatureDigest);
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->data, (Bytes{1, 2, 3}));
}

TEST(SerializerTest, RejectsBadMagic) {
  Bytes data = MustWriteClassFile(BuildCounterClass());
  data[0] ^= 0xFF;
  EXPECT_FALSE(ReadClassFile(data).ok());
}

TEST(SerializerTest, RejectsTrailingGarbage) {
  Bytes data = MustWriteClassFile(BuildCounterClass());
  data.push_back(0);
  EXPECT_FALSE(ReadClassFile(data).ok());
}

TEST(SerializerTest, RejectsTruncation) {
  Bytes data = MustWriteClassFile(BuildCounterClass());
  for (size_t cut : {size_t{1}, data.size() / 2, data.size() - 1}) {
    Bytes truncated(data.begin(), data.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ReadClassFile(truncated).ok()) << "cut at " << cut;
  }
}

TEST(ClassFileTest, AttributeSetReplaceRemove) {
  ClassFile cls;
  cls.SetAttribute("x", Bytes{1});
  cls.SetAttribute("x", Bytes{2});
  ASSERT_EQ(cls.attributes.size(), 1u);
  EXPECT_EQ(cls.FindAttribute("x")->data, Bytes{2});
  EXPECT_TRUE(cls.RemoveAttribute("x"));
  EXPECT_FALSE(cls.RemoveAttribute("x"));
  EXPECT_EQ(cls.FindAttribute("x"), nullptr);
}

TEST(DisasmTest, ListsInstructions) {
  ClassFile cls = BuildCounterClass();
  std::string text = DisassembleClass(cls);
  EXPECT_NE(text.find("class test/Counter"), std::string::npos);
  EXPECT_NE(text.find("sumTo"), std::string::npos);
  EXPECT_NE(text.find("if_icmpge"), std::string::npos);
  EXPECT_NE(text.find("iinc"), std::string::npos);
}

}  // namespace
}  // namespace dvm
