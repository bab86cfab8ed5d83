#include "src/bytecode/stack_effect.h"

#include <algorithm>
#include <deque>
#include <string>

#include "src/bytecode/descriptor.h"

namespace dvm {
namespace {

// Pops/pushes for instructions with pool-dependent effects.
struct Effect {
  int pops;
  int pushes;
};

Result<Effect> VariableEffect(const Instr& instr, const ConstantPool& pool) {
  uint16_t index = static_cast<uint16_t>(instr.a);
  switch (instr.op) {
    case Op::kGetstatic:
      return Effect{0, 1};
    case Op::kPutstatic:
      return Effect{1, 0};
    case Op::kGetfield:
      return Effect{1, 1};
    case Op::kPutfield:
      return Effect{2, 0};
    case Op::kInvokestatic:
    case Op::kInvokevirtual:
    case Op::kInvokespecial: {
      DVM_ASSIGN_OR_RETURN(MemberRef ref, pool.MethodRefAt(index));
      DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(ref.descriptor));
      int pops = sig.ArgSlots() + (instr.op == Op::kInvokestatic ? 0 : 1);
      int pushes = sig.ReturnsVoid() ? 0 : 1;
      return Effect{pops, pushes};
    }
    default:
      return Error{ErrorCode::kInternal, "not a variable-stack opcode"};
  }
}

// Fixed pop counts for instructions whose OpInfo carries only the net delta.
int FixedPops(Op op) {
  switch (op) {
    case Op::kIstore:
    case Op::kLstore:
    case Op::kAstore:
    case Op::kPop:
    case Op::kIneg:
    case Op::kLneg:
    case Op::kI2l:
    case Op::kL2i:
    case Op::kIreturn:
    case Op::kLreturn:
    case Op::kAreturn:
    case Op::kAthrow:
    case Op::kMonitorenter:
    case Op::kMonitorexit:
    case Op::kIfeq:
    case Op::kIfne:
    case Op::kIflt:
    case Op::kIfge:
    case Op::kIfgt:
    case Op::kIfle:
    case Op::kIfnull:
    case Op::kIfnonnull:
    case Op::kNewarray:
    case Op::kAnewarray:
    case Op::kArraylength:
    case Op::kCheckcast:
    case Op::kInstanceof:
    case Op::kDup:
      return op == Op::kDup ? 1 : 1;
    case Op::kIaload:
    case Op::kLaload:
    case Op::kAaload:
    case Op::kIadd:
    case Op::kLadd:
    case Op::kIsub:
    case Op::kLsub:
    case Op::kImul:
    case Op::kLmul:
    case Op::kIdiv:
    case Op::kLdiv:
    case Op::kIrem:
    case Op::kLrem:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
    case Op::kLcmp:
    case Op::kSwap:
    case Op::kDupX1:
    case Op::kIfIcmpeq:
    case Op::kIfIcmpne:
    case Op::kIfIcmplt:
    case Op::kIfIcmpge:
    case Op::kIfIcmpgt:
    case Op::kIfIcmple:
    case Op::kIfAcmpeq:
    case Op::kIfAcmpne:
      return 2;
    case Op::kIastore:
    case Op::kLastore:
    case Op::kAastore:
      return 3;
    default:
      return 0;
  }
}

}  // namespace

Result<int> StackDelta(const Instr& instr, const ConstantPool& pool) {
  const OpInfo* info = GetOpInfo(instr.op);
  if (info == nullptr) {
    return Error{ErrorCode::kInternal, "unknown opcode in StackDelta"};
  }
  if (!info->variable_stack) {
    return info->stack_delta;
  }
  DVM_ASSIGN_OR_RETURN(Effect e, VariableEffect(instr, pool));
  return e.pushes - e.pops;
}

Result<int> StackPops(const Instr& instr, const ConstantPool& pool) {
  const OpInfo* info = GetOpInfo(instr.op);
  if (info == nullptr) {
    return Error{ErrorCode::kInternal, "unknown opcode in StackPops"};
  }
  if (info->variable_stack) {
    DVM_ASSIGN_OR_RETURN(Effect e, VariableEffect(instr, pool));
    return e.pops;
  }
  return FixedPops(instr.op);
}

Result<uint16_t> ComputeMaxStackDepth(const std::vector<Instr>& instrs,
                                      const ConstantPool& pool,
                                      const std::vector<uint32_t>& handler_entries) {
  if (instrs.empty()) {
    return static_cast<uint16_t>(0);
  }
  // Depths must agree at merge points for well-formed code; this takes the
  // max and leaves conflicts to the verifier.
  std::vector<int> depth_at(instrs.size(), -1);
  std::deque<size_t> work;
  auto schedule = [&](size_t index, int depth) {
    if (index >= instrs.size()) {
      return;
    }
    if (depth_at[index] < depth) {
      depth_at[index] = depth;
      work.push_back(index);
    }
  };
  schedule(0, 0);
  for (uint32_t entry : handler_entries) {
    schedule(entry, 1);
  }

  int max_depth = 0;
  while (!work.empty()) {
    size_t index = work.front();
    work.pop_front();
    int depth = depth_at[index];
    const Instr& instr = instrs[index];
    DVM_ASSIGN_OR_RETURN(int delta, StackDelta(instr, pool));
    DVM_ASSIGN_OR_RETURN(int pops, StackPops(instr, pool));
    if (depth < pops) {
      return Error{ErrorCode::kInvalidArgument,
                   "stack underflow at instruction " + std::to_string(index)};
    }
    int next = depth + delta;
    if (next > 0xFFFF) {
      return Error{ErrorCode::kCapacity, "max stack exceeds 65535"};
    }
    max_depth = std::max(max_depth, std::max(depth, next));
    if (IsBranch(instr.op)) {
      schedule(static_cast<size_t>(instr.a), next);
    }
    if (!IsTerminator(instr.op)) {
      schedule(index + 1, next);
    }
  }
  return static_cast<uint16_t>(max_depth);
}

}  // namespace dvm
