#include "src/bytecode/code.h"

namespace dvm {

Result<DecodedCode> DecodeCode(const Bytes& code) {
  DecodedCode out;
  std::vector<Instr>& instrs = out.instrs;
  out.pc_to_index.assign(code.size() + 1, -1);
  // Instructions average well over one byte; half the length rarely regrows.
  out.instrs.reserve(code.size() / 2 + 1);
  out.offsets.reserve(code.size() / 2 + 2);
  // Branch instructions, resolved to indices once every start is known.
  std::vector<uint32_t> branches;

  size_t pos = 0;
  while (pos < code.size()) {
    uint32_t offset = static_cast<uint32_t>(pos);
    Op op = static_cast<Op>(code[pos]);
    if (IsQuickOp(op)) {
      // Quick forms are installed by the interpreter's quickening pass into
      // decoded code only; a class file carrying them on the wire is hostile
      // or corrupt (verification phase 2 relies on this rejection).
      return Error{ErrorCode::kVerifyError,
                   "quick opcode 0x" + std::to_string(code[pos]) + " at offset " +
                       std::to_string(pos) + " is runtime-internal"};
    }
    const OpInfo* info = GetOpInfo(op);
    if (info == nullptr) {
      return Error{ErrorCode::kVerifyError,
                   "unknown opcode 0x" + std::to_string(code[pos]) + " at offset " +
                       std::to_string(pos)};
    }
    int len = InstructionLength(op);
    if (pos + static_cast<size_t>(len) > code.size()) {
      return Error{ErrorCode::kVerifyError,
                   "truncated instruction at offset " + std::to_string(pos)};
    }
    Instr instr;
    instr.op = op;
    switch (info->operands) {
      case OperandKind::kNone:
        break;
      case OperandKind::kI8:
        instr.a = static_cast<int8_t>(code[pos + 1]);
        break;
      case OperandKind::kU8:
      case OperandKind::kArrayKind:
        instr.a = code[pos + 1];
        break;
      case OperandKind::kI16: {
        instr.a = static_cast<int16_t>((code[pos + 1] << 8) | code[pos + 2]);
        break;
      }
      case OperandKind::kCpIndex:
        instr.a = (code[pos + 1] << 8) | code[pos + 2];
        break;
      case OperandKind::kBranch16: {
        int16_t rel = static_cast<int16_t>((code[pos + 1] << 8) | code[pos + 2]);
        int64_t target = static_cast<int64_t>(offset) + rel;
        if (target < 0 || target >= static_cast<int64_t>(code.size())) {
          return Error{ErrorCode::kVerifyError,
                       "branch at offset " + std::to_string(pos) + " escapes method body"};
        }
        // Holds the byte target until every instruction start is known.
        instr.a = static_cast<int32_t>(target);
        branches.push_back(static_cast<uint32_t>(instrs.size()));
        break;
      }
      case OperandKind::kLocalIncr:
        instr.a = code[pos + 1];
        instr.b = static_cast<int8_t>(code[pos + 2]);
        break;
    }
    out.pc_to_index[offset] = static_cast<int32_t>(instrs.size());
    out.offsets.push_back(offset);
    instrs.push_back(instr);
    pos += static_cast<size_t>(len);
  }
  out.pc_to_index[code.size()] = static_cast<int32_t>(instrs.size());
  out.offsets.push_back(static_cast<uint32_t>(code.size()));

  for (uint32_t ix : branches) {
    // In range: the decode loop bounded every target below code.size().
    int32_t target_ix = out.pc_to_index[static_cast<size_t>(instrs[ix].a)];
    if (target_ix < 0) {
      return Error{ErrorCode::kVerifyError,
                   "branch targets mid-instruction offset " + std::to_string(instrs[ix].a)};
    }
    instrs[ix].a = target_ix;
  }
  return out;
}

std::vector<uint32_t> CodeByteOffsets(const std::vector<Instr>& instrs) {
  std::vector<uint32_t> offsets;
  offsets.reserve(instrs.size() + 1);
  uint32_t pos = 0;
  for (const auto& instr : instrs) {
    offsets.push_back(pos);
    pos += static_cast<uint32_t>(InstructionLength(instr.op));
  }
  offsets.push_back(pos);
  return offsets;
}

Result<Bytes> EncodeCode(const std::vector<Instr>& instrs) {
  std::vector<uint32_t> offsets = CodeByteOffsets(instrs);
  Bytes out;
  out.reserve(offsets.back());
  for (size_t i = 0; i < instrs.size(); i++) {
    const Instr& instr = instrs[i];
    if (IsQuickOp(instr.op)) {
      return Error{ErrorCode::kInternal,
                   "refusing to encode runtime-internal quick opcode"};
    }
    const OpInfo* info = GetOpInfo(instr.op);
    if (info == nullptr) {
      return Error{ErrorCode::kInternal, "encoding unknown opcode"};
    }
    out.push_back(static_cast<uint8_t>(instr.op));
    switch (info->operands) {
      case OperandKind::kNone:
        break;
      case OperandKind::kI8:
        if (instr.a < -128 || instr.a > 127) {
          return Error{ErrorCode::kInvalidArgument, "i8 operand out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kU8:
      case OperandKind::kArrayKind:
        if (instr.a < 0 || instr.a > 255) {
          return Error{ErrorCode::kInvalidArgument, "u8 operand out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kI16:
        if (instr.a < -32768 || instr.a > 32767) {
          return Error{ErrorCode::kInvalidArgument, "i16 operand out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a >> 8));
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kCpIndex:
        if (instr.a < 0 || instr.a > 0xFFFF) {
          return Error{ErrorCode::kInvalidArgument, "cp index out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a >> 8));
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kBranch16: {
        if (instr.a < 0 || static_cast<size_t>(instr.a) >= instrs.size()) {
          return Error{ErrorCode::kInvalidArgument,
                       "branch target index out of range: " + std::to_string(instr.a)};
        }
        int64_t rel = static_cast<int64_t>(offsets[static_cast<size_t>(instr.a)]) -
                      static_cast<int64_t>(offsets[i]);
        if (rel < -32768 || rel > 32767) {
          return Error{ErrorCode::kCapacity, "branch displacement exceeds 16 bits"};
        }
        out.push_back(static_cast<uint8_t>(rel >> 8));
        out.push_back(static_cast<uint8_t>(rel));
        break;
      }
      case OperandKind::kLocalIncr:
        if (instr.a < 0 || instr.a > 255 || instr.b < -128 || instr.b > 127) {
          return Error{ErrorCode::kInvalidArgument, "iinc operands out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a));
        out.push_back(static_cast<uint8_t>(instr.b));
        break;
    }
  }
  return out;
}

}  // namespace dvm
