#include "src/runtime/tiered.h"

#include "src/bytecode/descriptor.h"
#include "src/bytecode/opcodes.h"

namespace dvm {

namespace {

constexpr uint32_t kBlobMagic = 0x44564d54;  // "DVMT"
constexpr uint16_t kBlobVersion = 1;

bool IsIntAluOp(Op op) {
  switch (op) {
    case Op::kIadd:
    case Op::kIsub:
    case Op::kImul:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr:
      return true;
    default:
      return false;
  }
}

bool IsLongAluOp(Op op) {
  return op == Op::kLadd || op == Op::kLsub || op == Op::kLmul;
}

bool IsIfCond(Op op) {
  return op >= Op::kIfeq && op <= Op::kIfle;
}

bool IsIcmpCond(Op op) {
  return op >= Op::kIfIcmpeq && op <= Op::kIfIcmple;
}

bool IsRefCond(Op op) {
  return op == Op::kIfAcmpeq || op == Op::kIfAcmpne || op == Op::kIfnull ||
         op == Op::kIfnonnull;
}

// True when `instr` pushes an int constant the fuser can fold into an
// immediate operand.
bool IntConstValue(const Instr& instr, const ConstantPool& pool, int32_t* out) {
  switch (instr.op) {
    case Op::kIconst0:
      *out = 0;
      return true;
    case Op::kIconst1:
      *out = 1;
      return true;
    case Op::kBipush:
    case Op::kSipush:
      *out = instr.a;
      return true;
    case Op::kLdc:
    case Op::kLdcQuick: {
      uint16_t ix = static_cast<uint16_t>(instr.a);
      if (!pool.HasTag(ix, CpTag::kInteger)) {
        return false;
      }
      auto v = pool.IntegerAt(ix);
      if (!v.ok()) {
        return false;
      }
      *out = *v;
      return true;
    }
    default:
      return false;
  }
}

struct StackEffect {
  int pops = 0;
  int pushes = 0;
};

// Compile-time stack effect of a *supported* source instruction. Returns false
// for anything outside the tier-1 subset.
bool SourceEffect(const Instr& instr, const ConstantPool& pool, StackEffect* eff) {
  Op op = NormalizeQuickOp(instr.op);
  switch (op) {
    case Op::kNop:
      *eff = {0, 0};
      return true;
    case Op::kAconstNull:
    case Op::kIconst0:
    case Op::kIconst1:
    case Op::kBipush:
    case Op::kSipush:
      *eff = {0, 1};
      return true;
    case Op::kLdc: {
      uint16_t ix = static_cast<uint16_t>(instr.a);
      // Strings allocate + intern; keep those sites on the interpreter.
      if (!pool.HasTag(ix, CpTag::kInteger) && !pool.HasTag(ix, CpTag::kLong)) {
        return false;
      }
      *eff = {0, 1};
      return true;
    }
    case Op::kIload:
    case Op::kLload:
    case Op::kAload:
      *eff = {0, 1};
      return true;
    case Op::kIstore:
    case Op::kLstore:
    case Op::kAstore:
      *eff = {1, 0};
      return true;
    case Op::kIaload:
    case Op::kLaload:
    case Op::kAaload:
      *eff = {2, 1};
      return true;
    case Op::kIastore:
    case Op::kLastore:
    case Op::kAastore:
      *eff = {3, 0};
      return true;
    case Op::kPop:
      *eff = {1, 0};
      return true;
    case Op::kDup:
      *eff = {1, 2};
      return true;
    case Op::kDupX1:
      *eff = {2, 3};
      return true;
    case Op::kSwap:
      *eff = {2, 2};
      return true;
    case Op::kIadd:
    case Op::kIsub:
    case Op::kImul:
    case Op::kIdiv:
    case Op::kIrem:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr:
    case Op::kLadd:
    case Op::kLsub:
    case Op::kLmul:
    case Op::kLdiv:
    case Op::kLrem:
    case Op::kLcmp:
      *eff = {2, 1};
      return true;
    case Op::kIneg:
    case Op::kLneg:
    case Op::kI2l:
    case Op::kL2i:
      *eff = {1, 1};
      return true;
    case Op::kIinc:
      *eff = {0, 0};
      return true;
    case Op::kGoto:
      *eff = {0, 0};
      return true;
    case Op::kIfeq:
    case Op::kIfne:
    case Op::kIflt:
    case Op::kIfge:
    case Op::kIfgt:
    case Op::kIfle:
    case Op::kIfnull:
    case Op::kIfnonnull:
      *eff = {1, 0};
      return true;
    case Op::kIfIcmpeq:
    case Op::kIfIcmpne:
    case Op::kIfIcmplt:
    case Op::kIfIcmpge:
    case Op::kIfIcmpgt:
    case Op::kIfIcmple:
    case Op::kIfAcmpeq:
    case Op::kIfAcmpne:
      *eff = {2, 0};
      return true;
    case Op::kIreturn:
    case Op::kLreturn:
    case Op::kAreturn:
      *eff = {1, 0};
      return true;
    case Op::kReturn:
      *eff = {0, 0};
      return true;
    case Op::kGetstatic:
      *eff = {0, 1};
      return true;
    case Op::kPutstatic:
      *eff = {1, 0};
      return true;
    case Op::kGetfield:
      *eff = {1, 1};
      return true;
    case Op::kPutfield:
      *eff = {2, 0};
      return true;
    case Op::kInvokevirtual:
    case Op::kInvokespecial:
    case Op::kInvokestatic: {
      auto ref = pool.MethodRefAt(static_cast<uint16_t>(instr.a));
      if (!ref.ok()) {
        return false;
      }
      auto sig = ParseMethodDescriptor(ref->descriptor);
      if (!sig.ok()) {
        return false;
      }
      int argc = sig->ArgSlots() + (op == Op::kInvokestatic ? 0 : 1);
      *eff = {argc, sig->ReturnsVoid() ? 0 : 1};
      return true;
    }
    case Op::kNew:
      *eff = {0, 1};
      return true;
    case Op::kNewarray:
    case Op::kAnewarray:
    case Op::kArraylength:
      *eff = {1, 1};
      return true;
    default:
      // athrow, checkcast/instanceof, monitors, unknown: stay interpreted.
      return false;
  }
}

bool IsCheckedOp(Op op) {
  switch (NormalizeQuickOp(op)) {
    case Op::kIdiv:
    case Op::kIrem:
    case Op::kLdiv:
    case Op::kLrem:
    case Op::kIaload:
    case Op::kLaload:
    case Op::kAaload:
    case Op::kIastore:
    case Op::kLastore:
    case Op::kAastore:
    case Op::kArraylength:
    case Op::kGetstatic:
    case Op::kPutstatic:
    case Op::kGetfield:
    case Op::kPutfield:
    case Op::kInvokevirtual:
    case Op::kInvokespecial:
    case Op::kInvokestatic:
    case Op::kNew:
    case Op::kNewarray:
    case Op::kAnewarray:
      return true;
    default:
      return false;
  }
}

// Span boundary after this instruction (control or a checked op that may
// suspend the compiled frame).
bool EndsSpan(Op op) {
  Op raw = NormalizeQuickOp(op);
  return IsBranch(raw) || IsReturn(raw) || IsCheckedOp(raw);
}

}  // namespace

Op NormalizeQuickOp(Op op) {
  switch (op) {
    case Op::kLdcQuick:
      return Op::kLdc;
    case Op::kGetfieldQuick:
      return Op::kGetfield;
    case Op::kPutfieldQuick:
      return Op::kPutfield;
    case Op::kGetstaticQuick:
      return Op::kGetstatic;
    case Op::kPutstaticQuick:
      return Op::kPutstatic;
    case Op::kInvokevirtualQuick:
      return Op::kInvokevirtual;
    case Op::kInvokespecialQuick:
      return Op::kInvokespecial;
    case Op::kInvokestaticQuick:
      return Op::kInvokestatic;
    case Op::kNewQuick:
      return Op::kNew;
    case Op::kAnewarrayQuick:
      return Op::kAnewarray;
    case Op::kCheckcastQuick:
      return Op::kCheckcast;
    case Op::kInstanceofQuick:
      return Op::kInstanceof;
    default:
      return op;
  }
}

std::unique_ptr<TieredMethod> BaselineCompile(const std::vector<Instr>& code,
                                              const ConstantPool& pool,
                                              uint32_t max_stack, uint32_t max_locals) {
  size_t n = code.size();
  if (n == 0 || n > 0xffffff) {
    return nullptr;
  }

  // --- pass 1: support check, leaders, stack-depth analysis ------------------
  // depth[i] = operand-stack depth at entry to instruction i; -1 = unreachable.
  std::vector<int> depth(n, -1);
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (size_t i = 0; i < n; i++) {
    Op raw = NormalizeQuickOp(code[i].op);
    if (IsBranch(raw)) {
      uint32_t target = static_cast<uint32_t>(code[i].a);
      if (target >= n) {
        return nullptr;  // DecodeCode guarantees this; defend anyway
      }
      leader[target] = true;
      if (IsConditionalBranch(raw) && i + 1 < n) {
        leader[i + 1] = true;
      }
    }
    if (EndsSpan(code[i].op) && i + 1 < n) {
      leader[i + 1] = true;
    }
    // Local-index bounds: the interpreter host-errors past max_locals; refuse
    // so that path stays interpreted.
    switch (raw) {
      case Op::kIload:
      case Op::kLload:
      case Op::kAload:
      case Op::kIstore:
      case Op::kLstore:
      case Op::kAstore:
      case Op::kIinc:
        if (code[i].a < 0 || static_cast<uint32_t>(code[i].a) >= max_locals) {
          return nullptr;
        }
        break;
      default:
        break;
    }
  }

  std::vector<uint32_t> worklist = {0};
  depth[0] = 0;
  while (!worklist.empty()) {
    uint32_t i = worklist.back();
    worklist.pop_back();
    int d = depth[i];
    StackEffect eff;
    if (!SourceEffect(code[i], pool, &eff)) {
      return nullptr;
    }
    if (d < eff.pops || d - eff.pops + eff.pushes > static_cast<int>(max_stack)) {
      return nullptr;  // interpreter would host-error; keep it there
    }
    int out = d - eff.pops + eff.pushes;
    Op raw = NormalizeQuickOp(code[i].op);
    auto flow = [&](uint32_t succ) -> bool {
      if (succ >= n) {
        return false;  // falling off the end = pc escape; stay interpreted
      }
      if (depth[succ] == -1) {
        depth[succ] = out;
        worklist.push_back(succ);
      } else if (depth[succ] != out) {
        return false;  // inconsistent merge; the verifier may allow dead
                       // patterns the depth model cannot prove — refuse
      }
      return true;
    };
    if (IsBranch(raw)) {
      if (!flow(static_cast<uint32_t>(code[i].a))) {
        return nullptr;
      }
      if (IsConditionalBranch(raw) && !flow(static_cast<uint32_t>(i + 1))) {
        return nullptr;
      }
    } else if (!IsReturn(raw)) {
      if (!flow(static_cast<uint32_t>(i + 1))) {
        return nullptr;
      }
    }
  }

  // --- pass 2: emission, span segmentation, superinstruction fusion ----------
  auto t = std::make_unique<TieredMethod>();

  struct Fixup {
    uint32_t ci;
    bool in_c;          // target field: c (fused branches) vs a
    uint32_t target;    // source instruction index
    uint32_t branch_src;
  };
  std::vector<Fixup> fixups;

  auto long_const = [&](int64_t v) -> int32_t {
    for (size_t k = 0; k < t->consts.size(); k++) {
      if (t->consts[k] == v) {
        return static_cast<int32_t>(k);
      }
    }
    t->consts.push_back(v);
    return static_cast<int32_t>(t->consts.size() - 1);
  };

  auto is_load = [&](size_t i) { return i < n && code[i].op == Op::kIload; };
  auto is_const = [&](size_t i, int32_t* v) {
    return i < n && !leader[i] && IntConstValue(code[i], pool, v);
  };

  size_t i = 0;
  while (i < n) {
    if (depth[i] == -1) {
      i++;  // unreachable: nothing can branch or fall through here
      continue;
    }
    // One span: [i, end) where end is the next leader or just past a
    // span-ending instruction.
    size_t span_start = i;
    uint32_t head_ci = static_cast<uint32_t>(t->code.size());
    t->entry[static_cast<uint32_t>(span_start)] = head_ci;
    while (i < n) {
      const Instr& in = code[i];
      Op raw = NormalizeQuickOp(in.op);
      CInstr out;
      out.bc = static_cast<uint32_t>(i);
      size_t consumed = 1;
      int32_t imm = 0;

      // Fusion windows (pure ops only; interior instructions must not be
      // leaders so no branch can enter mid-superinstruction).
      if (raw == Op::kIload && i + 2 < n && !leader[i + 1] && !leader[i + 2]) {
        if (is_load(i + 1) && IsIcmpCond(code[i + 2].op)) {
          out.op = TOp::kBrLL;
          out.sub = static_cast<uint8_t>(code[i + 2].op);
          out.a = in.a;
          out.b = code[i + 1].a;
          fixups.push_back({static_cast<uint32_t>(t->code.size()), true,
                            static_cast<uint32_t>(code[i + 2].a),
                            static_cast<uint32_t>(i + 2)});
          consumed = 3;
        } else if (is_const(i + 1, &imm) && IsIcmpCond(code[i + 2].op)) {
          out.op = TOp::kBrLC;
          out.sub = static_cast<uint8_t>(code[i + 2].op);
          out.a = in.a;
          out.b = imm;
          fixups.push_back({static_cast<uint32_t>(t->code.size()), true,
                            static_cast<uint32_t>(code[i + 2].a),
                            static_cast<uint32_t>(i + 2)});
          consumed = 3;
        } else if (is_load(i + 1) && IsIntAluOp(code[i + 2].op)) {
          if (i + 3 < n && !leader[i + 3] && code[i + 3].op == Op::kIstore) {
            out.op = TOp::kAluLLS;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = code[i + 1].a;
            out.c = code[i + 3].a;
            consumed = 4;
          } else {
            out.op = TOp::kAluLL;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = code[i + 1].a;
            consumed = 3;
          }
        } else if (is_const(i + 1, &imm) && IsIntAluOp(code[i + 2].op)) {
          if (i + 3 < n && !leader[i + 3] && code[i + 3].op == Op::kIstore) {
            out.op = TOp::kAluLCS;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = imm;
            out.c = code[i + 3].a;
            consumed = 4;
          } else {
            out.op = TOp::kAluLC;
            out.sub = static_cast<uint8_t>(code[i + 2].op);
            out.a = in.a;
            out.b = imm;
            consumed = 3;
          }
        }
      }

      if (consumed == 1) {
        switch (raw) {
          case Op::kNop:
            out.op = TOp::kNop;
            break;
          case Op::kAconstNull:
            out.op = TOp::kConstNull;
            break;
          case Op::kIconst0:
            out.op = TOp::kConstI;
            out.a = 0;
            break;
          case Op::kIconst1:
            out.op = TOp::kConstI;
            out.a = 1;
            break;
          case Op::kBipush:
          case Op::kSipush:
            out.op = TOp::kConstI;
            out.a = in.a;
            break;
          case Op::kLdc: {
            uint16_t ix = static_cast<uint16_t>(in.a);
            if (pool.HasTag(ix, CpTag::kInteger)) {
              auto v = pool.IntegerAt(ix);
              if (!v.ok()) return nullptr;
              out.op = TOp::kConstI;
              out.a = *v;
            } else {
              auto v = pool.LongAt(ix);
              if (!v.ok()) return nullptr;
              out.op = TOp::kConstL;
              out.a = long_const(*v);
            }
            break;
          }
          case Op::kIload:
          case Op::kLload:
          case Op::kAload:
            out.op = TOp::kLoad;
            out.a = in.a;
            break;
          case Op::kIstore:
          case Op::kLstore:
          case Op::kAstore:
            out.op = TOp::kStore;
            out.a = in.a;
            break;
          case Op::kIinc:
            out.op = TOp::kIinc;
            out.a = in.a;
            out.b = in.b;
            break;
          case Op::kPop:
            out.op = TOp::kPop;
            break;
          case Op::kDup:
            out.op = TOp::kDup;
            break;
          case Op::kDupX1:
            out.op = TOp::kDupX1;
            break;
          case Op::kSwap:
            out.op = TOp::kSwap;
            break;
          case Op::kIneg:
            out.op = TOp::kIneg;
            break;
          case Op::kLneg:
            out.op = TOp::kLneg;
            break;
          case Op::kI2l:
            out.op = TOp::kI2l;
            break;
          case Op::kL2i:
            out.op = TOp::kL2i;
            break;
          case Op::kLcmp:
            out.op = TOp::kLcmp;
            break;
          case Op::kGoto:
            out.op = TOp::kGoto;
            fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                              static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            break;
          case Op::kIdiv:
          case Op::kIrem:
          case Op::kLdiv:
          case Op::kLrem:
            out.op = TOp::kDivRem;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kIaload:
          case Op::kLaload:
          case Op::kAaload:
            out.op = TOp::kArrLoad;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kIastore:
          case Op::kLastore:
          case Op::kAastore:
            out.op = TOp::kArrStore;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kArraylength:
            out.op = TOp::kArrLen;
            break;
          case Op::kGetstatic:
          case Op::kPutstatic:
          case Op::kGetfield:
          case Op::kPutfield:
            out.op = TOp::kField;
            out.sub = static_cast<uint8_t>(raw);
            break;
          case Op::kInvokevirtual:
          case Op::kInvokespecial:
          case Op::kInvokestatic: {
            StackEffect eff;
            if (!SourceEffect(in, pool, &eff)) return nullptr;
            out.op = TOp::kInvoke;
            out.sub = static_cast<uint8_t>(raw);
            out.a = eff.pops;
            out.b = eff.pushes;
            break;
          }
          case Op::kNew:
            out.op = TOp::kNew;
            break;
          case Op::kNewarray:
            out.op = TOp::kNewArray;
            out.a = in.a;
            break;
          case Op::kAnewarray:
            out.op = TOp::kANewArray;
            break;
          case Op::kIreturn:
          case Op::kLreturn:
          case Op::kAreturn:
          case Op::kReturn:
            out.op = TOp::kRet;
            out.sub = static_cast<uint8_t>(raw);
            break;
          default:
            if (IsIntAluOp(raw)) {
              out.op = TOp::kIAlu;
              out.sub = static_cast<uint8_t>(raw);
            } else if (IsLongAluOp(raw)) {
              out.op = TOp::kLAlu;
              out.sub = static_cast<uint8_t>(raw);
            } else if (IsIfCond(raw)) {
              out.op = TOp::kBrI;
              out.sub = static_cast<uint8_t>(raw);
              fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                                static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            } else if (IsIcmpCond(raw)) {
              out.op = TOp::kBrII;
              out.sub = static_cast<uint8_t>(raw);
              fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                                static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            } else if (IsRefCond(raw)) {
              out.op = TOp::kBrA;
              out.sub = static_cast<uint8_t>(raw);
              fixups.push_back({static_cast<uint32_t>(t->code.size()), false,
                                static_cast<uint32_t>(in.a), static_cast<uint32_t>(i)});
            } else {
              return nullptr;  // outside the tier-1 subset
            }
            break;
        }
      }

      t->code.push_back(out);
      bool span_done = false;
      // A fused window ending in a branch ends the span exactly where the
      // source branch would.
      Op last = NormalizeQuickOp(code[i + consumed - 1].op);
      if (EndsSpan(code[i + consumed - 1].op) || IsBranch(last)) {
        span_done = true;
      }
      i += consumed;
      if (i < n && leader[i]) {
        span_done = true;
      }
      if (span_done || i >= n) {
        t->code[head_ci].charge = static_cast<uint32_t>(i - span_start);
        break;
      }
    }
  }

  // --- pass 3: branch fixups -------------------------------------------------
  for (const Fixup& fx : fixups) {
    auto it = t->entry.find(fx.target);
    if (it == t->entry.end()) {
      return nullptr;  // target unreachable/unemitted: cannot happen, refuse
    }
    CInstr& br = t->code[fx.ci];
    if (fx.in_c) {
      br.c = static_cast<int32_t>(it->second);
    } else {
      br.a = static_cast<int32_t>(it->second);
    }
    // Matches the interpreter's backedge test (target < pc after increment,
    // i.e. target <= branch index).
    if (fx.target <= fx.branch_src) {
      br.flags |= kTierFlagBackward;
    }
  }
  return t;
}

Bytes HotMethodHint(const std::set<std::string>& method_ids) {
  Bytes hint;
  for (const std::string& id : method_ids) {
    if (!hint.empty()) {
      hint.push_back('\n');
    }
    hint.insert(hint.end(), id.begin(), id.end());
  }
  return hint;
}

bool HintNamesMethod(const Bytes& hint, std::string_view method_id) {
  std::string_view rest(reinterpret_cast<const char*>(hint.data()), hint.size());
  while (!rest.empty()) {
    const size_t end = rest.find('\n');
    if (rest.substr(0, end) == method_id) {
      return true;
    }
    if (end == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(end + 1);
  }
  return false;
}

}  // namespace dvm
