// Tier-1 baseline compiler (DESIGN.md §16): compiles hot methods from decoded
// bytecode into a linear superinstruction form executed by a register-style
// dispatch loop (Interpreter::RunCompiled) that bypasses per-instruction
// decode. The compiled form is segmented into basic-block *spans*; each span
// head carries the span's instruction charge so the virtual clock and the
// architectural counters advance exactly as the interpreter would, and every
// span head doubles as a deoptimization point (compiled-pc -> bytecode-pc).
//
// BaselineCompile is a deterministic pure function of (code, pool), so the
// network ships no compiled code: the proxy ships the names of hot methods
// (kAttrHotMethods) and each client compiles them itself.
#ifndef SRC_RUNTIME_TIERED_H_
#define SRC_RUNTIME_TIERED_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/bytecode/code.h"
#include "src/bytecode/constant_pool.h"
#include "src/support/bytes.h"

namespace dvm {

// Compiled opcodes. Pure ops have self-described stack effects and execute
// without any per-instruction bookkeeping; checked ops synchronize the frame
// and re-dispatch through the live bytecode site (so lazy quickening and the
// inline caches stay authoritative), and always terminate a span.
enum class TOp : uint8_t {
  kNop = 0,
  kConstI,    // push int immediate a
  kConstL,    // push long consts[a]
  kConstNull, // push null reference
  kLoad,      // push locals[a]
  kStore,     // locals[a] = pop
  kIinc,      // int locals[a] += b (wrapping)
  kPop,
  kDup,
  kDupX1,
  kSwap,
  kIAlu,      // int binop `sub` over the top two slots
  kLAlu,      // long binop `sub`
  kIneg,
  kLneg,
  kI2l,
  kL2i,
  kLcmp,
  // Fused superinstructions (pure, within one span):
  kAluLL,     // push locals[a] `sub` locals[b]
  kAluLC,     // push locals[a] `sub` imm b
  kAluLLS,    // locals[c] = locals[a] `sub` locals[b]
  kAluLCS,    // locals[c] = locals[a] `sub` imm b
  // Branches (span terminators; targets are compiled indices):
  kGoto,      // ci = a
  kBrI,       // pop v; if (cond sub)(v, 0) ci = a
  kBrII,      // pop r, l; if (icmp sub)(l, r) ci = a
  kBrA,       // reference conds (ifnull/ifnonnull/if_acmpeq/ne) via sub; ci = a
  kBrLL,      // if (icmp sub)(locals[a], locals[b]) ci = c   (fused)
  kBrLC,      // if (icmp sub)(locals[a], imm b) ci = c       (fused)
  // Checked ops (span terminators):
  kDivRem,    // idiv/irem/ldiv/lrem via sub
  kArrLoad,   // iaload/laload/aaload via sub
  kArrStore,  // iastore/lastore/aastore via sub
  kArrLen,
  kField,     // get/put field/static; dispatches on the live (quickened) site
  kInvoke,    // a = argc incl. receiver, b = 1 if a result is pushed
  kNew,
  kNewArray,  // a = ArrayKind
  kANewArray,
  kRet,       // return forms via sub
  kLastTOp = kRet,
};

// Set on branches whose source target precedes the branch (taken => backedge
// profile tick, mirroring the interpreter's QBRANCH exactly).
inline constexpr uint16_t kTierFlagBackward = 1;

struct CInstr {
  TOp op = TOp::kNop;
  uint8_t sub = 0;     // source Op byte for ALU / branch-cond / checked dispatch
  uint16_t flags = 0;
  int32_t a = 0;
  int32_t b = 0;
  int32_t c = 0;
  // First covered source-instruction index. Span heads deopt here on budget
  // exhaustion; checked ops resume the interpreter at bc + 1.
  uint32_t bc = 0;
  // Span head: number of source instructions in the span (charged in bulk
  // before the span executes, matching the interpreter's fetch-time charging).
  // Interior instructions carry 0.
  uint32_t charge = 0;
};

struct TieredMethod {
  std::vector<CInstr> code;
  std::vector<int64_t> consts;     // long constant table (kConstL)
  // bytecode index -> compiled index, one entry per span head. Every branch
  // target and every deopt resume point is a span head.
  std::unordered_map<uint32_t, uint32_t> entry;
  // Set on megamorphic transition or class redefinition; compiled frames
  // observe it at span boundaries and deoptimize.
  bool invalidated = false;
};

// Compiles decoded bytecode to tiered form. Returns nullptr when the method
// uses a construct outside the tier-1 subset (athrow, monitors, checkcast/
// instanceof, string constants, unreachable code, ...) or fails the
// stack-depth analysis; such methods stay on the quickened interpreter.
std::unique_ptr<TieredMethod> BaselineCompile(const std::vector<Instr>& code,
                                              const ConstantPool& pool,
                                              uint32_t max_stack, uint32_t max_locals);

// The hot-method hint payload (kAttrHotMethods) naming `method_ids`
// ("name:descriptor"): the ids in set order, joined by '\n'.
Bytes HotMethodHint(const std::set<std::string>& method_ids);

// True when the hint payload has a line equal to `method_id`. Any payload is
// well formed: junk bytes and lines that name no method simply never match.
bool HintNamesMethod(const Bytes& hint, std::string_view method_id);

// Maps quick forms to their raw source op (identity for raw ops). Compiling
// from a partially quickened body and from pristine bytecode must produce the
// same compiled code.
Op NormalizeQuickOp(Op op);

}  // namespace dvm

#endif  // SRC_RUNTIME_TIERED_H_
