// Shared phase-2/phase-3 machinery for the two consumers of the typestate
// lattice: the full fixpoint verifier (verifier.cc) and the one-pass
// certificate validator (certificate.cc). Both drive the SAME abstract
// transfer function over the SAME decoded code, which is what makes their
// accept/reject verdicts — and the link-time assumptions they derive —
// byte-identical by construction rather than by parallel maintenance.
#ifndef SRC_VERIFIER_DATAFLOW_H_
#define SRC_VERIFIER_DATAFLOW_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/support/result.h"
#include "src/verifier/assumptions.h"
#include "src/verifier/class_env.h"
#include "src/verifier/typestate.h"
#include "src/verifier/verifier.h"

namespace dvm {

// Phase 1: class file internal consistency (constant pool, descriptor syntax,
// method/field shape rules). Shared verbatim by VerifyClass and the
// certificate validator; bumps stats->phase1_checks.
Status Phase1(const ClassFile& cls, VerifyStats* stats);

// Upper bound on instructions x (max_locals + max_stack), the type slots of a
// method's frame table (one frame per instruction, see FrameTable). Without
// it, 100 bytes of nops with max_locals = 65535 would make the verifier
// allocate ~78 MB. The largest method in the bundled workloads takes 476,960
// slots (an applet Main.bulk of 119,240 instructions x 4), under a quarter of
// the bound.
inline constexpr uint64_t kMaxFrameTableSlots = uint64_t{1} << 21;

// Phase 2: instruction integrity (decode, operand validity, handler ranges,
// fall-off-the-end, the frame-table bound). Bumps stats->phase2_checks /
// instructions_verified.
Result<DecodedCode> Phase2(const ClassFile& cls, const MethodInfo& method, VerifyStats* stats);

// Class-level inheritance check shared by VerifyClass and the certificate
// validator: extending a known-final class is rejected; an unknown superclass
// becomes a class-scoped existence assumption.
Status CheckSuperclass(const ClassFile& cls, const ClassEnv& env, uint64_t* checks,
                       std::vector<Assumption>* assumptions);

// Constant-pool entries as the transfer function consumes them, resolved once
// per class (after phase 1 has validated the pool): names interned into the
// class's TypeNames and descriptors parsed. Stepping an instruction then reads
// a slot instead of building strings. Environment lookups stay in the step:
// callers such as the proxy count every one.
class ResolvedPool {
 public:
  struct ClassRef {
    std::string name;
    VType type;        // Ref(name)
    VType array_type;  // anewarray's result: Ref("[" + DescriptorFromClassName(name))
  };
  struct Member {
    MemberRef ref;
    VType type;  // field: FromDescriptor(ref.descriptor)
    // Method: the parsed descriptor, or the parse error the invoke reports.
    Result<MethodSignature> sig = MethodSignature{};
    std::vector<VType> params;
    VType ret;
    bool is_init = false;  // member_name == "<init>"
  };

  // `names` receives every name the class's types use; it must outlive the
  // pool.
  ResolvedPool(const ClassFile& cls, TypeNames& names);

  // Entries by constant-pool index; phase 2 has checked the index's tag.
  const ClassRef& class_ref(uint16_t index) const { return classes_[slot_[index]]; }
  const Member& member(uint16_t index) const { return members_[slot_[index]]; }
  TypeNames& names() const { return names_; }

 private:
  TypeNames& names_;
  std::vector<uint32_t> slot_;  // cp index -> position in classes_ or members_
  std::vector<ClassRef> classes_;
  std::vector<Member> members_;
};

// Frames indexed by instruction, stored back to back in one array. A slot's
// shape is fixed when it is first set (merges keep it), so a method's frames
// cost one growing allocation instead of two per instruction. Views stay
// valid until the next Set().
class FrameTable {
 public:
  void Reset(size_t count) {
    slots_.assign(count, Slot{});
    types_.clear();
  }
  bool has(size_t index) const { return slots_[index].offset != kAbsent; }
  FrameView operator[](size_t index) {
    const Slot& slot = slots_[index];
    VType* base = types_.data() + slot.offset;
    return {{base, slot.locals}, {base + slot.locals, slot.stack}};
  }
  void Set(size_t index, const Frame& frame) {
    slots_[index] = {types_.size(), static_cast<uint32_t>(frame.locals.size()),
                     static_cast<uint32_t>(frame.stack.size())};
    types_.insert(types_.end(), frame.locals.begin(), frame.locals.end());
    types_.insert(types_.end(), frame.stack.begin(), frame.stack.end());
  }

 private:
  static constexpr size_t kAbsent = SIZE_MAX;
  // Frame sizes come from max_locals (16 bits) or a certificate's 32-bit
  // counts.
  struct Slot {
    size_t offset = kAbsent;  // into types_
    uint32_t locals = 0;
    uint32_t stack = 0;
  };
  std::vector<Slot> slots_;
  std::vector<VType> types_;
};

// Dataflow storage for one class: the per-instruction frames (the fixpoint's
// in-frames, or the validator's shadow joins), the validator's asserted
// frames, and the frame being stepped. Each method reuses the allocations of
// the methods before it; the whole lot is freed with the class.
struct DataflowScratch {
  FrameTable frames;
  std::vector<const Frame*> asserted;
  Frame work;
};

// Abstract execution of one method's instructions over typestate frames. The
// interpreter is stateless between calls apart from its check counter,
// assumption sink and the edge storage HandlerEdges reuses — the fixpoint
// loop and the single validation pass both sit on top of it.
class AbstractInterpreter {
 public:
  // Edges out of one stepped instruction: an explicit branch target and/or
  // fall-through to index+1.
  struct StepResult {
    std::optional<size_t> branch_target;
    bool fallthrough = false;
  };

  // One exception edge: the handler's entry frame (covered instruction's
  // locals, stack exactly [thrown reference]) and its target index.
  struct HandlerEdge {
    size_t target = 0;
    Frame frame;
  };

  // `checks` counts discrete phase-3 checks (the verifier points it at
  // phase3_checks, the validator at its own counter); `assumptions` receives
  // link-time assumptions stamped with this method's id. Both must outlive
  // the interpreter. Types are named in pool.names().
  AbstractInterpreter(const ClassFile& cls, const MethodInfo& method, const DecodedCode& mc,
                      const ClassEnv& env, const ResolvedPool& pool, uint64_t* checks,
                      std::vector<Assumption>* assumptions);

  // Frame on entry to instruction 0: receiver + parameters in locals.
  Frame EntryFrame() const;

  // Abstractly executes instruction `index`, turning `frame` from its entry
  // frame into its outgoing frame. A returned error is a verification
  // failure, after which `frame` is unspecified.
  Result<StepResult> Step(size_t index, Frame& frame);

  // Exception edges out of instruction `index` given its entry frame: one per
  // handler covering the pc. Rejects a handler whose thrown reference cannot
  // fit on the operand stack (max_stack == 0) or whose catch type is provably
  // not a Throwable; an unknown catch type becomes an assignability
  // assumption. The edges stay valid until the next call.
  Result<std::span<const HandlerEdge>> HandlerEdges(size_t index, const Frame& frame);

 private:
  void Check() { (*checks_)++; }
  void Assume(Assumption a);
  void AssumeClass(const std::string& class_name);
  Error Fail(size_t index, const std::string& message) const;

  Result<VType> Pop(Frame& frame, size_t index);
  Status PopKind(Frame& frame, size_t index, VType::Kind kind, const char* what);
  Status PopRefLike(Frame& frame, size_t index, VType* out);
  // Pops a value for a slot of descriptor `desc`, whose type is `want`.
  Status PopAssignable(Frame& frame, size_t index, const VType& want, const std::string& desc);
  Status Push(Frame& frame, size_t index, VType t);
  Result<VType> GetLocal(const Frame& frame, size_t index, int slot, VType::Kind want,
                         const char* what);
  Status ResolveField(size_t index, const ResolvedPool::Member& field, bool want_static);
  Status ResolveMethod(size_t index, const ResolvedPool::Member& method, Op op);

  const ClassFile& cls_;
  const MethodInfo& method_;
  const DecodedCode& mc_;
  const ClassEnv& env_;
  const ResolvedPool& pool_;
  TypeNames& names_;
  uint64_t* checks_;
  std::vector<Assumption>* assumptions_;
  MethodSignature sig_;
  VType return_type_;
  std::string method_id_;
  std::vector<HandlerEdge> edges_;
};

}  // namespace dvm

#endif  // SRC_VERIFIER_DATAFLOW_H_
