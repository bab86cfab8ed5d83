#include "src/verifier/verifier.h"

#include <deque>
#include <set>
#include <span>

#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/verifier/certificate.h"
#include "src/verifier/dataflow.h"
#include "src/verifier/typestate.h"

namespace dvm {
namespace {

constexpr const char* kObject = "java/lang/Object";

Error Verr(const std::string& message) { return Error{ErrorCode::kVerifyError, message}; }

}  // namespace

// ---------------------------------------------------------------------------
// Phase 1: class file internal consistency.
// ---------------------------------------------------------------------------

Status Phase1(const ClassFile& cls, VerifyStats* stats) {
  auto check = [&stats] { stats->phase1_checks++; };

  check();
  DVM_RETURN_IF_ERROR(cls.pool().Validate());

  check();
  if (!cls.pool().HasTag(cls.this_class, CpTag::kClass)) {
    return Verr("this_class is not a ClassRef");
  }
  check();
  if (cls.super_class != 0 && !cls.pool().HasTag(cls.super_class, CpTag::kClass)) {
    return Verr("super_class is not a ClassRef");
  }
  check();
  if (cls.super_class == 0 && cls.name() != kObject) {
    return Verr("only java/lang/Object may omit a superclass");
  }
  for (uint16_t iface : cls.interfaces) {
    check();
    if (!cls.pool().HasTag(iface, CpTag::kClass)) {
      return Verr("interface entry is not a ClassRef");
    }
  }
  check();
  if (cls.IsInterface() && (cls.access_flags & AccessFlags::kFinal) != 0) {
    return Verr("interface cannot be final");
  }

  std::set<std::string> field_names;
  for (const auto& f : cls.fields) {
    check();
    if (!IsValidTypeDescriptor(f.descriptor)) {
      return Verr("field " + f.name + " has malformed descriptor " + f.descriptor);
    }
    check();
    if (f.name.empty() || !field_names.insert(f.name).second) {
      return Verr("duplicate or empty field name " + f.name);
    }
  }

  std::set<std::string> method_ids;
  for (const auto& m : cls.methods) {
    check();
    if (!ParseMethodDescriptor(m.descriptor).ok()) {
      return Verr("method " + m.name + " has malformed descriptor " + m.descriptor);
    }
    check();
    if (m.name.empty() || !method_ids.insert(m.Id()).second) {
      return Verr("duplicate or empty method " + m.Id());
    }
    check();
    bool needs_code = !m.IsNative() && !m.IsAbstract();
    if (needs_code != m.code.has_value()) {
      return Verr("method " + m.Id() + (needs_code ? " missing code" : " must not have code"));
    }
    check();
    if (m.IsAbstract() && (m.access_flags & (AccessFlags::kFinal | AccessFlags::kStatic)) != 0) {
      return Verr("abstract method " + m.Id() + " cannot be final or static");
    }
    check();
    if (m.IsConstructor() && m.IsStatic()) {
      return Verr("<init> cannot be static");
    }
    check();
    if (m.IsClassInitializer() && !m.IsStatic()) {
      return Verr("<clinit> must be static");
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 3: fixpoint dataflow over the shared abstract interpreter.
// ---------------------------------------------------------------------------

namespace {

class MethodVerifier {
 public:
  MethodVerifier(const ClassFile& cls, const MethodInfo& method, const DecodedCode& mc,
                 const ClassEnv& env, const ResolvedPool& pool, DataflowScratch& scratch,
                 VerifyStats* stats, std::vector<Assumption>* assumptions)
      : method_(method), mc_(mc), env_(env), names_(pool.names()), stats_(stats),
        assumptions_(assumptions), in_frames_(scratch.frames), work_(scratch.work),
        interp_(cls, method, mc, env, pool, &stats->phase3_checks, &visit_) {}

  Status Run();

  // Fills `out` with the fixpoint frame at every merge point: branch targets
  // and handler entries that are reachable, in increasing index order, which
  // the canonical certificate encoding requires.
  void EmitAssertions(MethodCertificate* out) const;

 private:
  void Check() { stats_->phase3_checks++; }

  Error Fail(size_t index, const std::string& message) const {
    return Verr("merge @" + std::to_string(index) + ": " + message);
  }

  Status Transfer(size_t index);
  Status MergeInto(size_t target, const Frame& frame);

  const MethodInfo& method_;
  const DecodedCode& mc_;
  const ClassEnv& env_;
  TypeNames& names_;
  VerifyStats* stats_;
  std::vector<Assumption>* assumptions_;

  FrameTable& in_frames_;
  Frame& work_;  // the visited instruction's frame, stepped in place
  std::deque<uint32_t> worklist_;  // FIFO of instructions to visit
  // Assumptions recorded by the most recent visit of each instruction that
  // recorded any: buckets_[bucket_of_[i]], or none if bucket_of_[i] is
  // kNoBucket. The final visit always runs at the fixpoint in-frame (any
  // later change would re-enqueue it), so flattening the buckets in
  // instruction order yields exactly the assumptions a single pass over the
  // fixpoint derives — the certificate validator recomputes and compares
  // them.
  static constexpr uint32_t kNoBucket = UINT32_MAX;
  std::vector<uint32_t> bucket_of_;
  std::vector<std::vector<Assumption>> buckets_;
  std::vector<Assumption> visit_;  // the current visit's assumptions
  AbstractInterpreter interp_;
};

Status MethodVerifier::MergeInto(size_t target, const Frame& frame) {
  if (!in_frames_.has(target)) {
    in_frames_.Set(target, frame);
    worklist_.push_back(static_cast<uint32_t>(target));
    return Status::Ok();
  }
  Check();
  FrameView into = in_frames_[target];
  if (into.stack.size() != frame.stack.size()) {
    return Fail(target, "inconsistent stack depth at merge point (" +
                            std::to_string(into.stack.size()) + " vs " +
                            std::to_string(frame.stack.size()) + ")");
  }
  bool changed = false;
  MergeFrames(into, frame, env_, names_, &changed);
  if (changed) {
    worklist_.push_back(static_cast<uint32_t>(target));
  }
  return Status::Ok();
}

Status MethodVerifier::Transfer(size_t index) {
  visit_.clear();

  // Copied before any merge below can widen the in-frame (a handler may
  // cover its own entry).
  in_frames_[index].CopyTo(work_);

  // Any instruction inside a protected range contributes its locals to the
  // handler entry state (the stack is replaced by the thrown reference). A
  // failed handler merge is a verification failure — the old code swallowed
  // it, accepting methods whose handler entry state was inconsistent with
  // normal control flow into the same pc.
  DVM_ASSIGN_OR_RETURN(std::span<const AbstractInterpreter::HandlerEdge> handler_edges,
                       interp_.HandlerEdges(index, work_));
  for (const auto& edge : handler_edges) {
    DVM_RETURN_IF_ERROR(MergeInto(edge.target, edge.frame));
  }

  DVM_ASSIGN_OR_RETURN(AbstractInterpreter::StepResult out, interp_.Step(index, work_));
  if (out.branch_target.has_value()) {
    DVM_RETURN_IF_ERROR(MergeInto(*out.branch_target, work_));
  }
  if (out.fallthrough) {
    DVM_RETURN_IF_ERROR(MergeInto(index + 1, work_));
  }

  // Last-visit semantics: this visit's assumptions replace the previous
  // visit's for this instruction.
  uint32_t& bucket = bucket_of_[index];
  if (bucket == kNoBucket && !visit_.empty()) {
    bucket = static_cast<uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  if (bucket != kNoBucket) {
    buckets_[bucket].swap(visit_);
  }
  return Status::Ok();
}

Status MethodVerifier::Run() {
  const size_t count = mc_.instrs.size();
  in_frames_.Reset(count);
  bucket_of_.assign(count, kNoBucket);
  in_frames_.Set(0, interp_.EntryFrame());
  worklist_.assign(1, 0);

  while (!worklist_.empty()) {
    size_t index = worklist_.front();
    worklist_.pop_front();
    DVM_RETURN_IF_ERROR(Transfer(index));
  }

  for (uint32_t bucket : bucket_of_) {
    if (bucket != kNoBucket) {
      for (Assumption& a : buckets_[bucket]) {
        assumptions_->push_back(std::move(a));
      }
    }
  }
  return Status::Ok();
}

void MethodVerifier::EmitAssertions(MethodCertificate* out) const {
  std::vector<uint8_t> is_target(mc_.instrs.size(), 0);
  for (const Instr& instr : mc_.instrs) {
    if (IsBranch(instr.op)) {
      is_target[static_cast<size_t>(instr.a)] = 1;
    }
  }
  for (const auto& h : method_.code->handlers) {
    is_target[static_cast<size_t>(mc_.IndexAt(h.handler_pc))] = 1;
  }
  for (size_t target = 0; target < is_target.size(); target++) {
    if (!is_target[target] || !in_frames_.has(target)) {
      continue;  // not a merge point, or unreachable: the fixpoint never produced a frame
    }
    FrameAssertion assertion;
    assertion.index = static_cast<uint32_t>(target);
    in_frames_[target].CopyTo(assertion.frame);
    out->assertions.push_back(std::move(assertion));
  }
}

}  // namespace

Result<VerifiedClass> VerifyClass(const ClassFile& cls, const ClassEnv& env,
                                  ClassCertificate* cert_out) {
  VerifiedClass out;
  DVM_RETURN_IF_ERROR(Phase1(cls, &out.stats));

  // Inheritance is a class-scoped assumption when the superclass is outside the
  // environment (paper: "fundamental assumptions, such as inheritance
  // relationships, affect the validity of the entire class").
  DVM_RETURN_IF_ERROR(
      CheckSuperclass(cls, env, &out.stats.phase1_checks, &out.assumptions));

  // Type names live as long as this call, or as long as the certificate
  // whose frames use them.
  TypeNames local_names;
  TypeNames* names = &local_names;
  if (cert_out != nullptr) {
    *cert_out = ClassCertificate{};
    cert_out->class_name = cls.name();
    names = &cert_out->names;
  }

  ResolvedPool pool(cls, *names);
  DataflowScratch scratch;
  for (const auto& method : cls.methods) {
    if (!method.code.has_value()) {
      continue;
    }
    DVM_ASSIGN_OR_RETURN(DecodedCode mc, Phase2(cls, method, &out.stats));
    MethodVerifier verifier(cls, method, mc, env, pool, scratch, &out.stats, &out.assumptions);
    DVM_RETURN_IF_ERROR(verifier.Run());
    if (cert_out != nullptr) {
      MethodCertificate mcert;
      mcert.method_id = method.Id();
      verifier.EmitAssertions(&mcert);
      cert_out->methods.push_back(std::move(mcert));
    }
  }

  out.assumptions = DedupAssumptions(std::move(out.assumptions));
  if (cert_out != nullptr) {
    cert_out->assumptions = out.assumptions;
  }
  return out;
}

}  // namespace dvm
