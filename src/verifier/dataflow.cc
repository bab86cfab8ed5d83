#include "src/verifier/dataflow.h"

#include <set>

namespace dvm {
namespace {

constexpr const char* kThrowable = "java/lang/Throwable";

Error Verr(const std::string& message) { return Error{ErrorCode::kVerifyError, message}; }

}  // namespace

// ---------------------------------------------------------------------------
// Phase 2: instruction integrity.
// ---------------------------------------------------------------------------

Result<DecodedCode> Phase2(const ClassFile& cls, const MethodInfo& method, VerifyStats* stats) {
  const CodeAttr& code = *method.code;
  auto check = [&stats] { stats->phase2_checks++; };

  check();
  if (code.code.empty()) {
    return Verr("empty code in " + method.Id());
  }

  // The dataflow entry frame writes one local slot per receiver + parameter;
  // a hostile max_locals smaller than that would make those writes land out
  // of bounds, so it is rejected here before any frame is materialized.
  check();
  auto sig = ParseMethodDescriptor(method.descriptor);
  if (!sig.ok()) {
    return Verr("method " + method.Id() + " has malformed descriptor");
  }
  size_t entry_slots = (method.IsStatic() ? 0 : 1) + sig->params.size();
  if (entry_slots > code.max_locals) {
    return Verr("max_locals " + std::to_string(code.max_locals) + " cannot hold " +
                std::to_string(entry_slots) + " parameter slots in " + method.Id());
  }

  // DecodeCode performs opcode validity, truncation and branch-boundary checks.
  check();
  DVM_ASSIGN_OR_RETURN(DecodedCode mc, DecodeCode(code.code));
  const std::vector<Instr>& instrs = mc.instrs;
  stats->instructions_verified += instrs.size();

  const ConstantPool& pool = cls.pool();
  for (size_t i = 0; i < instrs.size(); i++) {
    const Instr& instr = instrs[i];
    const OpInfo* info = GetOpInfo(instr.op);
    switch (info->operands) {
      case OperandKind::kU8:
      case OperandKind::kLocalIncr:
        check();
        if (instr.a >= code.max_locals) {
          return Verr("local index " + std::to_string(instr.a) + " out of bounds in " +
                      method.Id());
        }
        break;
      case OperandKind::kArrayKind:
        check();
        if (instr.a != static_cast<int>(ArrayKind::kInt) &&
            instr.a != static_cast<int>(ArrayKind::kLong)) {
          return Verr("bad newarray kind in " + method.Id());
        }
        break;
      case OperandKind::kCpIndex: {
        check();
        uint16_t index = static_cast<uint16_t>(instr.a);
        bool ok = false;
        if (instr.op == Op::kLdc) {
          ok = pool.HasTag(index, CpTag::kInteger) || pool.HasTag(index, CpTag::kLong) ||
               pool.HasTag(index, CpTag::kString);
        } else if (IsInvoke(instr.op)) {
          ok = pool.HasTag(index, CpTag::kMethodRef);
        } else if (IsFieldAccess(instr.op)) {
          ok = pool.HasTag(index, CpTag::kFieldRef);
        } else {  // new / anewarray / checkcast / instanceof
          ok = pool.HasTag(index, CpTag::kClass);
        }
        if (!ok) {
          return Verr(std::string(info->name) + " references wrong constant pool tag in " +
                      method.Id());
        }
        break;
      }
      default:
        break;
    }
    // Control may not fall off the end of the method.
    check();
    if (i + 1 == instrs.size() && !IsTerminator(instr.op)) {
      return Verr("control falls off the end of " + method.Id());
    }
  }

  // start_pc and handler_pc must start an instruction; end_pc may also be
  // the code length, where IndexAt answers instrs.size().
  auto starts_instr = [&mc](uint32_t pc) {
    int32_t ix = mc.IndexAt(pc);
    return ix >= 0 && static_cast<size_t>(ix) < mc.instrs.size();
  };
  for (const auto& h : code.handlers) {
    check();
    if (!starts_instr(h.start_pc) || !starts_instr(h.handler_pc) || mc.IndexAt(h.end_pc) < 0 ||
        h.start_pc >= h.end_pc) {
      return Verr("exception handler has invalid code range in " + method.Id());
    }
    check();
    if (h.catch_type != 0 && !pool.HasTag(h.catch_type, CpTag::kClass)) {
      return Verr("exception handler catch type is not a ClassRef in " + method.Id());
    }
  }

  // Phase 3 keeps one frame per instruction; bound their total size before
  // any is materialized.
  const uint64_t frame_slots =
      uint64_t{instrs.size()} * (uint64_t{code.max_locals} + code.max_stack);
  if (frame_slots > kMaxFrameTableSlots) {
    return Verr("frame table of " + std::to_string(frame_slots) + " slots exceeds " +
                std::to_string(kMaxFrameTableSlots) + " in " + method.Id());
  }

  return mc;
}

Status CheckSuperclass(const ClassFile& cls, const ClassEnv& env, uint64_t* checks,
                       std::vector<Assumption>* assumptions) {
  std::string super = cls.super_name();
  if (super.empty()) {
    return Status::Ok();
  }
  (*checks)++;
  const ClassFile* super_cls = env.Lookup(super);
  if (super_cls == nullptr) {
    Assumption a;
    a.kind = AssumptionKind::kClassExists;
    a.scope = AssumptionScope::kClass;
    a.target_class = super;
    assumptions->push_back(std::move(a));
  } else if ((super_cls->access_flags & AccessFlags::kFinal) != 0) {
    return Error{ErrorCode::kVerifyError, cls.name() + " extends final class " + super};
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 3: the abstract transfer function.
// ---------------------------------------------------------------------------

ResolvedPool::ResolvedPool(const ClassFile& cls, TypeNames& names) : names_(names) {
  const ConstantPool& pool = cls.pool();
  slot_.assign(pool.size(), 0);
  for (size_t i = 1; i < pool.size(); i++) {
    uint16_t index = static_cast<uint16_t>(i);
    if (pool.HasTag(index, CpTag::kClass)) {
      ClassRef entry;
      entry.name = pool.ClassNameAt(index).value();
      entry.type = names.Ref(entry.name);
      entry.array_type = names.Ref("[" + DescriptorFromClassName(entry.name));
      slot_[i] = static_cast<uint32_t>(classes_.size());
      classes_.push_back(std::move(entry));
      continue;
    }
    bool field = pool.HasTag(index, CpTag::kFieldRef);
    if (!field && !pool.HasTag(index, CpTag::kMethodRef)) {
      continue;
    }
    Member entry;
    entry.ref = field ? pool.FieldRefAt(index).value() : pool.MethodRefAt(index).value();
    if (field) {
      entry.type = names.FromDescriptor(entry.ref.descriptor);
    } else {
      entry.sig = ParseMethodDescriptor(entry.ref.descriptor);
      if (entry.sig.ok()) {
        for (const std::string& param : entry.sig->params) {
          entry.params.push_back(names.FromDescriptor(param));
        }
        entry.ret = names.FromDescriptor(entry.sig->return_type);
      }
      entry.is_init = entry.ref.member_name == "<init>";
    }
    slot_[i] = static_cast<uint32_t>(members_.size());
    members_.push_back(std::move(entry));
  }
}

AbstractInterpreter::AbstractInterpreter(const ClassFile& cls, const MethodInfo& method,
                                         const DecodedCode& mc, const ClassEnv& env,
                                         const ResolvedPool& pool, uint64_t* checks,
                                         std::vector<Assumption>* assumptions)
    : cls_(cls), method_(method), mc_(mc), env_(env), pool_(pool), names_(pool.names()),
      checks_(checks), assumptions_(assumptions),
      // Phase 2 already rejected malformed descriptors.
      sig_(ParseMethodDescriptor(method.descriptor).value()),
      return_type_(names_.FromDescriptor(sig_.return_type)),
      method_id_(method.Id()) {}

void AbstractInterpreter::Assume(Assumption a) {
  a.method_id = method_id_;
  assumptions_->push_back(std::move(a));
}

void AbstractInterpreter::AssumeClass(const std::string& class_name) {
  Assumption a;
  a.kind = AssumptionKind::kClassExists;
  a.scope = AssumptionScope::kMethod;
  a.target_class = class_name;
  Assume(std::move(a));
}

Error AbstractInterpreter::Fail(size_t index, const std::string& message) const {
  return Verr(cls_.name() + "." + method_id_ + " @" + std::to_string(index) + ": " + message);
}

Result<VType> AbstractInterpreter::Pop(Frame& frame, size_t index) {
  Check();
  if (frame.stack.empty()) {
    return Fail(index, "operand stack underflow");
  }
  VType t = frame.stack.back();
  frame.stack.pop_back();
  return t;
}

Status AbstractInterpreter::PopKind(Frame& frame, size_t index, VType::Kind kind,
                                    const char* what) {
  DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
  Check();
  if (t.kind != kind) {
    return Fail(index, std::string("expected ") + what + ", found " + names_.ToString(t));
  }
  return Status::Ok();
}

Status AbstractInterpreter::PopRefLike(Frame& frame, size_t index, VType* out) {
  DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
  Check();
  if (!t.IsRefLike()) {
    return Fail(index, "expected reference, found " + names_.ToString(t));
  }
  *out = t;
  return Status::Ok();
}

Status AbstractInterpreter::PopAssignable(Frame& frame, size_t index, const VType& want,
                                          const std::string& desc) {
  DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
  Check();
  switch (want.kind) {
    case VType::Kind::kInt:
    case VType::Kind::kLong:
      if (t.kind != want.kind) {
        return Fail(index, "expected " + names_.ToString(want) + ", found " + names_.ToString(t));
      }
      return Status::Ok();
    case VType::Kind::kRef: {
      if (!t.IsRefLike()) {
        return Fail(index, "expected reference " + names_.Name(want.sym) + ", found " +
                               names_.ToString(t));
      }
      switch (IsAssignable(t, names_.Name(want.sym), env_, names_)) {
        case Assignability::kYes:
          return Status::Ok();
        case Assignability::kNo:
          return Fail(index, names_.ToString(t) + " is not assignable to " + names_.Name(want.sym));
        case Assignability::kUnknown: {
          Assumption a;
          a.kind = AssumptionKind::kAssignable;
          a.scope = AssumptionScope::kMethod;
          a.target_class = names_.Name(t.sym);
          a.expected_class = names_.Name(want.sym);
          Assume(std::move(a));
          return Status::Ok();
        }
      }
      return Status::Ok();
    }
    default:
      return Fail(index, "unusable expected type " + desc);
  }
}

Status AbstractInterpreter::Push(Frame& frame, size_t index, VType t) {
  Check();
  if (frame.stack.size() >= method_.code->max_stack) {
    return Fail(index, "operand stack overflow (max_stack=" +
                           std::to_string(method_.code->max_stack) + ")");
  }
  frame.stack.push_back(t);
  return Status::Ok();
}

Result<VType> AbstractInterpreter::GetLocal(const Frame& frame, size_t index, int slot,
                                            VType::Kind want, const char* what) {
  Check();
  const VType& t = frame.locals[static_cast<size_t>(slot)];
  if (t.kind != want) {
    return Fail(index, std::string("local ") + std::to_string(slot) + " is not " + what +
                           " (found " + names_.ToString(t) + ")");
  }
  return t;
}

Status AbstractInterpreter::ResolveField(size_t index, const ResolvedPool::Member& field,
                                         bool want_static) {
  const MemberRef& ref = field.ref;
  Check();
  const ClassFile* target = env_.Lookup(ref.class_name);
  if (target == nullptr) {
    Assumption a;
    a.kind = AssumptionKind::kFieldExists;
    a.scope = AssumptionScope::kMethod;
    a.target_class = ref.class_name;
    a.member_name = ref.member_name;
    a.descriptor = ref.descriptor;
    Assume(std::move(a));
    return Status::Ok();
  }
  // Search the class and its known ancestors. The visited set cuts hierarchy
  // cycles a hostile class can smuggle in (A extends B extends A).
  std::set<std::string> visited;
  visited.insert(ref.class_name);
  const ClassFile* current = target;
  while (current != nullptr) {
    const FieldInfo* found = current->FindField(ref.member_name);
    if (found != nullptr) {
      Check();
      if (found->descriptor != ref.descriptor) {
        return Fail(index, "field " + ref.ToString() + " has descriptor " + found->descriptor);
      }
      Check();
      if (found->IsStatic() != want_static) {
        return Fail(index, "field " + ref.ToString() +
                               (want_static ? " is not static" : " is static"));
      }
      return Status::Ok();
    }
    std::string super = current->super_name();
    if (super.empty() || !visited.insert(super).second) {
      return Fail(index, "field " + ref.ToString() + " does not exist");
    }
    current = env_.Lookup(super);
    if (current == nullptr) {
      // Field may be inherited from a class outside the environment.
      Assumption a;
      a.kind = AssumptionKind::kFieldExists;
      a.scope = AssumptionScope::kMethod;
      a.target_class = super;
      a.member_name = ref.member_name;
      a.descriptor = ref.descriptor;
      Assume(std::move(a));
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status AbstractInterpreter::ResolveMethod(size_t index, const ResolvedPool::Member& method,
                                          Op op) {
  const MemberRef& ref = method.ref;
  Check();
  const ClassFile* target = env_.Lookup(ref.class_name);
  if (target == nullptr) {
    Assumption a;
    a.kind = AssumptionKind::kMethodExists;
    a.scope = AssumptionScope::kMethod;
    a.target_class = ref.class_name;
    a.member_name = ref.member_name;
    a.descriptor = ref.descriptor;
    Assume(std::move(a));
    return Status::Ok();
  }
  std::set<std::string> visited;
  visited.insert(ref.class_name);
  const ClassFile* current = target;
  while (current != nullptr) {
    const MethodInfo* m = current->FindMethod(ref.member_name, ref.descriptor);
    if (m != nullptr) {
      Check();
      bool want_static = op == Op::kInvokestatic;
      if (m->IsStatic() != want_static) {
        return Fail(index, "method " + ref.ToString() +
                               (want_static ? " is not static" : " is static"));
      }
      return Status::Ok();
    }
    std::string super = current->super_name();
    if (super.empty() || !visited.insert(super).second) {
      return Fail(index, "method " + ref.ToString() + " does not exist");
    }
    current = env_.Lookup(super);
    if (current == nullptr) {
      Assumption a;
      a.kind = AssumptionKind::kMethodExists;
      a.scope = AssumptionScope::kMethod;
      a.target_class = super;
      a.member_name = ref.member_name;
      a.descriptor = ref.descriptor;
      Assume(std::move(a));
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Frame AbstractInterpreter::EntryFrame() const {
  Frame frame;
  frame.locals.assign(method_.code->max_locals, VType::Top());
  size_t slot = 0;
  if (!method_.IsStatic()) {
    frame.locals[slot++] = pool_.class_ref(cls_.this_class).type;
  }
  for (const auto& param : sig_.params) {
    frame.locals[slot++] = names_.FromDescriptor(param);
  }
  return frame;
}

Result<std::span<const AbstractInterpreter::HandlerEdge>> AbstractInterpreter::HandlerEdges(
    size_t index, const Frame& frame) {
  size_t count = 0;
  uint32_t offset = mc_.offsets[index];
  for (const auto& h : method_.code->handlers) {
    if (offset < h.start_pc || offset >= h.end_pc) {
      continue;
    }
    // The thrown reference needs a stack slot; a handler in a max_stack=0
    // method used to sneak past the Push() overflow check because the entry
    // frame was built with a raw push_back.
    Check();
    if (method_.code->max_stack < 1) {
      return Fail(index, "exception handler needs stack room for the thrown reference "
                         "(max_stack=0)");
    }
    // Phase 2 checked the catch type's tag.
    const ResolvedPool::ClassRef* catch_ref =
        h.catch_type != 0 ? &pool_.class_ref(h.catch_type) : nullptr;
    VType caught = catch_ref != nullptr ? catch_ref->type : VType::Ref(kThrowableSym);
    // A catch type that provably isn't a Throwable can never be thrown; the
    // handler entry state it would imply is a fiction.
    Check();
    if (catch_ref != nullptr && catch_ref->name != kThrowable) {
      switch (IsAssignable(caught, kThrowable, env_, names_)) {
        case Assignability::kYes:
          break;
        case Assignability::kNo:
          return Fail(index, "handler catches non-throwable " + catch_ref->name);
        case Assignability::kUnknown: {
          Assumption a;
          a.kind = AssumptionKind::kAssignable;
          a.scope = AssumptionScope::kMethod;
          a.target_class = catch_ref->name;
          a.expected_class = kThrowable;
          Assume(std::move(a));
          break;
        }
      }
    }
    // Edge slots are reused from call to call, keeping their vectors.
    if (count == edges_.size()) {
      edges_.emplace_back();
    }
    HandlerEdge& edge = edges_[count++];
    edge.target = static_cast<size_t>(mc_.IndexAt(h.handler_pc));  // checked by phase 2
    edge.frame.locals = frame.locals;
    edge.frame.stack.assign(1, caught);
  }
  return std::span<const HandlerEdge>(edges_.data(), count);
}

Result<AbstractInterpreter::StepResult> AbstractInterpreter::Step(size_t index, Frame& frame) {
  const Instr& instr = mc_.instrs[index];
  const ConstantPool& pool = cls_.pool();

  StepResult out;
  out.fallthrough = !IsTerminator(instr.op);
  if (IsBranch(instr.op)) {
    out.branch_target = static_cast<size_t>(instr.a);
  }

  switch (instr.op) {
    case Op::kNop:
      break;
    case Op::kAconstNull:
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Null()));
      break;
    case Op::kIconst0:
    case Op::kIconst1:
    case Op::kBipush:
    case Op::kSipush:
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLdc: {
      uint16_t cp_index = static_cast<uint16_t>(instr.a);
      if (pool.HasTag(cp_index, CpTag::kInteger)) {
        DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      } else if (pool.HasTag(cp_index, CpTag::kLong)) {
        DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      } else {
        DVM_RETURN_IF_ERROR(Push(frame, index, VType::Ref(kStringSym)));
      }
      break;
    }
    case Op::kIload: {
      DVM_ASSIGN_OR_RETURN(VType t, GetLocal(frame, index, instr.a, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kLload: {
      DVM_ASSIGN_OR_RETURN(VType t, GetLocal(frame, index, instr.a, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kAload: {
      Check();
      const VType& t = frame.locals[static_cast<size_t>(instr.a)];
      if (!t.IsRefLike() && t.kind != VType::Kind::kUninit) {
        return Fail(index, "aload of non-reference local " + std::to_string(instr.a));
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kIstore:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      frame.locals[static_cast<size_t>(instr.a)] = VType::Int();
      break;
    case Op::kLstore:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      frame.locals[static_cast<size_t>(instr.a)] = VType::Long();
      break;
    case Op::kAstore: {
      DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
      Check();
      if (!t.IsRefLike() && t.kind != VType::Kind::kUninit) {
        return Fail(index, "astore of non-reference " + names_.ToString(t));
      }
      frame.locals[static_cast<size_t>(instr.a)] = t;
      break;
    }
    case Op::kIaload:
    case Op::kLaload: {
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      const uint32_t want = instr.op == Op::kIaload ? kIntArraySym : kLongArraySym;
      Check();
      if (arr.kind == VType::Kind::kRef && arr.sym != want) {
        return Fail(index, "array load type mismatch: " + names_.ToString(arr));
      }
      DVM_RETURN_IF_ERROR(
          Push(frame, index, instr.op == Op::kIaload ? VType::Int() : VType::Long()));
      break;
    }
    case Op::kAaload: {
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      Check();
      VType element = VType::Object();
      if (arr.kind == VType::Kind::kRef) {
        const std::string& name = names_.Name(arr.sym);
        if (!names_.IsArray(arr) || name.size() < 2 || (name[1] != 'L' && name[1] != '[')) {
          return Fail(index, "aaload on non-reference array " + names_.ToString(arr));
        }
        element = names_.FromDescriptor(ArrayElementDescriptor(name));
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, element));
      break;
    }
    case Op::kIastore:
    case Op::kLastore: {
      DVM_RETURN_IF_ERROR(PopKind(frame, index,
                                  instr.op == Op::kIastore ? VType::Kind::kInt
                                                           : VType::Kind::kLong,
                                  "array element value"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      const uint32_t want = instr.op == Op::kIastore ? kIntArraySym : kLongArraySym;
      Check();
      if (arr.kind == VType::Kind::kRef && arr.sym != want) {
        return Fail(index, "array store type mismatch: " + names_.ToString(arr));
      }
      break;
    }
    case Op::kAastore: {
      VType value;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &value));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      Check();
      if (arr.kind == VType::Kind::kRef) {
        if (!names_.IsArray(arr)) {
          return Fail(index, "aastore on non-array " + names_.ToString(arr));
        }
        std::string elem_desc = ArrayElementDescriptor(names_.Name(arr.sym));
        if (elem_desc[0] == 'L') {
          switch (IsAssignable(value, ClassNameFromDescriptor(elem_desc), env_, names_)) {
            case Assignability::kYes:
              break;
            case Assignability::kNo:
              return Fail(index, names_.ToString(value) + " not storable into " +
                                     names_.Name(arr.sym));
            case Assignability::kUnknown: {
              Assumption a;
              a.kind = AssumptionKind::kAssignable;
              a.scope = AssumptionScope::kMethod;
              a.target_class = names_.Name(value.sym);
              a.expected_class = ClassNameFromDescriptor(elem_desc);
              Assume(std::move(a));
              break;
            }
          }
        }
      }
      break;
    }
    case Op::kPop:
      DVM_RETURN_IF_ERROR(Pop(frame, index));
      break;
    case Op::kDup: {
      DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kDupX1: {
      DVM_ASSIGN_OR_RETURN(VType v1, Pop(frame, index));
      DVM_ASSIGN_OR_RETURN(VType v2, Pop(frame, index));
      DVM_RETURN_IF_ERROR(Push(frame, index, v1));
      DVM_RETURN_IF_ERROR(Push(frame, index, v2));
      DVM_RETURN_IF_ERROR(Push(frame, index, v1));
      break;
    }
    case Op::kSwap: {
      DVM_ASSIGN_OR_RETURN(VType v1, Pop(frame, index));
      DVM_ASSIGN_OR_RETURN(VType v2, Pop(frame, index));
      DVM_RETURN_IF_ERROR(Push(frame, index, v1));
      DVM_RETURN_IF_ERROR(Push(frame, index, v2));
      break;
    }
    case Op::kIadd:
    case Op::kIsub:
    case Op::kImul:
    case Op::kIdiv:
    case Op::kIrem:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLadd:
    case Op::kLsub:
    case Op::kLmul:
    case Op::kLdiv:
    case Op::kLrem:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      break;
    case Op::kIneg:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLneg:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      break;
    case Op::kIinc: {
      DVM_ASSIGN_OR_RETURN(VType t, GetLocal(frame, index, instr.a, VType::Kind::kInt, "int"));
      (void)t;
      break;
    }
    case Op::kI2l:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      break;
    case Op::kL2i:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLcmp:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kIfeq:
    case Op::kIfne:
    case Op::kIflt:
    case Op::kIfge:
    case Op::kIfgt:
    case Op::kIfle:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      break;
    case Op::kIfIcmpeq:
    case Op::kIfIcmpne:
    case Op::kIfIcmplt:
    case Op::kIfIcmpge:
    case Op::kIfIcmpgt:
    case Op::kIfIcmple:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      break;
    case Op::kIfAcmpeq:
    case Op::kIfAcmpne: {
      VType a, b;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &a));
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &b));
      break;
    }
    case Op::kIfnull:
    case Op::kIfnonnull: {
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      break;
    }
    case Op::kGoto:
      break;
    case Op::kIreturn:
      Check();
      if (sig_.return_type != "I") {
        return Fail(index, "ireturn from method returning " + sig_.return_type);
      }
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      break;
    case Op::kLreturn:
      Check();
      if (sig_.return_type != "J") {
        return Fail(index, "lreturn from method returning " + sig_.return_type);
      }
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      break;
    case Op::kAreturn: {
      Check();
      if (!IsReferenceDescriptor(sig_.return_type)) {
        return Fail(index, "areturn from method returning " + sig_.return_type);
      }
      DVM_RETURN_IF_ERROR(PopAssignable(frame, index, return_type_, sig_.return_type));
      break;
    }
    case Op::kReturn:
      Check();
      if (sig_.return_type != "V") {
        return Fail(index, "return from non-void method");
      }
      break;
    case Op::kGetstatic:
    case Op::kGetfield: {
      const ResolvedPool::Member& field = pool_.member(static_cast<uint16_t>(instr.a));
      if (instr.op == Op::kGetfield) {
        VType obj;
        DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &obj));
      }
      DVM_RETURN_IF_ERROR(ResolveField(index, field, instr.op == Op::kGetstatic));
      DVM_RETURN_IF_ERROR(Push(frame, index, field.type));
      break;
    }
    case Op::kPutstatic:
    case Op::kPutfield: {
      const ResolvedPool::Member& field = pool_.member(static_cast<uint16_t>(instr.a));
      DVM_RETURN_IF_ERROR(PopAssignable(frame, index, field.type, field.ref.descriptor));
      if (instr.op == Op::kPutfield) {
        VType obj;
        DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &obj));
      }
      DVM_RETURN_IF_ERROR(ResolveField(index, field, instr.op == Op::kPutstatic));
      break;
    }
    case Op::kInvokestatic:
    case Op::kInvokevirtual:
    case Op::kInvokespecial: {
      const ResolvedPool::Member& method = pool_.member(static_cast<uint16_t>(instr.a));
      if (!method.sig.ok()) {
        return method.sig.error();
      }
      const MethodSignature& callee = *method.sig;
      // Arguments are popped right-to-left.
      for (size_t p = callee.params.size(); p > 0; p--) {
        DVM_RETURN_IF_ERROR(
            PopAssignable(frame, index, method.params[p - 1], callee.params[p - 1]));
      }
      if (instr.op != Op::kInvokestatic) {
        DVM_ASSIGN_OR_RETURN(VType receiver, Pop(frame, index));
        Check();
        if (instr.op == Op::kInvokespecial && method.is_init &&
            receiver.kind == VType::Kind::kUninit) {
          // Constructor call initializes every copy of this Uninit value.
          Check();
          if (names_.Name(receiver.sym) != method.ref.class_name) {
            return Fail(index, "constructor class mismatch: " + names_.ToString(receiver) + " vs " +
                                   method.ref.class_name);
          }
          VType initialized = VType::Ref(receiver.sym);
          for (auto& local : frame.locals) {
            if (local == receiver) {
              local = initialized;
            }
          }
          for (auto& entry : frame.stack) {
            if (entry == receiver) {
              entry = initialized;
            }
          }
        } else if (!receiver.IsRefLike()) {
          return Fail(index, "invoke on non-reference " + names_.ToString(receiver));
        }
      }
      DVM_RETURN_IF_ERROR(ResolveMethod(index, method, instr.op));
      if (!callee.ReturnsVoid()) {
        DVM_RETURN_IF_ERROR(Push(frame, index, method.ret));
      }
      break;
    }
    case Op::kNew: {
      const ResolvedPool::ClassRef& target = pool_.class_ref(static_cast<uint16_t>(instr.a));
      Check();
      if (!env_.IsKnown(target.name)) {
        AssumeClass(target.name);
      }
      DVM_RETURN_IF_ERROR(
          Push(frame, index, VType::Uninit(target.type.sym, static_cast<int>(index))));
      break;
    }
    case Op::kNewarray:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "array length"));
      DVM_RETURN_IF_ERROR(Push(frame, index,
                               VType::Ref(instr.a == static_cast<int>(ArrayKind::kLong)
                                              ? kLongArraySym
                                              : kIntArraySym)));
      break;
    case Op::kAnewarray: {
      const ResolvedPool::ClassRef& element = pool_.class_ref(static_cast<uint16_t>(instr.a));
      Check();
      if (element.name[0] != '[' && !env_.IsKnown(element.name)) {
        AssumeClass(element.name);
      }
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "array length"));
      DVM_RETURN_IF_ERROR(Push(frame, index, element.array_type));
      break;
    }
    case Op::kArraylength: {
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      Check();
      if (arr.kind == VType::Kind::kRef && !names_.IsArray(arr)) {
        return Fail(index, "arraylength on non-array " + names_.ToString(arr));
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    }
    case Op::kAthrow: {
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      if (t.kind == VType::Kind::kRef) {
        switch (IsAssignable(t, kThrowable, env_, names_)) {
          case Assignability::kYes:
            break;
          case Assignability::kNo:
            return Fail(index, "athrow of non-throwable " + names_.ToString(t));
          case Assignability::kUnknown: {
            Assumption a;
            a.kind = AssumptionKind::kAssignable;
            a.scope = AssumptionScope::kMethod;
            a.target_class = names_.Name(t.sym);
            a.expected_class = kThrowable;
            Assume(std::move(a));
            break;
          }
        }
      }
      break;
    }
    case Op::kCheckcast: {
      const ResolvedPool::ClassRef& target = pool_.class_ref(static_cast<uint16_t>(instr.a));
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      Check();
      if (target.name[0] != '[' && !env_.IsKnown(target.name)) {
        AssumeClass(target.name);
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, target.type));
      break;
    }
    case Op::kInstanceof: {
      const ResolvedPool::ClassRef& target = pool_.class_ref(static_cast<uint16_t>(instr.a));
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      Check();
      if (target.name[0] != '[' && !env_.IsKnown(target.name)) {
        AssumeClass(target.name);
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    }
    case Op::kMonitorenter:
    case Op::kMonitorexit: {
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      break;
    }
    // Quick forms are runtime-internal rewrites; a class file carrying one is
    // hostile or corrupt and must never reach the execution engine.
    case Op::kLdcQuick:
    case Op::kGetfieldQuick:
    case Op::kPutfieldQuick:
    case Op::kGetstaticQuick:
    case Op::kPutstaticQuick:
    case Op::kInvokevirtualQuick:
    case Op::kInvokespecialQuick:
    case Op::kInvokestaticQuick:
    case Op::kNewQuick:
    case Op::kAnewarrayQuick:
    case Op::kCheckcastQuick:
    case Op::kInstanceofQuick:
      return Fail(index, "quick opcode in class file");
  }
  return out;
}

}  // namespace dvm
