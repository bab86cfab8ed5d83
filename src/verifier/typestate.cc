#include "src/verifier/typestate.h"

#include <algorithm>
#include <set>

#include "src/bytecode/descriptor.h"

namespace dvm {
namespace {

constexpr const char* kObject = "java/lang/Object";

// Ancestor chain of `cls` within env (including cls itself), stopping at the
// first unknown class. Returns whether the walk ended at an unknown class.
// Hostile hierarchies can cycle (A extends B extends A); the visited set ends
// the walk there — everything reachable is already in the chain — so a
// malicious class cannot spin the proxy forever.
bool CollectChain(const std::string& cls, const ClassEnv& env, std::vector<std::string>* out) {
  std::set<std::string> visited;
  std::string current = cls;
  while (true) {
    if (!visited.insert(current).second) {
      return false;  // hierarchy cycle
    }
    out->push_back(current);
    if (current == kObject) {
      return false;
    }
    const ClassFile* file = env.Lookup(current);
    if (file == nullptr) {
      return true;  // hit the edge of the environment
    }
    std::string super = file->super_name();
    if (super.empty()) {
      return false;
    }
    current = super;
  }
}

bool ImplementsInterfaceImpl(const std::string& cls, const std::string& iface,
                             const ClassEnv& env, bool* hit_unknown,
                             std::set<std::string>* visited) {
  std::string current = cls;
  while (true) {
    if (!visited->insert(current).second) {
      return false;  // hierarchy cycle — this class was already explored
    }
    const ClassFile* file = env.Lookup(current);
    if (file == nullptr) {
      *hit_unknown = true;
      return false;
    }
    for (uint16_t idx : file->interfaces) {
      auto name = file->pool().ClassNameAt(idx);
      if (name.ok()) {
        if (name.value() == iface) {
          return true;
        }
        // One level of interface inheritance is enough for our library shapes;
        // recurse through the named interface if it is known.
        bool sub_unknown = false;
        if (env.IsKnown(name.value()) &&
            ImplementsInterfaceImpl(name.value(), iface, env, &sub_unknown, visited)) {
          return true;
        }
        *hit_unknown |= sub_unknown;
      }
    }
    std::string super = file->super_name();
    if (super.empty()) {
      return false;
    }
    current = super;
  }
}

bool ImplementsInterface(const std::string& cls, const std::string& iface, const ClassEnv& env,
                         bool* hit_unknown) {
  std::set<std::string> visited;
  return ImplementsInterfaceImpl(cls, iface, env, hit_unknown, &visited);
}

}  // namespace

TypeNames::TypeNames() : names_{std::string()} {
  for (const char* name : {kObject, "java/lang/String", "java/lang/Throwable", "[I", "[J"}) {
    Intern(name);
  }
}

TypeNames::TypeNames(const TypeNames& other) : names_(other.names_) {
  for (size_t i = 1; i < names_.size(); i++) {
    ids_.emplace(names_[i], static_cast<uint32_t>(i));
  }
}

TypeNames& TypeNames::operator=(const TypeNames& other) {
  if (this != &other) {
    *this = TypeNames(other);
  }
  return *this;
}

uint32_t TypeNames::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  uint32_t sym = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), sym);
  return sym;
}

const std::string& TypeNames::Name(uint32_t sym) const {
  static const std::string kNone;
  return sym < names_.size() ? names_[sym] : kNone;
}

VType TypeNames::FromDescriptor(const std::string& desc) {
  if (desc == "I") {
    return VType::Int();
  }
  if (desc == "J") {
    return VType::Long();
  }
  if (!desc.empty() && desc[0] == '[') {
    return Ref(desc);
  }
  if (IsReferenceDescriptor(desc)) {
    return Ref(ClassNameFromDescriptor(desc));
  }
  return VType::Top();
}

std::string TypeNames::ToString(const VType& t) const {
  switch (t.kind) {
    case VType::Kind::kTop:
      return "top";
    case VType::Kind::kInt:
      return "int";
    case VType::Kind::kLong:
      return "long";
    case VType::Kind::kNull:
      return "null";
    case VType::Kind::kRef:
      return Name(t.sym);
    case VType::Kind::kUninit:
      return "uninit<" + Name(t.sym) + "@" + std::to_string(t.site) + ">";
  }
  return "?";
}

namespace {

// IsAssignable for a reference named `src_name`.
Assignability IsAssignableName(const std::string& src_name, const std::string& dst_class,
                               const ClassEnv& env) {
  if (src_name == dst_class || dst_class == kObject) {
    return Assignability::kYes;
  }
  // Arrays: "[X" assignable to "[Y" iff X assignable to Y (reference elements)
  // or X == Y (primitive elements).
  bool src_array = src_name.starts_with('[');
  if (src_array || dst_class.starts_with('[')) {
    if (!src_array || !dst_class.starts_with('[')) {
      return Assignability::kNo;
    }
    std::string src_elem = ArrayElementDescriptor(src_name);
    std::string dst_elem = ArrayElementDescriptor(dst_class);
    if (src_elem == dst_elem) {
      return Assignability::kYes;
    }
    if (IsReferenceDescriptor(src_elem) && IsReferenceDescriptor(dst_elem) &&
        src_elem[0] == 'L' && dst_elem[0] == 'L') {
      return IsAssignableName(ClassNameFromDescriptor(src_elem),
                              ClassNameFromDescriptor(dst_elem), env);
    }
    return Assignability::kNo;
  }

  std::vector<std::string> chain;
  bool hit_unknown = CollectChain(src_name, env, &chain);
  for (const auto& ancestor : chain) {
    if (ancestor == dst_class) {
      return Assignability::kYes;
    }
  }
  // Interface implementation check along the known part of the chain.
  bool iface_unknown = false;
  if (env.IsKnown(src_name) &&
      ImplementsInterface(src_name, dst_class, env, &iface_unknown)) {
    return Assignability::kYes;
  }
  if (hit_unknown || iface_unknown || !env.IsKnown(dst_class)) {
    return Assignability::kUnknown;
  }
  return Assignability::kNo;
}

}  // namespace

Assignability IsAssignable(const VType& src, const std::string& dst_class, const ClassEnv& env,
                           const TypeNames& names) {
  if (src.kind == VType::Kind::kNull) {
    return Assignability::kYes;
  }
  if (src.kind != VType::Kind::kRef) {
    return Assignability::kNo;
  }
  return IsAssignableName(names.Name(src.sym), dst_class, env);
}

VType MergeTypes(const VType& a, const VType& b, const ClassEnv& env, TypeNames& names) {
  if (a == b) {
    return a;
  }
  using Kind = VType::Kind;
  if (a.kind == Kind::kNull && b.kind == Kind::kRef) {
    return b;
  }
  if (b.kind == Kind::kNull && a.kind == Kind::kRef) {
    return a;
  }
  if (a.kind == Kind::kRef && b.kind == Kind::kRef) {
    if (names.IsArray(a) || names.IsArray(b)) {
      // Array/array or array/class merges generalize to Object unless equal.
      return VType::Object();
    }
    // Common ancestor within the known environment; unknown edges widen to
    // Object. The candidate is chosen symmetrically — minimize the deeper of
    // the two chain positions, then the shallower, then the name — because a
    // "first hit in chain_a order" scan made Merge(a,b) != Merge(b,a) on
    // degenerate hierarchies whose chains are rotations of each other. On
    // acyclic single inheritance the common entries form a shared suffix of
    // both chains, so this picks the same junction the old scan did.
    std::vector<std::string> chain_a;
    CollectChain(names.Name(a.sym), env, &chain_a);
    std::vector<std::string> chain_b;
    CollectChain(names.Name(b.sym), env, &chain_b);
    const std::string* best = nullptr;
    size_t best_deep = 0;
    size_t best_shallow = 0;
    for (size_t i = 0; i < chain_a.size(); i++) {
      for (size_t j = 0; j < chain_b.size(); j++) {
        if (chain_a[i] != chain_b[j]) {
          continue;
        }
        size_t deep = std::max(i, j);
        size_t shallow = std::min(i, j);
        if (best == nullptr || deep < best_deep ||
            (deep == best_deep && shallow < best_shallow) ||
            (deep == best_deep && shallow == best_shallow && chain_a[i] < *best)) {
          best = &chain_a[i];
          best_deep = deep;
          best_shallow = shallow;
        }
      }
    }
    if (best != nullptr) {
      return names.Ref(*best);
    }
    return VType::Object();
  }
  return VType::Top();
}

void MergeFrames(FrameView into, const Frame& from, const ClassEnv& env, TypeNames& names,
                 bool* changed) {
  *changed = false;
  for (size_t i = 0; i < into.locals.size(); i++) {
    VType merged = MergeTypes(into.locals[i], from.locals[i], env, names);
    if (!(merged == into.locals[i])) {
      into.locals[i] = merged;
      *changed = true;
    }
  }
  // Stack depths must match for code accepted by phase 3; a mismatch surfaces
  // as Top entries that fail the next use-check. The locals above still merge
  // — the old early return dropped them, leaving the merge asymmetric.
  if (into.stack.size() != from.stack.size()) {
    for (auto& entry : into.stack) {
      if (!(entry == VType::Top())) {
        entry = VType::Top();
        *changed = true;
      }
    }
    return;
  }
  for (size_t i = 0; i < into.stack.size(); i++) {
    VType merged = MergeTypes(into.stack[i], from.stack[i], env, names);
    if (!(merged == into.stack[i])) {
      into.stack[i] = merged;
      *changed = true;
    }
  }
}

bool FitsInto(const VType& a, const VType& b, const ClassEnv& env, TypeNames& names) {
  return MergeTypes(a, b, env, names) == b;
}

bool FrameFits(const Frame& a, const Frame& b, const ClassEnv& env, TypeNames& names) {
  if (a.locals.size() != b.locals.size() || a.stack.size() != b.stack.size()) {
    return false;
  }
  for (size_t i = 0; i < a.locals.size(); i++) {
    if (!FitsInto(a.locals[i], b.locals[i], env, names)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.stack.size(); i++) {
    if (!FitsInto(a.stack[i], b.stack[i], env, names)) {
      return false;
    }
  }
  return true;
}

}  // namespace dvm
