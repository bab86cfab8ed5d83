// Verification type lattice and abstract frames for the phase-3 dataflow pass.
//
//                  Top (unusable / conflict)
//         ____________|______________
//        |      |         |          |
//       Int   Long     Ref(C) ... Ref(Object)
//                         |
//                        Null      (bottom of the reference sub-lattice)
//
// Uninit(C, site) values are produced by `new` and become Ref(C) when the
// matching <init> runs; they merge only with themselves.
#ifndef SRC_VERIFIER_TYPESTATE_H_
#define SRC_VERIFIER_TYPESTATE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/verifier/class_env.h"

namespace dvm {

// Symbols of the well-known classes. Every TypeNames interns them first, in
// this order, so they are the same constants in every table.
inline constexpr uint32_t kNoTypeName = 0;
inline constexpr uint32_t kObjectSym = 1;     // java/lang/Object
inline constexpr uint32_t kStringSym = 2;     // java/lang/String
inline constexpr uint32_t kThrowableSym = 3;  // java/lang/Throwable
inline constexpr uint32_t kIntArraySym = 4;   // [I
inline constexpr uint32_t kLongArraySym = 5;  // [J

// A plain value: the class name is a symbol of the TypeNames table the type
// was made with, so copying, comparing and merging frames never touches a
// string. Types from different tables must not be compared.
struct VType {
  enum class Kind : uint8_t {
    kTop,     // unknown / conflicting — cannot be used
    kInt,
    kLong,
    kNull,    // null constant, assignable to any reference type
    kRef,     // reference; `sym` names a class ("foo/Bar") or array descriptor ("[I")
    kUninit,  // allocated but unconstructed; `sym` names the class, `site` the new-index
  };

  Kind kind = Kind::kTop;
  int32_t site = -1;
  uint32_t sym = kNoTypeName;

  static VType Top() { return {Kind::kTop, -1, kNoTypeName}; }
  static VType Int() { return {Kind::kInt, -1, kNoTypeName}; }
  static VType Long() { return {Kind::kLong, -1, kNoTypeName}; }
  static VType Null() { return {Kind::kNull, -1, kNoTypeName}; }
  static VType Ref(uint32_t name_sym) { return {Kind::kRef, -1, name_sym}; }
  static VType Object() { return Ref(kObjectSym); }
  static VType Uninit(uint32_t class_sym, int new_site) {
    return {Kind::kUninit, new_site, class_sym};
  }

  bool IsRefLike() const { return kind == Kind::kRef || kind == Kind::kNull; }
  bool operator==(const VType& other) const = default;
};
static_assert(std::is_trivially_copyable_v<VType>);

// The class names that the types of one verification, one certificate
// validation or one certificate refer to. Each owner keeps its own table and
// drops it with the work, so names taken from untrusted classes never
// outlive the class that carried them. Not thread-safe.
class TypeNames {
 public:
  TypeNames();
  TypeNames(const TypeNames& other);
  TypeNames& operator=(const TypeNames& other);
  // A moved deque keeps its elements in place, so the map's keys stay valid.
  TypeNames(TypeNames&&) = default;
  TypeNames& operator=(TypeNames&&) = default;

  uint32_t Intern(std::string_view name);
  // The name of `sym`; empty for kNoTypeName or a symbol this table never
  // handed out. References stay valid as the table grows.
  const std::string& Name(uint32_t sym) const;

  VType Ref(std::string_view class_or_array) { return VType::Ref(Intern(class_or_array)); }
  // VType for a field/param descriptor ("I", "J", "Lfoo/Bar;", "[I").
  VType FromDescriptor(const std::string& desc);
  bool IsArray(const VType& t) const {
    return t.kind == VType::Kind::kRef && Name(t.sym).starts_with('[');
  }
  std::string ToString(const VType& t) const;

 private:
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, uint32_t> ids_;
};

// Result of an assignability query against a partial environment.
enum class Assignability {
  kYes,      // provable in the environment
  kNo,       // provably wrong — verification error
  kUnknown,  // involves a class the environment has not seen — record assumption
};

// Walks superclass chains in `env`. Interfaces are treated as assignable
// targets when found in the chain's interface lists. `src` names come from
// `names`.
Assignability IsAssignable(const VType& src, const std::string& dst_class, const ClassEnv& env,
                           const TypeNames& names);

// Least upper bound of two reference types in `env`; unknown hierarchy merges
// to java/lang/Object (safe: uses are re-checked by IsAssignable).
// Commutative: Merge(a, b) == Merge(b, a), even on degenerate (cyclic)
// hierarchies — the certificate validator's shadow joins rely on it.
// A common ancestor is interned into `names`.
VType MergeTypes(const VType& a, const VType& b, const ClassEnv& env, TypeNames& names);

// a ⊑ b in the merge lattice: merging `a` into `b` leaves `b` unchanged. The
// one-pass certificate validator uses this instead of re-running the fixpoint.
bool FitsInto(const VType& a, const VType& b, const ClassEnv& env, TypeNames& names);

// Abstract machine state at one instruction.
struct Frame {
  std::vector<VType> locals;
  std::vector<VType> stack;

  bool operator==(const Frame& other) const = default;
};

// A frame held in storage it does not own (a FrameTable slot), or a view of a
// Frame.
struct FrameView {
  std::span<VType> locals;
  std::span<VType> stack;

  FrameView(std::span<VType> locals_in, std::span<VType> stack_in)
      : locals(locals_in), stack(stack_in) {}
  FrameView(Frame& frame) : locals(frame.locals), stack(frame.stack) {}  // NOLINT: implicit

  bool operator==(const Frame& frame) const {
    return std::ranges::equal(locals, frame.locals) && std::ranges::equal(stack, frame.stack);
  }
  void CopyTo(Frame& out) const {
    out.locals.assign(locals.begin(), locals.end());
    out.stack.assign(stack.begin(), stack.end());
  }
};

// Pointwise merge. Sets *changed when the result differs from `into`.
void MergeFrames(FrameView into, const Frame& from, const ClassEnv& env, TypeNames& names,
                 bool* changed);

// Pointwise ⊑: same shape, every slot of `a` fits into the matching slot of
// `b`. A frame that fits an asserted merge-point frame may safely adopt it.
bool FrameFits(const Frame& a, const Frame& b, const ClassEnv& env, TypeNames& names);

}  // namespace dvm

#endif  // SRC_VERIFIER_TYPESTATE_H_
