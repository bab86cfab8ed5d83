// Bytecode assembler: a builder API for constructing class files in memory.
// Used by the workload generators (which synthesize whole applications), the
// test suite, and the static services when they synthesize replacement classes
// (e.g. the verification service's error-raising stand-ins).
//
// MethodBuilder tracks labels symbolically; Build() resolves branches, computes
// max_locals from the touched local indices and max_stack by a breadth-first
// walk of the instruction graph.
#ifndef SRC_BYTECODE_BUILDER_H_
#define SRC_BYTECODE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/bytecode/code.h"
#include "src/support/result.h"

namespace dvm {

class ClassBuilder;

// Opaque branch target. Valid only for the MethodBuilder that created it.
struct Label {
  int id = -1;
};

class MethodBuilder {
 public:
  // Plain instruction emitters.
  MethodBuilder& Emit(Op op);
  MethodBuilder& Emit(Op op, int32_t a);
  MethodBuilder& Emit(Op op, int32_t a, int32_t b);

  // Labels and branches.
  Label NewLabel();
  MethodBuilder& Bind(Label label);
  MethodBuilder& Branch(Op op, Label target);

  // Convenience emitters. They choose the smallest constant encoding and
  // intern pool entries as needed.
  MethodBuilder& PushInt(int32_t v);
  MethodBuilder& PushLong(int64_t v);
  MethodBuilder& PushString(const std::string& s);
  MethodBuilder& PushNull();
  MethodBuilder& LoadLocal(const std::string& type_desc, int index);
  MethodBuilder& StoreLocal(const std::string& type_desc, int index);
  MethodBuilder& GetStatic(const std::string& cls, const std::string& field,
                           const std::string& desc);
  MethodBuilder& PutStatic(const std::string& cls, const std::string& field,
                           const std::string& desc);
  MethodBuilder& GetField(const std::string& cls, const std::string& field,
                          const std::string& desc);
  MethodBuilder& PutField(const std::string& cls, const std::string& field,
                          const std::string& desc);
  MethodBuilder& InvokeStatic(const std::string& cls, const std::string& method,
                              const std::string& desc);
  MethodBuilder& InvokeVirtual(const std::string& cls, const std::string& method,
                               const std::string& desc);
  MethodBuilder& InvokeSpecial(const std::string& cls, const std::string& method,
                               const std::string& desc);
  MethodBuilder& New(const std::string& cls);
  MethodBuilder& ANewArray(const std::string& element_cls);
  MethodBuilder& CheckCast(const std::string& cls);
  MethodBuilder& InstanceOf(const std::string& cls);

  // Exception handler over the half-open label range [start, end).
  // catch_class == "" catches everything.
  MethodBuilder& AddHandler(Label start, Label end, Label handler,
                            const std::string& catch_class);

  // Finalizes into the owning ClassBuilder's method list. Idempotence is not
  // supported: call exactly once per method.
  Status Done();

 private:
  friend class ClassBuilder;
  MethodBuilder(ClassBuilder* owner, uint16_t access_flags, std::string name,
                std::string descriptor);

  struct HandlerSpec {
    Label start, end, handler;
    std::string catch_class;
  };

  ClassBuilder* owner_;
  uint16_t access_flags_;
  std::string name_;
  std::string descriptor_;
  std::vector<Instr> instrs_;
  // For each instruction with a pending branch, the label id it targets.
  std::vector<std::pair<size_t, int>> pending_branches_;
  std::vector<int> label_positions_;  // label id -> instruction index (-1 unbound)
  std::vector<HandlerSpec> handlers_;
  int max_local_ = -1;
  bool done_ = false;
};

class ClassBuilder {
 public:
  ClassBuilder(const std::string& name, const std::string& super_name,
               uint16_t access_flags = AccessFlags::kPublic);

  ClassBuilder& AddInterface(const std::string& iface_name);
  ClassBuilder& AddField(uint16_t access_flags, const std::string& name,
                         const std::string& descriptor);

  // Returns a builder for a new method body. The returned object is owned by
  // this ClassBuilder and stays valid until Build().
  MethodBuilder& AddMethod(uint16_t access_flags, const std::string& name,
                           const std::string& descriptor);
  // Declares a native method (no body; bound via the runtime's native registry).
  ClassBuilder& AddNativeMethod(uint16_t access_flags, const std::string& name,
                                const std::string& descriptor);
  // Declares an abstract method.
  ClassBuilder& AddAbstractMethod(uint16_t access_flags, const std::string& name,
                                  const std::string& descriptor);

  // Adds a default constructor that just calls super.<init>()V.
  ClassBuilder& AddDefaultConstructor();

  ConstantPool& pool() { return class_file_.pool(); }

  // Finalizes all pending MethodBuilders and returns the class file.
  Result<ClassFile> Build();

 private:
  friend class MethodBuilder;

  ClassFile class_file_;
  std::vector<std::unique_ptr<MethodBuilder>> pending_methods_;
  bool built_ = false;
};

}  // namespace dvm

#endif  // SRC_BYTECODE_BUILDER_H_
