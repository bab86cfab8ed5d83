// Net operand-stack effect of a decoded instruction. For field accesses and
// invokes the effect depends on the referenced descriptor, so the constant pool
// is required. Shared by the builder's and the rewriter's max_stack
// computation.
#ifndef SRC_BYTECODE_STACK_EFFECT_H_
#define SRC_BYTECODE_STACK_EFFECT_H_

#include <cstdint>
#include <vector>

#include "src/bytecode/code.h"
#include "src/bytecode/constant_pool.h"
#include "src/support/result.h"

namespace dvm {

Result<int> StackDelta(const Instr& instr, const ConstantPool& pool);

// Slots popped by the instruction (before its pushes). Used by the verifier to
// check for stack underflow precisely.
Result<int> StackPops(const Instr& instr, const ConstantPool& pool);

// Deepest operand stack any path through `instrs` reaches, by worklist
// propagation from depth 0 at instruction 0. `handler_entries` are
// instruction indices that start with one reference on the stack (exception
// handler entry points). Fails on underflow, and with kCapacity as soon as a
// depth passes 65535, which also ends a loop whose every trip grows the stack.
Result<uint16_t> ComputeMaxStackDepth(const std::vector<Instr>& instrs,
                                      const ConstantPool& pool,
                                      const std::vector<uint32_t>& handler_entries);

}  // namespace dvm

#endif  // SRC_BYTECODE_STACK_EFFECT_H_
