// The network compilation service (paper section 3.4).
//
// A monolithic VM JIT-compiles on the client under severe time pressure; the
// DVM moves translation into the network, where it runs once per platform and
// is amortized across every client in the organization (clients report their
// native format during the remote-administration handshake).
//
// "Native translation" here is quickening: a peephole optimization pass
// (constant folding, strength reduction, redundant-load elimination) plus a
// CompiledStamp attribute. Stamped classes execute at the compiled-instruction
// cost in the runtime's cost model, the same way a template JIT's output would.
#ifndef SRC_COMPILER_COMPILER_H_
#define SRC_COMPILER_COMPILER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/bytecode/code.h"
#include "src/rewrite/filter.h"

namespace dvm {

struct CompileStats {
  uint64_t methods_compiled = 0;
  uint64_t instructions_processed = 0;
  uint64_t folds = 0;         // constant-folding rewrites applied
  uint64_t reductions = 0;    // strength reductions applied
};

// Peephole-optimizes one decoded method body in place. Exposed for tests and
// the client-side JIT baseline. Safe across branches: a window is only folded
// when no branch targets its interior.
Result<bool> PeepholeOptimize(std::vector<Instr>* code, const ConstantPool& pool,
                              CompileStats* stats);

// Static component: translates every method of every (non-system) class and
// stamps the class for the target platform. The platform is taken from the
// request context when present (clients report their native format in the
// remote-administration handshake, section 3.4); `default_platform` covers
// platform-neutral requests.
class CompilerFilter : public CodeFilter {
 public:
  explicit CompilerFilter(std::string default_platform)
      : target_platform_(std::move(default_platform)) {}

  std::string name() const override { return "compiler"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) override;

  // Profile-guided tier-1 hint (DESIGN.md §16): methods named here (class
  // name -> set of "name:descriptor", typically fed from the fleet's
  // MethodProfileTable) are listed in the class's kAttrHotMethods attribute,
  // and a tiering client compiles them at Prepare instead of waiting for its
  // own counters to cross the threshold.
  void SetHotMethods(std::map<std::string, std::set<std::string>> hot) {
    hot_methods_ = std::move(hot);
  }

  const CompileStats& stats() const { return stats_; }

 private:
  std::string target_platform_;
  std::map<std::string, std::set<std::string>> hot_methods_;
  CompileStats stats_;
};

}  // namespace dvm

#endif  // SRC_COMPILER_COMPILER_H_
