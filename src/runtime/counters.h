// Per-machine runtime counters and the virtual cost model.
//
// Every experiment in the paper reports wall-clock seconds on a 200 MHz
// PentiumPro. Our reproduction runs on a simulator, so time inside a client VM
// is *virtual*: the interpreter and the native library charge nanoseconds to
// the machine according to CostModel. This keeps all benchmarks deterministic
// and lets monolithic and DVM configurations differ only in where service work
// happens — the paper's own methodology ("identical software and hardware
// platforms, but under different service architectures").
#ifndef SRC_RUNTIME_COUNTERS_H_
#define SRC_RUNTIME_COUNTERS_H_

#include <cstdint>

namespace dvm {

struct RuntimeCounters {
  uint64_t instructions = 0;
  uint64_t method_invocations = 0;
  uint64_t native_calls = 0;
  uint64_t allocations = 0;
  uint64_t allocated_bytes = 0;
  uint64_t gc_runs = 0;
  uint64_t classes_loaded = 0;
  uint64_t exceptions_thrown = 0;
  // Interpreter quickening: instruction sites rewritten to their quick form.
  // Engine-internal; excluded from cross-engine differential comparisons.
  uint64_t quickened_sites = 0;
  // Tier-1 baseline compiler (DESIGN.md §16). All engine-internal, like
  // quickened_sites: the virtual clock and the architectural counters above
  // are invariant across tiers.
  uint64_t tier_compiles = 0;   // baseline compiles (hot or hinted)
  uint64_t tier_deopts = 0;     // bailouts back to the interpreter
  uint64_t osr_entries = 0;     // on-stack replacements at loop backedges
  // Service-specific dynamic work, attributed by the service natives.
  uint64_t dynamic_verify_checks = 0;
  uint64_t security_checks = 0;
  uint64_t audit_events = 0;
  uint64_t profile_events = 0;
};

// Calibrated against the paper's testbed (200 MHz PentiumPro, Sun JDK 1.2
// interpreter): roughly 10M bytecodes/s => 100 ns per interpreted instruction.
struct CostModel {
  uint64_t nanos_per_instr = 100;
  // Quickened/translated code (network compiler output) runs ~4x faster,
  // comparable to a simple template JIT.
  uint64_t nanos_per_instr_compiled = 25;
  uint64_t nanos_per_invoke = 400;        // frame setup/teardown
  // Monitor acquisition/release (uncontended CAS + bookkeeping on a 1999 JVM).
  uint64_t nanos_per_monitor_op = 1'400;
  uint64_t nanos_per_alloc = 300;         // allocation fast path
  uint64_t nanos_per_native_call = 200;   // JNI-style transition
  uint64_t nanos_per_class_load = 150000; // parse + layout, per class
  // Client-side verification costs (monolithic mode): dominated by the
  // dataflow pass, charged per check performed.
  uint64_t nanos_per_static_verify_check = 2'600;
  // The DVM dynamic component: descriptor lookup + string comparison against
  // a class's self-describing ReflectionInfo attribute (section 4.3)...
  uint64_t nanos_per_link_check = 900;
  // ...and the fallback when the target class carries no such attribute: a
  // slow reflective walk of the library interface (the paper's anecdote).
  uint64_t nanos_per_link_check_slow = 15'000;
};

}  // namespace dvm

#endif  // SRC_RUNTIME_COUNTERS_H_
