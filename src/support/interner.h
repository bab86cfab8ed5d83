// Process-global string interner. A symbol id is a dense, stable, non-zero
// uint32_t assigned to a string for the lifetime of the process; equal strings
// always map to the same id, so comparing two symbols is an integer compare.
// The runtime uses symbols for class names, method names and descriptors to
// replace the std::string compares on the interpreter's hot resolution paths
// (monomorphic inline caches, method lookup, subtype tests).
#ifndef SRC_SUPPORT_INTERNER_H_
#define SRC_SUPPORT_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dvm {

inline constexpr uint32_t kNoSymbol = 0;

// Returns the symbol for `s`, interning it on first use. Thread-safe;
// lookups of already-interned strings take a shared lock only.
uint32_t InternSymbol(std::string_view s);

// The string a symbol was interned from. Returns an empty string for
// kNoSymbol or an id that was never handed out. Thread-safe.
const std::string& SymbolName(uint32_t sym);

// Number of symbols handed out so far. Thread-safe.
size_t InternedSymbolCount();

// Packs a (name, descriptor) symbol pair into one map key.
inline uint64_t SymbolPairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace dvm

#endif  // SRC_SUPPORT_INTERNER_H_
