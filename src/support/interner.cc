#include "src/support/interner.h"

#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace dvm {
namespace {

struct SymbolTable {
  std::shared_mutex mu;
  // Names live in a deque so references stay stable as the table grows;
  // the map's string_view keys point into it.
  std::deque<std::string> names{std::string()};  // index 0 = kNoSymbol
  std::unordered_map<std::string_view, uint32_t> ids;
};

SymbolTable& Table() {
  static SymbolTable* table = new SymbolTable();
  return *table;
}

}  // namespace

uint32_t InternSymbol(std::string_view s) {
  SymbolTable& t = Table();
  {
    std::shared_lock<std::shared_mutex> lock(t.mu);
    auto it = t.ids.find(s);
    if (it != t.ids.end()) {
      return it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(t.mu);
  auto it = t.ids.find(s);
  if (it != t.ids.end()) {
    return it->second;
  }
  uint32_t sym = static_cast<uint32_t>(t.names.size());
  t.names.emplace_back(s);
  t.ids.emplace(std::string_view(t.names.back()), sym);
  return sym;
}

const std::string& SymbolName(uint32_t sym) {
  SymbolTable& t = Table();
  std::shared_lock<std::shared_mutex> lock(t.mu);
  if (sym >= t.names.size()) {
    return t.names[0];
  }
  return t.names[sym];
}

size_t InternedSymbolCount() {
  SymbolTable& t = Table();
  std::shared_lock<std::shared_mutex> lock(t.mu);
  return t.names.size() - 1;
}

}  // namespace dvm
