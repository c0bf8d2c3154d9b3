//===- Workspace.h - Slot-resolved variable store ---------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's variable store. Names are interned into dense slot
/// indices once (during the interpreter's per-program pre-pass), after which
/// every read and write is an O(1) vector access instead of a string-keyed
/// map lookup. The name-keyed entry points remain for callers that hold
/// only a name (tests, the service API, ephemeral rewritten AST nodes).
///
/// Invariant: an undefined slot holds an empty Value, so "define on first
/// indexed write" sees the same [] starting point the old map-based store
/// produced with operator[].
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_INTERP_WORKSPACE_H
#define MVEC_INTERP_WORKSPACE_H

#include "interp/Value.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace mvec {

class Workspace {
public:
  /// Returns the slot for \p Name, creating one on first sight. Interning
  /// never invalidates other slots' indices.
  unsigned intern(const std::string &Name) {
    auto [It, Inserted] =
        NameToSlot.emplace(Name, static_cast<unsigned>(Names.size()));
    if (Inserted) {
      Names.push_back(Name);
      Slots.emplace_back();
      DefinedFlags.push_back(0);
    }
    return It->second;
  }

  /// Slot for \p Name, or -1 when the name was never interned.
  int lookup(const std::string &Name) const {
    auto It = NameToSlot.find(Name);
    return It == NameToSlot.end() ? -1 : static_cast<int>(It->second);
  }

  size_t numSlots() const { return Slots.size(); }
  const std::string &nameOf(unsigned Slot) const { return Names[Slot]; }

  bool isDefined(unsigned Slot) const { return DefinedFlags[Slot] != 0; }

  const Value &slotValue(unsigned Slot) const { return Slots[Slot]; }
  Value &slotValue(unsigned Slot) { return Slots[Slot]; }

  /// Stores \p V, materialized: a variable never holds a strided view.
  void define(unsigned Slot, Value V) {
    V.materialize();
    Slots[Slot] = std::move(V);
    DefinedFlags[Slot] = 1;
  }

  /// define(Slot, Value::scalar(V)) without building a Value: the slot is
  /// rewritten in place.
  void defineScalar(unsigned Slot, double V) {
    Slots[Slot].setScalar(V);
    DefinedFlags[Slot] = 1;
  }

  /// Marks \p Slot defined and returns its value for in-place mutation.
  /// A previously undefined slot starts as [] (indexed-write creation).
  Value &defineRef(unsigned Slot) {
    DefinedFlags[Slot] = 1;
    return Slots[Slot];
  }

  /// Null when undefined.
  const Value *get(const std::string &Name) const {
    auto It = NameToSlot.find(Name);
    if (It == NameToSlot.end() || !DefinedFlags[It->second])
      return nullptr;
    return &Slots[It->second];
  }

  void set(const std::string &Name, Value V) {
    define(intern(Name), std::move(V));
  }

  /// Undefines everything (slot numbering is preserved: cached slot
  /// indices held by a prepared program stay valid).
  void clear() {
    for (size_t I = 0, E = Slots.size(); I != E; ++I) {
      Slots[I] = Value();
      DefinedFlags[I] = 0;
    }
  }

  /// Name-keyed view of the defined variables. Values are COW copies, so
  /// the snapshot is cheap and isolated from later mutations.
  std::map<std::string, Value> snapshot() const {
    std::map<std::string, Value> Out;
    for (size_t I = 0, E = Slots.size(); I != E; ++I)
      if (DefinedFlags[I])
        Out.emplace(Names[I], Slots[I]);
    return Out;
  }

private:
  std::unordered_map<std::string, unsigned> NameToSlot;
  std::vector<std::string> Names;
  std::vector<Value> Slots;
  std::vector<uint8_t> DefinedFlags;
};

} // namespace mvec

#endif // MVEC_INTERP_WORKSPACE_H
