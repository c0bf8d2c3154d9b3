//===- Builtins.h - MATLAB builtin functions --------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The builtin function table of the interpreter. These are the "efficient
/// intrinsics" the vectorizer targets (size, sum, cumsum, repmat, ...).
///
/// Builtins are identified by a dense BuiltinId so the interpreter can
/// resolve a call-site name once (during its pre-pass) and dispatch through
/// an index instead of a per-call string comparison.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_INTERP_BUILTINS_H
#define MVEC_INTERP_BUILTINS_H

#include "interp/Value.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mvec {

class Interpreter;

/// Index into the builtin dispatch table. Values >= 0 are valid builtins;
/// InvalidBuiltinId means "not a builtin".
using BuiltinId = int16_t;
inline constexpr BuiltinId InvalidBuiltinId = -1;

/// Resolves \p Name to its table index, or InvalidBuiltinId.
BuiltinId builtinIdFor(const std::string &Name);

/// True when \p Name is a builtin function known to the interpreter.
inline bool isBuiltinName(const std::string &Name) {
  return builtinIdFor(Name) != InvalidBuiltinId;
}

/// The dimension argument of sum and cumsum: a positive integer scalar.
/// Sets \p Out to 1, 2, or 3 for any dimension past the second (where
/// MATLAB returns the input unchanged); otherwise fails at \p Loc with
/// \p Name in the message and returns false.
bool reductionDim(Interpreter &Interp, const Value &Dim, const char *Name,
                  SourceLoc Loc, unsigned &Out);

/// Invokes builtin \p Id (from builtinIdFor) with already-evaluated \p Args.
/// Views among them are materialized in place unless the builtin only reads
/// shapes. Reports problems through the interpreter's fail state.
Value callBuiltin(Interpreter &Interp, BuiltinId Id, std::vector<Value> &Args,
                  SourceLoc Loc);

} // namespace mvec

#endif // MVEC_INTERP_BUILTINS_H
