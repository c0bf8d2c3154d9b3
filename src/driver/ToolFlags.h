//===- ToolFlags.h - Flags shared by the command-line tools -----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One parser for the cost-model flags of mvec_tool, mvec_fuzz and
/// mvec_faultrun (the kernel level is not a flag: the MVEC_SIMD
/// environment variable sets it, see SimdDispatch.h):
///
///   --cost-model off|on|both   --cost-profile FILE
///
/// "both" (run every choice) is accepted only where the tool offers it.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DRIVER_TOOLFLAGS_H
#define MVEC_DRIVER_TOOLFLAGS_H

#include "cost/CostModel.h"

#include <memory>
#include <string>

namespace mvec {

/// The parsed flags, defaults filled in. CostModel holds the value as
/// given ("both" only when the tool accepts it).
struct ToolFlags {
  std::string CostModel = "off";
  /// Empty: the built-in profile.
  std::string CostProfile;
};

enum class FlagParse { NotMine, Parsed, Invalid };

/// Parses \p Argv[I] when it is one of the shared flags, advancing \p I
/// past its value. NotMine leaves everything alone; Invalid (a missing
/// value, or "both" when \p CostBoth is false) tells the caller to print
/// its usage.
FlagParse parseToolFlag(int Argc, char **Argv, int &I, bool CostBoth,
                        ToolFlags &Out);

/// The cost model of profile \p Path (the built-in one when empty). A
/// load problem falls back to the built-in profile and is reported on
/// stderr as "<Prefix>: <diagnostic>".
std::unique_ptr<cost::CostModel> loadToolCostModel(const std::string &Path,
                                                   const char *Prefix);

} // namespace mvec

#endif // MVEC_DRIVER_TOOLFLAGS_H
