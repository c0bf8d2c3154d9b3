//===- ToolFlags.cpp - Flags shared by the command-line tools -------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/ToolFlags.h"

#include <cstdio>

using namespace mvec;

FlagParse mvec::parseToolFlag(int Argc, char **Argv, int &I, bool CostBoth,
                              ToolFlags &Out) {
  std::string Arg = Argv[I];
  if (Arg != "--cost-model" && Arg != "--cost-profile")
    return FlagParse::NotMine;
  if (I + 1 == Argc)
    return FlagParse::Invalid;
  std::string Value = Argv[++I];
  if (Arg == "--cost-profile") {
    Out.CostProfile = Value;
    return FlagParse::Parsed;
  }
  if (Value != "off" && Value != "on" && !(Value == "both" && CostBoth))
    return FlagParse::Invalid;
  Out.CostModel = Value;
  return FlagParse::Parsed;
}

std::unique_ptr<cost::CostModel>
mvec::loadToolCostModel(const std::string &Path, const char *Prefix) {
  std::string Diag;
  auto Model = std::make_unique<cost::CostModel>(
      cost::loadCostProfileOrDefault(Path, Diag));
  if (!Diag.empty())
    std::fprintf(stderr, "%s: %s\n", Prefix, Diag.c_str());
  return Model;
}
