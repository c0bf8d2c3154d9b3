//===- ToolFlags.cpp - Flags shared by the command-line tools -------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/ToolFlags.h"

#include <cstdio>

using namespace mvec;

FlagParse mvec::parseToolFlag(int Argc, char **Argv, int &I,
                              ToolFlagValues Accepts, ToolFlags &Out) {
  std::string Arg = Argv[I];
  if (Arg != "--engine" && Arg != "--cost-model" && Arg != "--cost-profile")
    return FlagParse::NotMine;
  if (I + 1 == Argc)
    return FlagParse::Invalid;
  std::string Value = Argv[++I];
  if (Arg == "--cost-profile") {
    Out.CostProfile = Value;
    return FlagParse::Parsed;
  }
  bool Valid = Arg == "--engine"
                   ? Value == "ast" || Value == "vm" ||
                         (Value == "both" && Accepts.EngineBoth)
                   : Value == "off" || Value == "on" ||
                         (Value == "both" && Accepts.CostBoth);
  if (!Valid)
    return FlagParse::Invalid;
  (Arg == "--engine" ? Out.Engine : Out.CostModel) = Value;
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
