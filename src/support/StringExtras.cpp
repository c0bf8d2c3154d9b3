//===- StringExtras.cpp - String helpers ----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringExtras.h"

#include <cctype>
#include <cmath>
#include <cstdio>

using namespace mvec;

std::string_view mvec::trim(std::string_view S) {
  size_t Begin = 0, End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::string mvec::formatMatlabNumber(double Value) {
  if (std::isfinite(Value) && Value == std::floor(Value) &&
      std::fabs(Value) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.0f", Value);
    return Buf;
  }
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  // Trim needless precision when a shorter form round-trips.
  for (int Precision = 1; Precision < 17; ++Precision) {
    char Short[48];
    std::snprintf(Short, sizeof(Short), "%.*g", Precision, Value);
    double Parsed = 0;
    std::sscanf(Short, "%lf", &Parsed);
    if (Parsed == Value)
      return Short;
  }
  return Buf;
}
