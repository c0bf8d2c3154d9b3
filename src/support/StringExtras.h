//===- StringExtras.h - String helpers --------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities shared across the project.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SUPPORT_STRINGEXTRAS_H
#define MVEC_SUPPORT_STRINGEXTRAS_H

#include <string>
#include <string_view>

namespace mvec {

/// Strips leading and trailing whitespace.
std::string_view trim(std::string_view S);

/// Formats a double the way MATLAB source would print an integral constant
/// ("3" not "3.000000"); non-integral values keep enough digits to
/// round-trip.
std::string formatMatlabNumber(double Value);

} // namespace mvec

#endif // MVEC_SUPPORT_STRINGEXTRAS_H
