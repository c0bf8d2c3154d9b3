//===- ScalarOps.h - Scalar semantics shared by both engines ----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of MATLAB's scalar semantics: a binary operator on
/// two doubles, the fused multiply-add's rounding, the 1x1 logical value
/// and the integral-subscript check. The elementwise kernels, the
/// tree-walker's scalar fast paths and unboxed evaluator, and the VM's
/// unboxed registers all call these, so the engines agree bit for bit by
/// construction rather than by parallel spelling. They sit on per-element
/// hot paths, so each is forced inline: left to the heuristics, GCC keeps
/// scalarBinary's switch out of line and every scalar operation pays a
/// call the copies it replaces did not.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_INTERP_SCALAROPS_H
#define MVEC_INTERP_SCALAROPS_H

#include "frontend/AST.h"
#include "interp/Value.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace mvec {

/// True for the operators whose scalar fast paths compute \p Op directly
/// on two 1x1 operands: every elementwise operator but the powers (which
/// keep powOp's route) and the short-circuit pseudo-ops.
[[gnu::always_inline]]
inline bool hasScalarForm(BinaryOp Op) {
  return Op != BinaryOp::Pow && Op != BinaryOp::DotPow &&
         Op < BinaryOp::AndAnd;
}

/// \p R, a sum or product of \p A and another operand, as x86 computes
/// A op B: A's NaN (quieted) when A is NaN. The instruction returns its
/// first operand's NaN when both are NaN, and a compiler may commute the
/// operands of an add or a multiply, so without this the NaN a NaN-NaN
/// sum returns would depend on register allocation, and differ between
/// builds and between the call sites of one build.
[[gnu::always_inline]]
inline double firstNaN(double A, double R) {
  return A != A ? A + A : R;
}

/// A op B on doubles: IEEE arithmetic (division by zero yields Inf/NaN,
/// as in MATLAB), std::pow for the powers, and 1 or 0 for comparisons and
/// elementwise logic. The operand order is kept: it decides which NaN
/// payload a NaN-NaN operation returns (see firstNaN). The short-circuit
/// pseudo-ops have no elementwise form and yield 0 (callers report them).
[[gnu::always_inline]]
inline double scalarBinary(BinaryOp Op, double A, double B) {
  switch (Op) {
  case BinaryOp::Add:
    return firstNaN(A, A + B);
  case BinaryOp::Sub:
    return A - B;
  case BinaryOp::Mul:
  case BinaryOp::DotMul:
    return firstNaN(A, A * B);
  case BinaryOp::Div:
  case BinaryOp::DotDiv:
    return A / B;
  case BinaryOp::Pow:
  case BinaryOp::DotPow:
    return std::pow(A, B);
  case BinaryOp::Lt:
    return A < B ? 1.0 : 0.0;
  case BinaryOp::Gt:
    return A > B ? 1.0 : 0.0;
  case BinaryOp::Le:
    return A <= B ? 1.0 : 0.0;
  case BinaryOp::Ge:
    return A >= B ? 1.0 : 0.0;
  case BinaryOp::Eq:
    return A == B ? 1.0 : 0.0;
  case BinaryOp::Ne:
    return A != B ? 1.0 : 0.0;
  case BinaryOp::And:
    return (A != 0.0 && B != 0.0) ? 1.0 : 0.0;
  case BinaryOp::Or:
    return (A != 0.0 || B != 0.0) ? 1.0 : 0.0;
  case BinaryOp::AndAnd:
  case BinaryOp::OrOr:
    break;
  }
  return 0.0;
}

/// True when scalarBinary(\p Op, ...) is a logical value: the comparisons
/// and elementwise logic (for an operator with hasScalarForm).
[[gnu::always_inline]]
inline bool scalarIsLogical(BinaryOp Op) {
  return Op >= BinaryOp::Lt;
}

/// A 1x1 logical value (no heap allocation).
[[gnu::always_inline]]
inline Value logicalScalar(bool V) {
  Value R = Value::scalar(V ? 1.0 : 0.0);
  R.setLogical(true);
  return R;
}

/// The 1x1 value of \p V = scalarBinary(\p Op, ...), logical when
/// scalarIsLogical(\p Op).
[[gnu::always_inline]]
inline Value scalarResult(BinaryOp Op, double V) {
  return scalarIsLogical(Op) ? logicalScalar(V != 0.0) : Value::scalar(V);
}

/// Product \p Prod plus or minus \p Other, as the fused (A .* B) +/- C
/// combines them: the product is rounded first, exactly as the two-step
/// evaluation rounds it, and is the left addend of '+'. With \p Subtract,
/// Prod - Other when \p ProductOnLeft, else Other - Prod.
[[gnu::always_inline]]
inline double scalarMulAdd(double Prod, double Other, bool Subtract,
                           bool ProductOnLeft) {
  if (!Subtract)
    return firstNaN(Prod, Prod + Other);
  return ProductOnLeft ? Prod - Other : Other - Prod;
}

/// The largest subscript a double holds as an exact integer (2^53).
constexpr double MaxExactSubscript = 9007199254740992.0;

/// The bound below which a subscript of a dimension of extent \p Extent
/// may be cast: the extent, capped where doubles stop being exact.
[[gnu::always_inline]]
inline double indexLimit(size_t Extent) {
  return std::min(static_cast<double>(Extent), MaxExactSubscript);
}

/// True when \p D is an integer in [1, \p Limit] (\p Limit at most
/// MaxExactSubscript), setting \p Index to the 0-based D - 1. NaN,
/// infinities, fractions and out-of-range values fail, leaving \p Index
/// unspecified. Two compares and a cast.
[[gnu::always_inline]]
inline bool integralIndex(double D, double Limit, size_t &Index) {
  if (!(D >= 1.0 && D <= Limit))
    return false;
  Index = static_cast<size_t>(D);
  if (static_cast<double>(Index) != D)
    return false;
  --Index;
  return true;
}

} // namespace mvec

#endif // MVEC_INTERP_SCALAROPS_H
