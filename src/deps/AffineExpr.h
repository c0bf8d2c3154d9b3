//===- AffineExpr.h - Affine index expressions ------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine forms c0 + sum(ci * name_i) extracted from subscript expressions.
/// Names cover both loop index variables and loop-invariant symbols; the
/// dependence tests and the diagonal-access pattern matcher both build on
/// this representation.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DEPS_AFFINEEXPR_H
#define MVEC_DEPS_AFFINEEXPR_H

#include "frontend/AST.h"

#include <map>
#include <optional>
#include <string>

namespace mvec {

class AffineExpr {
public:
  AffineExpr() = default;
  explicit AffineExpr(double Constant) : Constant(Constant) {}

  static AffineExpr variable(const std::string &Name, double Coeff = 1.0) {
    AffineExpr E;
    if (Coeff != 0.0)
      E.Coeffs[Name] = Coeff;
    return E;
  }

  /// Extracts an affine form from \p E. Returns nullopt for non-affine
  /// expressions (products of variables, subscripts, calls, ...).
  static std::optional<AffineExpr> fromExpr(const Expr &E);

  double constant() const { return Constant; }
  /// Coefficient of \p Name (0 when absent).
  double coeff(const std::string &Name) const {
    auto It = Coeffs.find(Name);
    return It == Coeffs.end() ? 0.0 : It->second;
  }
  const std::map<std::string, double> &coeffs() const { return Coeffs; }

  bool isConstant() const { return Coeffs.empty(); }
  bool mentions(const std::string &Name) const { return Coeffs.count(Name); }

  AffineExpr operator+(const AffineExpr &O) const;
  AffineExpr operator-(const AffineExpr &O) const;
  AffineExpr scaled(double Factor) const;

  friend bool operator==(const AffineExpr &A, const AffineExpr &B) {
    return A.Constant == B.Constant && A.Coeffs == B.Coeffs;
  }

  /// Rebuilds an AST expression for this affine form (used by the diagonal
  /// pattern rewrite). Produces c1*var+c0 shapes with clean constants.
  ExprPtr toExpr() const;

private:
  double Constant = 0.0;
  std::map<std::string, double> Coeffs; // name -> coefficient (nonzero)
};

/// An interval whose endpoints are affine expressions (used for symbolic
/// dependence disproof: j in [1, i-1] implies i - j in [1, i-1] > 0).
struct AffineInterval {
  AffineExpr Lo;
  AffineExpr Hi;

  static AffineInterval point(const AffineExpr &E) { return {E, E}; }

  AffineInterval operator+(const AffineInterval &O) const {
    return {Lo + O.Lo, Hi + O.Hi};
  }
  AffineInterval operator-(const AffineInterval &O) const {
    return {Lo - O.Hi, Hi - O.Lo};
  }
  AffineInterval scaled(double Factor) const {
    if (Factor >= 0)
      return {Lo.scaled(Factor), Hi.scaled(Factor)};
    return {Hi.scaled(Factor), Lo.scaled(Factor)};
  }
};

} // namespace mvec

#endif // MVEC_DEPS_AFFINEEXPR_H
