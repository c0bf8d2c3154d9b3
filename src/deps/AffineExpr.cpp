//===- AffineExpr.cpp - Affine index expressions ---------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/AffineExpr.h"

#include <cmath>

using namespace mvec;

std::optional<AffineExpr> AffineExpr::fromExpr(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Number:
    return AffineExpr(cast<NumberExpr>(E).value());
  case Expr::Kind::Ident:
    return AffineExpr::variable(cast<IdentExpr>(E).name());
  case Expr::Kind::Unary: {
    const auto &U = cast<UnaryExpr>(E);
    auto Inner = fromExpr(*U.operand());
    if (!Inner)
      return std::nullopt;
    switch (U.op()) {
    case UnaryOp::Plus:
      return Inner;
    case UnaryOp::Minus:
      return Inner->scaled(-1.0);
    case UnaryOp::Not:
      return std::nullopt;
    }
    return std::nullopt;
  }
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    auto L = fromExpr(*B.lhs());
    auto R = fromExpr(*B.rhs());
    if (!L || !R)
      return std::nullopt;
    switch (B.op()) {
    case BinaryOp::Add:
      return *L + *R;
    case BinaryOp::Sub:
      return *L - *R;
    case BinaryOp::Mul:
    case BinaryOp::DotMul:
      if (L->isConstant())
        return R->scaled(L->constant());
      if (R->isConstant())
        return L->scaled(R->constant());
      return std::nullopt;
    case BinaryOp::Div:
    case BinaryOp::DotDiv:
      if (R->isConstant() && R->constant() != 0.0)
        return L->scaled(1.0 / R->constant());
      return std::nullopt;
    default:
      return std::nullopt;
    }
  }
  default:
    return std::nullopt;
  }
}

AffineExpr AffineExpr::operator+(const AffineExpr &O) const {
  AffineExpr Result = *this;
  Result.Constant += O.Constant;
  for (const auto &[Name, Coeff] : O.Coeffs) {
    double &Slot = Result.Coeffs[Name];
    Slot += Coeff;
    if (Slot == 0.0)
      Result.Coeffs.erase(Name);
  }
  return Result;
}

AffineExpr AffineExpr::operator-(const AffineExpr &O) const {
  return *this + O.scaled(-1.0);
}

AffineExpr AffineExpr::scaled(double Factor) const {
  AffineExpr Result;
  if (Factor == 0.0)
    return Result;
  Result.Constant = Constant * Factor;
  for (const auto &[Name, Coeff] : Coeffs)
    Result.Coeffs[Name] = Coeff * Factor;
  return Result;
}

ExprPtr AffineExpr::toExpr() const {
  ExprPtr Result;
  auto Append = [&Result](ExprPtr Term, bool Negative) {
    if (!Result) {
      Result = Negative ? makeUnary(UnaryOp::Minus, std::move(Term))
                        : std::move(Term);
      return;
    }
    Result = makeBinary(Negative ? BinaryOp::Sub : BinaryOp::Add,
                        std::move(Result), std::move(Term));
  };

  for (const auto &[Name, Coeff] : Coeffs) {
    double Abs = std::fabs(Coeff);
    ExprPtr Term = Abs == 1.0
                       ? makeIdent(Name)
                       : makeBinary(BinaryOp::Mul, makeNumber(Abs),
                                    makeIdent(Name));
    Append(std::move(Term), Coeff < 0);
  }
  if (Constant != 0.0 || !Result)
    Append(makeNumber(std::fabs(Constant)), Constant < 0);
  return Result;
}
