//===- ASTUtils.h - AST traversal helpers -----------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural equality, identifier collection and identifier substitution
/// over expressions — the building blocks of the rewriting passes.
///
/// The visitors are templates so the per-node callback inlines instead of
/// going through a std::function thunk; profiles showed the thunk dispatch
/// dominating the cold compile path.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_FRONTEND_ASTUTILS_H
#define MVEC_FRONTEND_ASTUTILS_H

#include "frontend/AST.h"

#include <map>
#include <set>
#include <string>

namespace mvec {

/// Structural (syntactic) equality of two expressions. Source locations are
/// ignored. Used e.g. to recognize the accumulator occurrence A(J) on the
/// right-hand side of an additive-reduction statement.
bool exprEquals(const Expr &A, const Expr &B);

namespace detail {

template <typename Fn> void visitExprImpl(const Expr &E, Fn &F) {
  F(E);
  switch (E.kind()) {
  case Expr::Kind::Number:
  case Expr::Kind::String:
  case Expr::Kind::Ident:
  case Expr::Kind::MagicColon:
  case Expr::Kind::EndKeyword:
    return;
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    visitExprImpl(*R.start(), F);
    if (R.step())
      visitExprImpl(*R.step(), F);
    visitExprImpl(*R.stop(), F);
    return;
  }
  case Expr::Kind::Unary:
    visitExprImpl(*cast<UnaryExpr>(E).operand(), F);
    return;
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    visitExprImpl(*B.lhs(), F);
    visitExprImpl(*B.rhs(), F);
    return;
  }
  case Expr::Kind::Transpose:
    visitExprImpl(*cast<TransposeExpr>(E).operand(), F);
    return;
  case Expr::Kind::Index: {
    const auto &I = cast<IndexExpr>(E);
    visitExprImpl(*I.base(), F);
    for (unsigned A = 0, N = I.numArgs(); A != N; ++A)
      visitExprImpl(*I.arg(A), F);
    return;
  }
  case Expr::Kind::Matrix:
    for (const auto &Row : cast<MatrixExpr>(E).rows())
      for (const ExprPtr &Elt : Row)
        visitExprImpl(*Elt, F);
    return;
  }
}

template <typename Fn>
void visitStmtsImpl(const std::vector<StmtPtr> &Body, Fn &F) {
  for (const StmtPtr &S : Body) {
    F(*S);
    if (const auto *For = dyn_cast<ForStmt>(S.get()))
      visitStmtsImpl(For->body(), F);
    else if (const auto *While = dyn_cast<WhileStmt>(S.get()))
      visitStmtsImpl(While->body(), F);
    else if (const auto *If = dyn_cast<IfStmt>(S.get()))
      for (const IfStmt::Branch &B : If->branches())
        visitStmtsImpl(B.Body, F);
  }
}

} // namespace detail

/// Visits every expression node of \p E in pre-order.
template <typename Fn> void visitExpr(const Expr &E, Fn &&F) {
  detail::visitExprImpl(E, F);
}

/// Visits every statement in \p Body recursively (including nested loop and
/// branch bodies) in source order.
template <typename Fn>
void visitStmts(const std::vector<StmtPtr> &Body, Fn &&F) {
  detail::visitStmtsImpl(Body, F);
}

/// Collects every identifier occurring in \p E (including index-expression
/// base names) into \p Names.
void collectIdentifiers(const Expr &E, std::set<std::string> &Names);

/// Interned-symbol variant of collectIdentifiers.
void collectIdentifiers(const Expr &E, std::set<Symbol> &Names);

/// True if identifier \p Name occurs anywhere in \p E. The Symbol overload
/// pointer-compares and stops at the first hit.
bool mentionsIdentifier(const Expr &E, Symbol Name);
inline bool mentionsIdentifier(const Expr &E, const std::string &Name) {
  return mentionsIdentifier(E, internSymbol(Name));
}

/// Replaces every free occurrence of identifier \p Name in \p E with a clone
/// of \p Replacement, returning the rewritten expression. Occurrences as an
/// IndexExpr base are not replaced (a(i): the 'a' is a variable being
/// indexed, not a scalar use) unless \p ReplaceBases is set.
ExprPtr substituteIdentifier(ExprPtr E, Symbol Name, const Expr &Replacement,
                             bool ReplaceBases = false);
inline ExprPtr substituteIdentifier(ExprPtr E, const std::string &Name,
                                    const Expr &Replacement,
                                    bool ReplaceBases = false) {
  return substituteIdentifier(std::move(E), internSymbol(Name), Replacement,
                              ReplaceBases);
}

/// Evaluates \p E as a compile-time numeric constant. Returns true and sets
/// \p Value on success. Handles numbers, unary +/- and the four arithmetic
/// binary operators on constants.
bool evaluateConstant(const Expr &E, double &Value);

/// Like evaluateConstant, but additionally resolves plain identifiers
/// through \p Constants (name -> known numeric value).
bool evaluateConstantWith(const Expr &E,
                          const std::map<Symbol, double> &Constants,
                          double &Value);

/// True when \p E contains an 'end' keyword belonging to the *current*
/// subscript — 'end' inside a nested subscript (A(B(end))) binds to the
/// nested one and is not counted.
bool mentionsEndKeyword(const Expr &E);

} // namespace mvec

#endif // MVEC_FRONTEND_ASTUTILS_H
