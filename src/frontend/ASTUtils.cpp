//===- ASTUtils.cpp - AST traversal helpers -------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/ASTUtils.h"

#include <cmath>

using namespace mvec;

bool mvec::exprEquals(const Expr &A, const Expr &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case Expr::Kind::Number:
    return cast<NumberExpr>(A).value() == cast<NumberExpr>(B).value();
  case Expr::Kind::String:
    return cast<StringExpr>(A).value() == cast<StringExpr>(B).value();
  case Expr::Kind::Ident:
    return cast<IdentExpr>(A).sym() == cast<IdentExpr>(B).sym();
  case Expr::Kind::MagicColon:
  case Expr::Kind::EndKeyword:
    return true;
  case Expr::Kind::Range: {
    const auto &RA = cast<RangeExpr>(A);
    const auto &RB = cast<RangeExpr>(B);
    if ((RA.step() == nullptr) != (RB.step() == nullptr))
      return false;
    if (RA.step() && !exprEquals(*RA.step(), *RB.step()))
      return false;
    return exprEquals(*RA.start(), *RB.start()) &&
           exprEquals(*RA.stop(), *RB.stop());
  }
  case Expr::Kind::Unary: {
    const auto &UA = cast<UnaryExpr>(A);
    const auto &UB = cast<UnaryExpr>(B);
    return UA.op() == UB.op() && exprEquals(*UA.operand(), *UB.operand());
  }
  case Expr::Kind::Binary: {
    const auto &BA = cast<BinaryExpr>(A);
    const auto &BB = cast<BinaryExpr>(B);
    return BA.op() == BB.op() && exprEquals(*BA.lhs(), *BB.lhs()) &&
           exprEquals(*BA.rhs(), *BB.rhs());
  }
  case Expr::Kind::Transpose:
    return exprEquals(*cast<TransposeExpr>(A).operand(),
                      *cast<TransposeExpr>(B).operand());
  case Expr::Kind::Index: {
    const auto &IA = cast<IndexExpr>(A);
    const auto &IB = cast<IndexExpr>(B);
    if (IA.numArgs() != IB.numArgs())
      return false;
    if (!exprEquals(*IA.base(), *IB.base()))
      return false;
    for (unsigned I = 0, E = IA.numArgs(); I != E; ++I)
      if (!exprEquals(*IA.arg(I), *IB.arg(I)))
        return false;
    return true;
  }
  case Expr::Kind::Matrix: {
    const auto &MA = cast<MatrixExpr>(A);
    const auto &MB = cast<MatrixExpr>(B);
    if (MA.rows().size() != MB.rows().size())
      return false;
    for (size_t R = 0; R != MA.rows().size(); ++R) {
      if (MA.rows()[R].size() != MB.rows()[R].size())
        return false;
      for (size_t C = 0; C != MA.rows()[R].size(); ++C)
        if (!exprEquals(*MA.rows()[R][C], *MB.rows()[R][C]))
          return false;
    }
    return true;
  }
  }
  return false;
}

void mvec::collectIdentifiers(const Expr &E, std::set<std::string> &Names) {
  visitExpr(E, [&Names](const Expr &Node) {
    if (const auto *Ident = dyn_cast<IdentExpr>(&Node))
      Names.insert(Ident->name());
  });
}

void mvec::collectIdentifiers(const Expr &E, std::set<Symbol> &Names) {
  visitExpr(E, [&Names](const Expr &Node) {
    if (const auto *Ident = dyn_cast<IdentExpr>(&Node))
      Names.insert(Ident->sym());
  });
}

bool mvec::mentionsIdentifier(const Expr &E, Symbol Name) {
  switch (E.kind()) {
  case Expr::Kind::Number:
  case Expr::Kind::String:
  case Expr::Kind::MagicColon:
  case Expr::Kind::EndKeyword:
    return false;
  case Expr::Kind::Ident:
    return cast<IdentExpr>(E).sym() == Name;
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    return mentionsIdentifier(*R.start(), Name) ||
           (R.step() && mentionsIdentifier(*R.step(), Name)) ||
           mentionsIdentifier(*R.stop(), Name);
  }
  case Expr::Kind::Unary:
    return mentionsIdentifier(*cast<UnaryExpr>(E).operand(), Name);
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    return mentionsIdentifier(*B.lhs(), Name) ||
           mentionsIdentifier(*B.rhs(), Name);
  }
  case Expr::Kind::Transpose:
    return mentionsIdentifier(*cast<TransposeExpr>(E).operand(), Name);
  case Expr::Kind::Index: {
    const auto &I = cast<IndexExpr>(E);
    if (mentionsIdentifier(*I.base(), Name))
      return true;
    for (unsigned A = 0, N = I.numArgs(); A != N; ++A)
      if (mentionsIdentifier(*I.arg(A), Name))
        return true;
    return false;
  }
  case Expr::Kind::Matrix:
    for (const auto &Row : cast<MatrixExpr>(E).rows())
      for (const ExprPtr &Elt : Row)
        if (mentionsIdentifier(*Elt, Name))
          return true;
    return false;
  }
  return false;
}

ExprPtr mvec::substituteIdentifier(ExprPtr E, Symbol Name,
                                   const Expr &Replacement,
                                   bool ReplaceBases) {
  switch (E->kind()) {
  case Expr::Kind::Number:
  case Expr::Kind::String:
  case Expr::Kind::MagicColon:
  case Expr::Kind::EndKeyword:
    return E;
  case Expr::Kind::Ident:
    if (cast<IdentExpr>(*E).sym() == Name)
      return Replacement.clone();
    return E;
  case Expr::Kind::Range: {
    auto &R = cast<RangeExpr>(*E);
    ExprPtr Start = substituteIdentifier(R.start()->clone(), Name, Replacement,
                                         ReplaceBases);
    ExprPtr Step;
    if (R.step())
      Step = substituteIdentifier(R.step()->clone(), Name, Replacement,
                                  ReplaceBases);
    ExprPtr Stop = substituteIdentifier(R.stop()->clone(), Name, Replacement,
                                        ReplaceBases);
    return std::make_unique<RangeExpr>(std::move(Start), std::move(Step),
                                       std::move(Stop), E->loc());
  }
  case Expr::Kind::Unary: {
    auto &U = cast<UnaryExpr>(*E);
    ExprPtr Operand = substituteIdentifier(U.takeOperand(), Name, Replacement,
                                           ReplaceBases);
    return std::make_unique<UnaryExpr>(U.op(), std::move(Operand), E->loc());
  }
  case Expr::Kind::Binary: {
    auto &B = cast<BinaryExpr>(*E);
    ExprPtr LHS =
        substituteIdentifier(B.takeLHS(), Name, Replacement, ReplaceBases);
    ExprPtr RHS =
        substituteIdentifier(B.takeRHS(), Name, Replacement, ReplaceBases);
    return std::make_unique<BinaryExpr>(B.op(), std::move(LHS), std::move(RHS),
                                        E->loc());
  }
  case Expr::Kind::Transpose: {
    auto &T = cast<TransposeExpr>(*E);
    ExprPtr Operand = substituteIdentifier(T.takeOperand(), Name, Replacement,
                                           ReplaceBases);
    return std::make_unique<TransposeExpr>(std::move(Operand), E->loc());
  }
  case Expr::Kind::Index: {
    auto &I = cast<IndexExpr>(*E);
    ExprPtr Base = I.base()->clone();
    if (ReplaceBases || !isa<IdentExpr>(Base.get()))
      Base = substituteIdentifier(std::move(Base), Name, Replacement,
                                  ReplaceBases);
    std::vector<ExprPtr> Args;
    Args.reserve(I.numArgs());
    for (ExprPtr &A : I.args())
      Args.push_back(substituteIdentifier(std::move(A), Name, Replacement,
                                          ReplaceBases));
    return std::make_unique<IndexExpr>(std::move(Base), std::move(Args),
                                       E->loc());
  }
  case Expr::Kind::Matrix: {
    auto &M = cast<MatrixExpr>(*E);
    std::vector<MatrixExpr::Row> Rows;
    Rows.reserve(M.rows().size());
    for (MatrixExpr::Row &Row : M.rows()) {
      MatrixExpr::Row NewRow;
      NewRow.reserve(Row.size());
      for (ExprPtr &Elt : Row)
        NewRow.push_back(substituteIdentifier(std::move(Elt), Name,
                                              Replacement, ReplaceBases));
      Rows.push_back(std::move(NewRow));
    }
    return std::make_unique<MatrixExpr>(std::move(Rows), E->loc());
  }
  }
  return E;
}

bool mvec::evaluateConstant(const Expr &E, double &Value) {
  static const std::map<Symbol, double> NoConstants;
  return evaluateConstantWith(E, NoConstants, Value);
}

bool mvec::evaluateConstantWith(const Expr &E,
                                const std::map<Symbol, double> &Constants,
                                double &Value) {
  switch (E.kind()) {
  case Expr::Kind::Number:
    Value = cast<NumberExpr>(E).value();
    return true;
  case Expr::Kind::Ident: {
    auto It = Constants.find(cast<IdentExpr>(E).sym());
    if (It == Constants.end())
      return false;
    Value = It->second;
    return true;
  }
  case Expr::Kind::Unary: {
    const auto &U = cast<UnaryExpr>(E);
    double Inner = 0;
    if (!evaluateConstantWith(*U.operand(), Constants, Inner))
      return false;
    switch (U.op()) {
    case UnaryOp::Plus:
      Value = Inner;
      return true;
    case UnaryOp::Minus:
      Value = -Inner;
      return true;
    case UnaryOp::Not:
      return false;
    }
    return false;
  }
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    double L = 0, R = 0;
    if (!evaluateConstantWith(*B.lhs(), Constants, L) ||
        !evaluateConstantWith(*B.rhs(), Constants, R))
      return false;
    switch (B.op()) {
    case BinaryOp::Add:
      Value = L + R;
      return true;
    case BinaryOp::Sub:
      Value = L - R;
      return true;
    case BinaryOp::Mul:
    case BinaryOp::DotMul:
      Value = L * R;
      return true;
    case BinaryOp::Div:
    case BinaryOp::DotDiv:
      if (R == 0)
        return false;
      Value = L / R;
      return true;
    case BinaryOp::Pow:
    case BinaryOp::DotPow:
      Value = std::pow(L, R);
      return true;
    default:
      return false;
    }
  }
  default:
    return false;
  }
}

bool mvec::mentionsEndKeyword(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::EndKeyword:
    return true;
  case Expr::Kind::Number:
  case Expr::Kind::String:
  case Expr::Kind::Ident:
  case Expr::Kind::MagicColon:
    return false;
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    return mentionsEndKeyword(*R.start()) ||
           (R.step() && mentionsEndKeyword(*R.step())) ||
           mentionsEndKeyword(*R.stop());
  }
  case Expr::Kind::Unary:
    return mentionsEndKeyword(*cast<UnaryExpr>(E).operand());
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    return mentionsEndKeyword(*B.lhs()) || mentionsEndKeyword(*B.rhs());
  }
  case Expr::Kind::Transpose:
    return mentionsEndKeyword(*cast<TransposeExpr>(E).operand());
  case Expr::Kind::Index:
    // 'end' inside a nested subscript binds to that subscript.
    return mentionsEndKeyword(*cast<IndexExpr>(E).base());
  case Expr::Kind::Matrix:
    for (const auto &Row : cast<MatrixExpr>(E).rows())
      for (const ExprPtr &Elt : Row)
        if (mentionsEndKeyword(*Elt))
          return true;
    return false;
  }
  return false;
}
