//===- Builtins.cpp - MATLAB builtin functions -----------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Builtins.h"

#include "interp/Interpreter.h"
#include "interp/MatrixOps.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

using namespace mvec;

namespace {

using ArgList = std::vector<Value>;
using BuiltinFn =
    std::function<Value(Interpreter &, const ArgList &, SourceLoc)>;

bool requireArgs(Interpreter &Interp, const ArgList &Args, size_t Min,
                 size_t Max, const char *Name, SourceLoc Loc) {
  if (Args.size() >= Min && Args.size() <= Max)
    return true;
  Interp.fail(Loc, std::string("wrong number of arguments to '") + Name +
                       "'");
  return false;
}

bool requireScalar(Interpreter &Interp, const Value &V, const char *Name,
                   SourceLoc Loc) {
  if (V.isScalar())
    return true;
  Interp.fail(Loc, std::string("argument to '") + Name +
                       "' must be a scalar");
  return false;
}

/// True when size argument \p D is a finite nonnegative integer; else
/// fails. Inf passes D == floor(D), so finiteness is checked apart.
bool checkSize(Interpreter &Interp, double D, const char *Name,
               SourceLoc Loc) {
  if (std::isfinite(D) && D >= 0 && D == std::floor(D))
    return true;
  Interp.fail(Loc, std::string("size argument to '") + Name +
                       "' must be a nonnegative integer");
  return false;
}

/// Reads size argument \p V (a scalar) into \p D.
bool sizeArg(Interpreter &Interp, const Value &V, double &D, const char *Name,
             SourceLoc Loc) {
  if (!requireScalar(Interp, V, Name, Loc))
    return false;
  D = V.scalarValue();
  return checkSize(Interp, D, Name, Loc);
}

/// Casts checked sizes \p R x \p C to extents once the array is within
/// Interpreter::MaxArrayBytes (failing as growShape does), so no cast is
/// undefined and no allocation throws.
bool toShape(Interpreter &Interp, double R, double C, size_t &Rows,
             size_t &Cols, SourceLoc Loc) {
  if (!Interp.checkArraySize(R, C, Loc))
    return false;
  Rows = static_cast<size_t>(R);
  Cols = static_cast<size_t>(C);
  return true;
}

/// The sizes of zeros(n), zeros(r, c) and their kin (1x1 without any).
bool sizeArgs(Interpreter &Interp, const ArgList &Args, size_t &Rows,
              size_t &Cols, const char *Name, SourceLoc Loc) {
  double R = 1, C = 1;
  if (!Args.empty()) {
    if (!sizeArg(Interp, Args[0], R, Name, Loc))
      return false;
    C = R;
    if (Args.size() >= 2 && !sizeArg(Interp, Args[1], C, Name, Loc))
      return false;
  }
  return toShape(Interp, R, C, Rows, Cols, Loc);
}

/// \p A as a double (not logical) value: a sum or cumsum along a
/// dimension past the second, where every element is its own sum.
Value asDouble(const Value &A) {
  Value Result = A;
  Result.setLogical(false);
  return Result;
}

Value mapUnary(const Value &A, double (*Fn)(double)) {
  Value Result(A.rows(), A.cols());
  for (size_t I = 0, E = A.numel(); I != E; ++I)
    Result.linear(I) = Fn(A.linear(I));
  return Result;
}

/// min/max with MATLAB's two forms: reduce(v) and elementwise(a, b).
Value minMax(Interpreter &Interp, const ArgList &Args, SourceLoc Loc,
             bool IsMin) {
  const char *Name = IsMin ? "min" : "max";
  if (!requireArgs(Interp, Args, 1, 2, Name, Loc))
    return Value();
  auto Pick = [IsMin](double A, double B) {
    if (std::isnan(A))
      return B;
    if (std::isnan(B))
      return A;
    return IsMin ? std::fmin(A, B) : std::fmax(A, B);
  };
  if (Args.size() == 2) {
    const Value &A = Args[0], &B = Args[1];
    if (A.isScalar() || B.isScalar() ||
        (A.rows() == B.rows() && A.cols() == B.cols())) {
      size_t R = A.isScalar() ? B.rows() : A.rows();
      size_t C = A.isScalar() ? B.cols() : A.cols();
      Value Result(R, C);
      for (size_t I = 0, E = Result.numel(); I != E; ++I) {
        double AV = A.isScalar() ? A.scalarValue() : A.linear(I);
        double BV = B.isScalar() ? B.scalarValue() : B.linear(I);
        Result.linear(I) = Pick(AV, BV);
      }
      return Result;
    }
    Interp.fail(Loc, "matrix dimensions must agree");
    return Value();
  }
  const Value &A = Args[0];
  if (A.isEmpty())
    return Value();
  if (A.isVector()) {
    double Best = A.linear(0);
    for (size_t I = 1, E = A.numel(); I != E; ++I)
      Best = Pick(Best, A.linear(I));
    return Value::scalar(Best);
  }
  Value Result(1, A.cols());
  for (size_t C = 0; C != A.cols(); ++C) {
    double Best = A.at(0, C);
    for (size_t R = 1; R != A.rows(); ++R)
      Best = Pick(Best, A.at(R, C));
    Result.at(0, C) = Best;
  }
  return Result;
}

Value doFprintf(Interpreter &Interp, const ArgList &Args, SourceLoc Loc) {
  if (Args.empty()) {
    Interp.fail(Loc, "fprintf requires a format string");
    return Value();
  }
  std::string Fmt;
  for (double Code : Args[0])
    Fmt += static_cast<char>(Code);

  // Flatten the remaining arguments into one stream of scalars, MATLAB
  // style (format recycling is not needed by our examples).
  std::vector<double> Pool;
  for (size_t A = 1; A < Args.size(); ++A)
    for (double D : Args[A])
      Pool.push_back(D);
  size_t Next = 0;

  std::string Out;
  for (size_t I = 0; I < Fmt.size(); ++I) {
    char C = Fmt[I];
    if (C == '\\' && I + 1 < Fmt.size()) {
      char N = Fmt[++I];
      if (N == 'n')
        Out += '\n';
      else if (N == 't')
        Out += '\t';
      else
        Out += N;
      continue;
    }
    if (C != '%') {
      Out += C;
      continue;
    }
    if (I + 1 >= Fmt.size())
      break;
    // Parse a conversion: %[flags][width][.prec]letter
    std::string Spec = "%";
    ++I;
    while (I < Fmt.size() && (std::isdigit(Fmt[I]) || Fmt[I] == '.' ||
                              Fmt[I] == '-' || Fmt[I] == '+'))
      Spec += Fmt[I++];
    if (I >= Fmt.size())
      break;
    char Conv = Fmt[I];
    if (Conv == '%') {
      Out += '%';
      continue;
    }
    double Arg = Next < Pool.size() ? Pool[Next++] : 0.0;
    char Buf[64];
    switch (Conv) {
    case 'd':
    case 'i':
      std::snprintf(Buf, sizeof(Buf), (Spec + "lld").c_str(),
                    static_cast<long long>(Arg));
      break;
    case 'f':
    case 'e':
    case 'g':
      std::snprintf(Buf, sizeof(Buf), (Spec + Conv).c_str(), Arg);
      break;
    default:
      Interp.fail(Loc, std::string("unsupported fprintf conversion '%") +
                           Conv + "'");
      return Value();
    }
    Out += Buf;
  }
  Interp.appendOutput(Out);
  return Value::scalar(static_cast<double>(Out.size()));
}

/// Dense dispatch table plus a name -> id index. IDs are assigned in sorted
/// name order (the construction goes through a std::map once, at startup),
/// so ids are stable within a build.
struct BuiltinRegistry {
  std::vector<std::pair<std::string, BuiltinFn>> Entries;
  std::unordered_map<std::string, BuiltinId> Index;
  /// Per entry: reads only argument shapes, so views pass unmaterialized.
  std::vector<bool> ShapeOnly;
};

const BuiltinRegistry &registry() {
  static const BuiltinRegistry Reg = [] {
    std::map<std::string, BuiltinFn> T;

    T["size"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 2, "size", Loc))
        return Value();
      const Value &A = Args[0];
      if (Args.size() == 2) {
        if (!requireScalar(Interp, Args[1], "size", Loc))
          return Value();
        double Dim = Args[1].scalarValue();
        if (Dim == 1)
          return Value::scalar(static_cast<double>(A.rows()));
        if (Dim == 2)
          return Value::scalar(static_cast<double>(A.cols()));
        return Value::scalar(1.0); // trailing singleton dimensions
      }
      Value Result(1, 2);
      Result.linear(0) = static_cast<double>(A.rows());
      Result.linear(1) = static_cast<double>(A.cols());
      return Result;
    };

    T["numel"] = [](Interpreter &Interp, const ArgList &Args,
                    SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "numel", Loc))
        return Value();
      return Value::scalar(static_cast<double>(Args[0].numel()));
    };

    T["length"] = [](Interpreter &Interp, const ArgList &Args,
                     SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "length", Loc))
        return Value();
      return Value::scalar(static_cast<double>(
          std::max(Args[0].rows(), Args[0].cols())));
    };

    T["isempty"] = [](Interpreter &Interp, const ArgList &Args,
                      SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "isempty", Loc))
        return Value();
      return Value::scalar(Args[0].isEmpty() ? 1.0 : 0.0);
    };

    auto MakeFilled = [](double Fill, const char *Name, bool Logical) {
      return [Fill, Name, Logical](Interpreter &Interp, const ArgList &Args,
                                   SourceLoc Loc) -> Value {
        size_t R, C;
        if (!sizeArgs(Interp, Args, R, C, Name, Loc))
          return Value();
        Value V(R, C, Fill);
        V.setLogical(Logical);
        return V;
      };
    };
    T["zeros"] = MakeFilled(0.0, "zeros/ones", false);
    T["ones"] = MakeFilled(1.0, "zeros/ones", false);
    T["true"] = MakeFilled(1.0, "true/false", true);
    T["false"] = MakeFilled(0.0, "true/false", true);

    T["eye"] = [](Interpreter &Interp, const ArgList &Args,
                  SourceLoc Loc) -> Value {
      size_t N, M;
      if (!sizeArgs(Interp, Args, N, M, "eye", Loc))
        return Value();
      Value Result(N, M);
      for (size_t I = 0; I < N && I < M; ++I)
        Result.at(I, I) = 1.0;
      return Result;
    };

    T["rand"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      size_t R, C;
      if (!sizeArgs(Interp, Args, R, C, "rand", Loc))
        return Value();
      Value Result(R, C);
      for (size_t I = 0, E = Result.numel(); I != E; ++I)
        Result.linear(I) = Interp.nextRandom();
      return Result;
    };

    T["reshape"] = [](Interpreter &Interp, const ArgList &Args,
                      SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 3, 3, "reshape", Loc))
        return Value();
      double RD, CD;
      size_t R, C;
      if (!sizeArg(Interp, Args[1], RD, "reshape", Loc) ||
          !sizeArg(Interp, Args[2], CD, "reshape", Loc) ||
          !toShape(Interp, RD, CD, R, C, Loc))
        return Value();
      if (R * C != Args[0].numel()) {
        Interp.fail(Loc, "reshape must preserve the number of elements");
        return Value();
      }
      Value Result = Args[0];
      Result.reshapeTo(R, C);
      return Result;
    };

    T["repmat"] = [](Interpreter &Interp, const ArgList &Args,
                     SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 2, 3, "repmat", Loc))
        return Value();
      double R, C;
      if (Args.size() == 3) {
        if (!sizeArg(Interp, Args[1], R, "repmat", Loc) ||
            !sizeArg(Interp, Args[2], C, "repmat", Loc))
          return Value();
      } else {
        // repmat(X, [r c]) or repmat(X, n).
        const Value &Spec = Args[1];
        if (Spec.isScalar()) {
          if (!sizeArg(Interp, Spec, R, "repmat", Loc))
            return Value();
          C = R;
        } else if (Spec.numel() == 2) {
          R = Spec.linear(0);
          C = Spec.linear(1);
          if (!checkSize(Interp, R, "repmat", Loc) ||
              !checkSize(Interp, C, "repmat", Loc))
            return Value();
        } else {
          Interp.fail(Loc, "invalid repmat replication specification");
          return Value();
        }
      }
      // The replication counts, then the result, within the array limit.
      const Value &X = Args[0];
      size_t Rows, Cols;
      if (!toShape(Interp, R, C, Rows, Cols, Loc) ||
          !Interp.checkArraySize(static_cast<double>(X.rows()) * R,
                                 static_cast<double>(X.cols()) * C, Loc))
        return Value();
      return repmat(X, Rows, Cols, &Interp.pool());
    };

    T["sum"] = [](Interpreter &Interp, const ArgList &Args,
                  SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 2, "sum", Loc))
        return Value();
      if (Args.size() == 2) {
        unsigned Dim;
        if (!reductionDim(Interp, Args[1], "sum", Loc, Dim))
          return Value();
        return Dim > 2 ? asDouble(Args[0]) : sumAlong(Args[0], Dim);
      }
      return sumDefault(Args[0]);
    };

    T["cumsum"] = [](Interpreter &Interp, const ArgList &Args,
                     SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 2, "cumsum", Loc))
        return Value();
      if (Args.size() == 2) {
        unsigned Dim;
        if (!reductionDim(Interp, Args[1], "cumsum", Loc, Dim))
          return Value();
        return Dim > 2 ? asDouble(Args[0]) : cumsumAlong(Args[0], Dim);
      }
      return cumsumDefault(Args[0]);
    };

    T["prod"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "prod", Loc))
        return Value();
      return prodDefault(Args[0]);
    };

    T["min"] = [](Interpreter &Interp, const ArgList &Args, SourceLoc Loc) {
      return minMax(Interp, Args, Loc, /*IsMin=*/true);
    };
    T["max"] = [](Interpreter &Interp, const ArgList &Args, SourceLoc Loc) {
      return minMax(Interp, Args, Loc, /*IsMin=*/false);
    };

    auto MakeMap = [](double (*Fn)(double), const char *Name) {
      return [Fn, Name](Interpreter &Interp, const ArgList &Args,
                        SourceLoc Loc) -> Value {
        if (!requireArgs(Interp, Args, 1, 1, Name, Loc))
          return Value();
        return mapUnary(Args[0], Fn);
      };
    };
    T["abs"] = MakeMap([](double X) { return std::fabs(X); }, "abs");
    T["sqrt"] = MakeMap([](double X) { return std::sqrt(X); }, "sqrt");
    T["cos"] = MakeMap([](double X) { return std::cos(X); }, "cos");
    T["sin"] = MakeMap([](double X) { return std::sin(X); }, "sin");
    T["tan"] = MakeMap([](double X) { return std::tan(X); }, "tan");
    T["exp"] = MakeMap([](double X) { return std::exp(X); }, "exp");
    T["log"] = MakeMap([](double X) { return std::log(X); }, "log");
    T["floor"] = MakeMap([](double X) { return std::floor(X); }, "floor");
    T["ceil"] = MakeMap([](double X) { return std::ceil(X); }, "ceil");
    T["round"] = MakeMap([](double X) { return std::round(X); }, "round");
    T["fix"] = MakeMap([](double X) { return std::trunc(X); }, "fix");

    T["mod"] = [](Interpreter &Interp, const ArgList &Args,
                  SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 2, 2, "mod", Loc))
        return Value();
      if (Args[0].isScalar() && Args[1].isScalar()) {
        double A = Args[0].scalarValue(), B = Args[1].scalarValue();
        return Value::scalar(B == 0.0 ? A : A - std::floor(A / B) * B);
      }
      OpError Err;
      Value Quot = elementwiseBinary(BinaryOp::DotDiv, Args[0], Args[1], Err);
      if (Err.failed()) {
        Interp.fail(Loc, Err.Message);
        return Value();
      }
      Value Result(Quot.rows(), Quot.cols());
      for (size_t I = 0, E = Quot.numel(); I != E; ++I) {
        double A = Args[0].isScalar() ? Args[0].scalarValue()
                                      : Args[0].linear(I);
        double B = Args[1].isScalar() ? Args[1].scalarValue()
                                      : Args[1].linear(I);
        Result.linear(I) = B == 0.0 ? A : A - std::floor(A / B) * B;
      }
      return Result;
    };

    T["hist"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 2, "hist", Loc))
        return Value();
      Value Centers;
      if (Args.size() == 2) {
        Centers = Args[1];
      } else {
        OpError RangeErr;
        Centers = makeRange(1, 1, 10, RangeErr); // MATLAB default: 10 bins
      }
      OpError Err;
      Value Result = histCounts(Args[0], Centers, Err);
      if (Err.failed())
        Interp.fail(Loc, Err.Message);
      return Result;
    };

    T["diag"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "diag", Loc))
        return Value();
      const Value &A = Args[0];
      if (A.isVector()) {
        size_t N = A.numel();
        Value Result(N, N);
        for (size_t I = 0; I != N; ++I)
          Result.at(I, I) = A.linear(I);
        return Result;
      }
      size_t N = std::min(A.rows(), A.cols());
      Value Result(N, 1);
      for (size_t I = 0; I != N; ++I)
        Result.at(I, 0) = A.at(I, I);
      return Result;
    };

    T["linspace"] = [](Interpreter &Interp, const ArgList &Args,
                       SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 2, 3, "linspace", Loc))
        return Value();
      if (!requireScalar(Interp, Args[0], "linspace", Loc) ||
          !requireScalar(Interp, Args[1], "linspace", Loc))
        return Value();
      double Count = 100;
      size_t One, N;
      if ((Args.size() == 3 &&
           !sizeArg(Interp, Args[2], Count, "linspace", Loc)) ||
          !toShape(Interp, 1, Count, One, N, Loc))
        return Value();
      double A = Args[0].scalarValue(), B = Args[1].scalarValue();
      Value Result(1, N);
      for (size_t I = 0; I != N; ++I)
        Result.linear(I) =
            N == 1 ? B : A + (B - A) * static_cast<double>(I) /
                                 static_cast<double>(N - 1);
      return Result;
    };

    T["transpose"] = [](Interpreter &Interp, const ArgList &Args,
                        SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "transpose", Loc))
        return Value();
      return transpose(Args[0]);
    };

    T["mean"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "mean", Loc))
        return Value();
      const Value &A = Args[0];
      if (A.isEmpty()) {
        Interp.fail(Loc, "mean of an empty value");
        return Value();
      }
      if (A.isVector()) {
        Value S = sumDefault(A);
        return Value::scalar(S.scalarValue() /
                             static_cast<double>(A.numel()));
      }
      Value S = sumAlong(A, 1);
      for (size_t I = 0, E = S.numel(); I != E; ++I)
        S.linear(I) /= static_cast<double>(A.rows());
      return S;
    };

    T["logical"] = [](Interpreter &Interp, const ArgList &Args,
                      SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "logical", Loc))
        return Value();
      Value V(Args[0].rows(), Args[0].cols());
      for (size_t I = 0, E = Args[0].numel(); I != E; ++I)
        V.linear(I) = Args[0].linear(I) != 0.0 ? 1.0 : 0.0;
      V.setLogical(true);
      return V;
    };
    T["islogical"] = [](Interpreter &Interp, const ArgList &Args,
                        SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "islogical", Loc))
        return Value();
      return Value::scalar(Args[0].isLogical() ? 1.0 : 0.0);
    };
    T["double"] = [](Interpreter &Interp, const ArgList &Args,
                     SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "double", Loc))
        return Value();
      Value V = Args[0];
      V.setLogical(false);
      return V;
    };

    T["find"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "find", Loc))
        return Value();
      const Value &A = Args[0];
      std::vector<double> Indices;
      for (size_t I = 0, E = A.numel(); I != E; ++I)
        if (A.linear(I) != 0.0)
          Indices.push_back(static_cast<double>(I + 1));
      // find on a row vector yields a row; otherwise a column.
      return Value::vector(std::move(Indices), /*Row=*/A.isRow());
    };

    T["any"] = [](Interpreter &Interp, const ArgList &Args,
                  SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "any", Loc))
        return Value();
      const Value &A = Args[0];
      if (A.isVector() || A.isEmpty()) {
        for (double D : A)
          if (D != 0.0)
            return Value::scalar(1.0);
        return Value::scalar(0.0);
      }
      Value R(1, A.cols());
      for (size_t C = 0; C != A.cols(); ++C)
        for (size_t Row = 0; Row != A.rows(); ++Row)
          if (A.at(Row, C) != 0.0) {
            R.at(0, C) = 1.0;
            break;
          }
      return R;
    };

    T["all"] = [](Interpreter &Interp, const ArgList &Args,
                  SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "all", Loc))
        return Value();
      const Value &A = Args[0];
      if (A.isVector() || A.isEmpty()) {
        for (double D : A)
          if (D == 0.0)
            return Value::scalar(0.0);
        return Value::scalar(1.0);
      }
      Value R(1, A.cols(), 1.0);
      for (size_t C = 0; C != A.cols(); ++C)
        for (size_t Row = 0; Row != A.rows(); ++Row)
          if (A.at(Row, C) == 0.0) {
            R.at(0, C) = 0.0;
            break;
          }
      return R;
    };

    T["nnz"] = [](Interpreter &Interp, const ArgList &Args,
                  SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "nnz", Loc))
        return Value();
      double Count = 0;
      for (double D : Args[0])
        if (D != 0.0)
          Count += 1;
      return Value::scalar(Count);
    };

    T["norm"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "norm", Loc))
        return Value();
      if (!Args[0].isVector() && !Args[0].isEmpty()) {
        Interp.fail(Loc, "norm supports vectors only");
        return Value();
      }
      double Acc = 0;
      for (double D : Args[0])
        Acc += D * D;
      return Value::scalar(std::sqrt(Acc));
    };

    T["dot"] = [](Interpreter &Interp, const ArgList &Args,
                  SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 2, 2, "dot", Loc))
        return Value();
      if (!Args[0].isVector() || !Args[1].isVector() ||
          Args[0].numel() != Args[1].numel()) {
        Interp.fail(Loc, "dot requires equal-length vectors");
        return Value();
      }
      double Acc = 0;
      for (size_t I = 0, E = Args[0].numel(); I != E; ++I)
        Acc += Args[0].linear(I) * Args[1].linear(I);
      return Value::scalar(Acc);
    };

    T["fliplr"] = [](Interpreter &Interp, const ArgList &Args,
                     SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "fliplr", Loc))
        return Value();
      const Value &A = Args[0];
      Value R(A.rows(), A.cols());
      for (size_t C = 0; C != A.cols(); ++C)
        for (size_t Row = 0; Row != A.rows(); ++Row)
          R.at(Row, C) = A.at(Row, A.cols() - 1 - C);
      R.setLogical(A.isLogical());
      return R;
    };

    T["flipud"] = [](Interpreter &Interp, const ArgList &Args,
                     SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "flipud", Loc))
        return Value();
      const Value &A = Args[0];
      Value R(A.rows(), A.cols());
      for (size_t C = 0; C != A.cols(); ++C)
        for (size_t Row = 0; Row != A.rows(); ++Row)
          R.at(Row, C) = A.at(A.rows() - 1 - Row, C);
      R.setLogical(A.isLogical());
      return R;
    };

    T["disp"] = [](Interpreter &Interp, const ArgList &Args,
                   SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "disp", Loc))
        return Value();
      Interp.appendOutput(Args[0].str() + "\n");
      return Value();
    };

    T["fprintf"] = doFprintf;

    T["pause"] = [](Interpreter &Interp, const ArgList &Args,
                    SourceLoc Loc) -> Value {
      if (!requireArgs(Interp, Args, 1, 1, "pause", Loc))
        return Value();
      if (!requireScalar(Interp, Args[0], "pause", Loc))
        return Value();
      double Secs = Args[0].scalarValue();
      if (!(Secs >= 0)) {
        Interp.fail(Loc, "argument to 'pause' must be nonnegative");
        return Value();
      }
      // Sleep in short slices so a deadline or batch cancellation
      // interrupts the wait promptly instead of after the full duration.
      auto End = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(Secs));
      while (!Interp.checkInterrupt(Loc)) {
        auto Now = std::chrono::steady_clock::now();
        if (Now >= End)
          break;
        std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
            End - Now, std::chrono::milliseconds(1)));
      }
      return Value();
    };

    BuiltinRegistry R;
    R.Entries.reserve(T.size());
    for (auto &[Name, Fn] : T) {
      R.Index.emplace(Name, static_cast<BuiltinId>(R.Entries.size()));
      R.ShapeOnly.push_back(Name == "size" || Name == "numel" ||
                            Name == "length" || Name == "isempty" ||
                            Name == "islogical");
      R.Entries.emplace_back(Name, std::move(Fn));
    }
    return R;
  }();
  return Reg;
}

} // namespace

bool mvec::reductionDim(Interpreter &Interp, const Value &Dim,
                        const char *Name, SourceLoc Loc, unsigned &Out) {
  if (!requireScalar(Interp, Dim, Name, Loc))
    return false;
  double D = Dim.scalarValue();
  if (!std::isfinite(D) || D < 1.0 || D != std::floor(D)) {
    Interp.fail(Loc, std::string("dimension argument to '") + Name +
                         "' must be a positive integer");
    return false;
  }
  Out = D > 2.0 ? 3 : static_cast<unsigned>(D);
  return true;
}

BuiltinId mvec::builtinIdFor(const std::string &Name) {
  const BuiltinRegistry &R = registry();
  auto It = R.Index.find(Name);
  return It == R.Index.end() ? InvalidBuiltinId : It->second;
}

Value mvec::callBuiltin(Interpreter &Interp, BuiltinId Id,
                        std::vector<Value> &Args, SourceLoc Loc) {
  const BuiltinRegistry &R = registry();
  assert(Id >= 0 && static_cast<size_t>(Id) < R.Entries.size() &&
         "invalid builtin id");
  for (Value &A : Args) {
    if (R.ShapeOnly[Id])
      chargeMemory(A.owedBytes()); // read as a transpose would have been
    else
      A.materialize();
  }
  return R.Entries[Id].second(Interp, Args, Loc);
}
