//===- MatrixOps.cpp - Bulk matrix kernels ---------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/MatrixOps.h"

#include "interp/ScalarOps.h"
#include "interp/simd/SimdDispatch.h"
#include "resilience/ResourceGovernor.h"

#include <algorithm>
#include <cmath>

using namespace mvec;

namespace {
// Shorthand for the relaxed dispatch-counter bumps at each kernel call
// site (one bump per kernel invocation, not per element).
inline void countDispatch(std::atomic<uint64_t> &C) {
  C.fetch_add(1, std::memory_order_relaxed);
}
} // namespace

namespace {
/// Elements of kernel arithmetic between poll-hook checks. Small enough
/// that a deadline lands within tens of microseconds even on a slow
/// machine, large enough that the poll is free on the profiles the
/// benchmarks measure.
constexpr size_t PollGrainElems = 32768;
} // namespace

//===----------------------------------------------------------------------===//
// OpWorkspace
//===----------------------------------------------------------------------===//

std::shared_ptr<PayloadBuffer> OpWorkspace::acquire(size_t N) {
  chargeMemory(N * sizeof(double));
  return std::make_shared<PayloadBuffer>(N);
}

Value OpWorkspace::dest(size_t Rows, size_t Cols) {
  if (Rows * Cols > 1)
    return Value::adoptBuffer(acquire(Rows * Cols), Rows, Cols);
  return Value(Rows, Cols);
}

namespace {

/// Destination value of the given shape with unspecified contents.
Value makeDest(OpWorkspace *WS, size_t R, size_t C) {
  return WS ? WS->dest(R, C) : Value(R, C);
}

/// \p A itself when its layout is dense, else a dense copy in \p Tmp (the
/// operand form of the kernels without strides), paying what A owes.
const Value &plain(const Value &A, Value &Tmp) {
  chargeMemory(A.isView() ? A.copyBytes() : A.owedBytes());
  if (!A.isView())
    return A;
  auto Buf = std::make_shared<PayloadBuffer>(A.numel());
  A.copyTo(Buf->data());
  Tmp = Value::adoptBuffer(std::move(Buf), A.rows(), A.cols());
  return Tmp;
}

/// An operand of an R x C result: element (r, c) at P[r * RS + c * CS]
/// (steps 0 replay a scalar).
struct Walk {
  const double *P;
  size_t RS, CS;
};

/// The walk of elementwise operand \p V, paying what it owes: reading a
/// transpose in place stands for the copy it used to make.
Walk walkOf(const Value &V) {
  if (V.isScalar())
    return {V.data(), 0, 0};
  chargeMemory(V.owedBytes());
  return {V.data(), V.rowStep(), V.colStep()};
}

/// True when \p W visits an R x C operand in column-major order at one
/// constant stride (W.RS), so one kernel call covers it.
bool isLinear(const Walk &W, size_t R, size_t C) {
  return C <= 1 || W.CS == W.RS * R;
}

/// Comparisons and elementwise logic produce MATLAB logical values.
bool producesLogical(BinaryOp Op) {
  return isElementwiseRelOp(Op);
}

/// Routes the elementwise loop over an R x C result to the runtime-
/// dispatched SIMD kernel table (simd::kernels()) for the operators with
/// vector forms; Pow and the short-circuit pseudo-ops keep the scalar
/// fallback loop. One kernel call covers operands that walk linearly,
/// else one call per column, each with its operands' row steps as
/// strides. The dispatch counter counts the operation once.
void ewLoop(BinaryOp Op, Walk A, Walk B, double *RD, size_t R, size_t C,
            OpError &Err) {
  const simd::KernelTable &K = simd::kernels();
  simd::DispatchCounters &Counters = simd::dispatchCounters();
  using EwFn = void (*)(const double *, size_t, const double *, size_t,
                        double *, size_t);
  EwFn Fn = nullptr;
  switch (Op) {
  case BinaryOp::Add:
    Fn = K.EwAdd;
    break;
  case BinaryOp::Sub:
    Fn = K.EwSub;
    break;
  case BinaryOp::Mul:
  case BinaryOp::DotMul:
    Fn = K.EwMul;
    break;
  case BinaryOp::Div:
  case BinaryOp::DotDiv:
    Fn = K.EwDiv;
    break;
  default:
    break;
  }
  // The comparison and logic operators list in CmpPred's order.
  constexpr int CmpBase = static_cast<int>(BinaryOp::Lt);
  static_assert(static_cast<int>(BinaryOp::Or) - CmpBase ==
                static_cast<int>(simd::CmpPred::Or));
  auto Pred = static_cast<simd::CmpPred>(static_cast<int>(Op) - CmpBase);
  bool IsCmp = isElementwiseRelOp(Op);
  if (Fn)
    countDispatch(Counters.Elementwise);
  else if (IsCmp)
    countDispatch(Counters.Compare);
  if ((Op == BinaryOp::AndAnd || Op == BinaryOp::OrOr) && R * C != 0)
    Err.set("short-circuit operators require scalar operands");
  size_t Cols = C, N = R;
  if (isLinear(A, R, C) && isLinear(B, R, C)) {
    Cols = C == 0 ? 0 : 1;
    N = R * C;
  }
  for (size_t J = 0; J != Cols; ++J) {
    const double *AD = A.P + J * A.CS, *BD = B.P + J * B.CS;
    double *Out = RD + J * R;
    if (Fn)
      Fn(AD, A.RS, BD, B.RS, Out, N);
    else if (IsCmp)
      K.EwCmp(Pred, AD, A.RS, BD, B.RS, Out, N);
    else
      for (size_t I = 0; I != N; ++I)
        Out[I] = scalarBinary(Op, AD[I * A.RS], BD[I * B.RS]);
  }
}

} // namespace

namespace {

/// The R x C result shape of elementwise A op B under MATLAB scalar
/// expansion, or false with the mismatch reported in \p Err.
bool elementwiseShape(const Value &A, const Value &B, size_t &R, size_t &C,
                      OpError &Err) {
  if (A.isScalar() && !B.isScalar()) {
    R = B.rows();
    C = B.cols();
  } else if (B.isScalar() && !A.isScalar()) {
    R = A.rows();
    C = A.cols();
  } else if (A.rows() == B.rows() && A.cols() == B.cols()) {
    R = A.rows();
    C = A.cols();
  } else {
    Err.set("matrix dimensions must agree (" + std::to_string(A.rows()) +
            "x" + std::to_string(A.cols()) + " vs " +
            std::to_string(B.rows()) + "x" + std::to_string(B.cols()) + ")");
    return false;
  }
  return true;
}

} // namespace

Value mvec::elementwiseBinary(BinaryOp Op, const Value &A, const Value &B,
                              OpError &Err, OpWorkspace *WS) {
  size_t R, C;
  if (!elementwiseShape(A, B, R, C, Err))
    return Value();
  Value Result = makeDest(WS, R, C);
  Walk WA = walkOf(A), WB = walkOf(B);
  ewLoop(Op, WA, WB, Result.mutableRaw(), R, C, Err);
  Result.setLogical(producesLogical(Op));
  return Result;
}

bool mvec::pendingProduct(const Value &A, const Value &B, PendingProduct &P,
                          OpError &Err) {
  if (!elementwiseShape(A, B, P.Rows, P.Cols, Err))
    return false;
  // elementwiseBinary's charges, in its order: the destination, then what
  // each operand owes for being read in place.
  if (P.Rows * P.Cols > 1)
    chargeMemory(P.Rows * P.Cols * sizeof(double));
  Walk WA = walkOf(A), WB = walkOf(B);
  P.A = WA.P;
  P.B = WB.P;
  P.ARS = WA.RS;
  P.ACS = WA.CS;
  P.BRS = WB.RS;
  P.BCS = WB.CS;
  return true;
}

Value mvec::sumOfProducts(const PendingProduct &P, unsigned Dim) {
  assert((Dim == 1 || Dim == 2) && "sum of products along dim 1 or 2");
  size_t R = P.Rows, C = P.Cols;
  if (R * C == 0)
    return Dim == 1 ? Value(1, C, 0.0) : Value(R, 1, 0.0);
  countDispatch(simd::dispatchCounters().Reduce);
  const simd::KernelTable &K = simd::kernels();
  // Dim 1 runs each chain down a column (lanes are columns); dim 2 runs it
  // along a row (lanes are rows).
  if (Dim == 1) {
    Value Result(1, C);
    K.DotReduce(P.A, P.ARS, P.ACS, P.B, P.BRS, P.BCS, Result.mutableRaw(), R,
                C);
    return Result;
  }
  Value Result(R, 1);
  K.DotReduce(P.A, P.ACS, P.ARS, P.B, P.BCS, P.BRS, Result.mutableRaw(), C, R);
  return Result;
}

Value mvec::buildProduct(const PendingProduct &P) {
  // pendingProduct paid for this buffer.
  auto Buf = std::make_shared<PayloadBuffer>(P.Rows * P.Cols);
  OpError Err;
  ewLoop(BinaryOp::DotMul, {P.A, P.ARS, P.ACS}, {P.B, P.BRS, P.BCS},
         Buf->data(), P.Rows, P.Cols, Err);
  return Value::adoptBuffer(std::move(Buf), P.Rows, P.Cols);
}

bool mvec::fusableMulAddShapes(const Value &A, const Value &B,
                               const Value &C) {
  // Step 1: T = A .* B must conform.
  size_t TR, TC;
  if (A.isScalar()) {
    TR = B.rows();
    TC = B.cols();
  } else if (B.isScalar()) {
    TR = A.rows();
    TC = A.cols();
  } else if (A.rows() == B.rows() && A.cols() == B.cols()) {
    TR = A.rows();
    TC = A.cols();
  } else {
    return false;
  }
  // Step 2: T +/- C must conform.
  bool TScalar = TR == 1 && TC == 1;
  return TScalar || C.isScalar() || (C.rows() == TR && C.cols() == TC);
}

Value mvec::fusedMulAdd(const Value &A, const Value &B, const Value &C,
                        bool Subtract, bool ProductOnLeft, OpWorkspace *WS) {
  // Result shape: the widest operand (fusableMulAddShapes guarantees all
  // non-scalars agree).
  size_t R = 1, Cn = 1;
  for (const Value *V : {&A, &B, &C})
    if (!V->isScalar()) {
      R = V->rows();
      Cn = V->cols();
      break;
    }
  Value Result = makeDest(WS, R, Cn);
  Walk WA = walkOf(A), WB = walkOf(B), WC = walkOf(C);
  double *RD = Result.mutableRaw();
  // One linear pass when every operand allows it, else one per column.
  size_t Cols = Cn, N = R;
  if (isLinear(WA, R, Cn) && isLinear(WB, R, Cn) && isLinear(WC, R, Cn)) {
    Cols = 1;
    N = R * Cn;
  }
  simd::FmaMode Mode = !Subtract        ? simd::FmaMode::MulAdd
                       : ProductOnLeft  ? simd::FmaMode::MulSub
                                        : simd::FmaMode::RevSub;
  const simd::KernelTable &K = simd::kernels();
  countDispatch(simd::dispatchCounters().FusedMulAdd);
  // The deadline poll stays here, between bounded chunks, so resilience
  // behavior is identical on every dispatch level; the kernel leaf itself
  // never polls or allocates.
  size_t SincePoll = 0;
  for (size_t J = 0; J != Cols; ++J) {
    const double *AD = WA.P + J * WA.CS, *BD = WB.P + J * WB.CS,
                 *CD = WC.P + J * WC.CS;
    double *Out = RD + J * R;
    for (size_t I0 = 0; I0 < N; I0 += PollGrainElems) {
      if (SincePoll >= PollGrainElems) {
        SincePoll = 0;
        if (WS && WS->poll())
          return Result;
      }
      size_t I1 = std::min(I0 + PollGrainElems, N);
      K.FusedMulAdd(Mode, AD + I0 * WA.RS, WA.RS, BD + I0 * WB.RS, WB.RS,
                    CD + I0 * WC.RS, WC.RS, Out + I0, I1 - I0);
      SincePoll += I1 - I0;
    }
  }
  return Result;
}

namespace {

using MatMulTileFn = decltype(simd::KernelTable::MatMulTile);

/// Inner-dimension panel lengths. The axpy tile reuses a panel of A across
/// result columns, so its panel stays cache-sized. The dot-product tiles (a
/// row-vector A, or A' * B) stream both operands along P with their
/// accumulators in registers, so their panel only bounds the work between
/// polls.
constexpr size_t AxpyPanel = 128;
constexpr size_t DotPanel = 4096;

/// C += A * B (or A' * B, by \p Tile) on column-major operands with
/// leading dimensions \p Lda and \p Ldb, blocked over the inner dimension
/// in panels of \p PBlock. Per output element the accumulation order over
/// P is still strictly ascending — identical results to the naive jki loop.
void matMulCore(MatMulTileFn Tile, size_t PBlock, const double *AD,
                size_t Lda, const double *BD, size_t Ldb, double *RD,
                size_t M, size_t K, size_t N, OpWorkspace *WS) {
  // Column tile matching the kernels' register blocking: 4 result columns
  // held in accumulators across a P panel, 8 for a row-vector A.
  size_t JTile = M == 1 ? 8 : 4;
  countDispatch(simd::dispatchCounters().MatMul);
  // Accumulated multiply-adds since the last interrupt poll; an O(M*K*N)
  // product can run for seconds, far past any deadline, without this. The
  // poll lives here between tile calls — never inside the kernel leaf —
  // so every dispatch level has identical resilience behavior.
  size_t SincePoll = 0;
  for (size_t P0 = 0; P0 < K; P0 += PBlock) {
    size_t P1 = std::min(P0 + PBlock, K);
    for (size_t J0 = 0; J0 < N; J0 += JTile) {
      size_t J1 = std::min(J0 + JTile, N);
      if (SincePoll >= PollGrainElems) {
        SincePoll = 0;
        if (WS && WS->poll())
          return;
      }
      SincePoll += (P1 - P0) * M * (J1 - J0);
      Tile(AD, Lda, BD, Ldb, RD, M, P0, P1, J0, J1);
    }
  }
}

} // namespace

Value mvec::matMul(const Value &A, const Value &B, OpError &Err,
                   OpWorkspace *WS) {
  if (A.cols() != B.rows()) {
    Err.set("inner matrix dimensions must agree (" +
            std::to_string(A.rows()) + "x" + std::to_string(A.cols()) +
            " * " + std::to_string(B.rows()) + "x" + std::to_string(B.cols()) +
            ")");
    return Value();
  }
  size_t M = A.rows(), K = A.cols(), N = B.cols();
  Value Result(M, N);
  if (M * N == 0)
    return Result;
  // A packed operand pays its copy unless prepaid; B pays the transpose it
  // owes, A only when B owes one too (the product never copied A' * B).
  PayloadBuffer APack, BPack;
  const double *BD = B.data();
  size_t Ldb = B.colStep();
  if (B.rowStep() == 1) {
    chargeMemory(B.owedBytes());
  } else {
    chargeMemory(B.copyBytes());
    BPack.resize(K * N);
    B.copyTo(BPack.data());
    BD = BPack.data();
    Ldb = K;
  }
  if (B.owedBytes() != 0)
    chargeMemory(A.owedBytes());
  const simd::KernelTable &Kern = simd::kernels();
  MatMulTileFn Tile = Kern.MatMulTile;
  const double *AD = A.data();
  size_t Lda = A.colStep();
  if (M == 1 ? A.isView() : A.rowStep() != 1) {
    if (M != 1 && A.colStep() == 1) {
      Tile = Kern.MatMulTransA;
      Lda = A.rowStep();
    } else {
      chargeMemory(A.copyBytes() - A.owedBytes());
      APack.resize(M * K);
      A.copyTo(APack.data());
      AD = APack.data();
      Lda = M;
    }
  }
  bool Dot = M == 1 || Tile == Kern.MatMulTransA;
  matMulCore(Tile, Dot ? DotPanel : AxpyPanel, AD, Lda, BD, Ldb,
             Result.mutableRaw(), M, K, N, WS);
  return Result;
}

Value mvec::mulOp(const Value &A, const Value &B, OpError &Err,
                  OpWorkspace *WS) {
  if (A.isScalar() || B.isScalar())
    return elementwiseBinary(BinaryOp::DotMul, A, B, Err, WS);
  return matMul(A, B, Err, WS);
}

Value mvec::divOp(const Value &A, const Value &B, OpError &Err,
                  OpWorkspace *WS) {
  if (B.isScalar())
    return elementwiseBinary(BinaryOp::DotDiv, A, B, Err, WS);
  Err.set("matrix right division is only supported with a scalar divisor");
  return Value();
}

Value mvec::powOp(const Value &A, const Value &B, OpError &Err) {
  if (A.isScalar() && B.isScalar())
    return Value::scalar(std::pow(A.scalarValue(), B.scalarValue()));
  if (B.isScalar()) {
    double E = B.scalarValue();
    if (A.rows() != A.cols()) {
      Err.set("matrix power requires a square matrix");
      return Value();
    }
    if (E != std::floor(E) || E < 0) {
      Err.set("matrix power supports nonnegative integer exponents only");
      return Value();
    }
    // Identity.
    Value Result(A.rows(), A.cols());
    for (size_t I = 0; I != A.rows(); ++I)
      Result.at(I, I) = 1.0;
    Value Tmp;
    Value Base = plain(A, Tmp);
    auto Exp = static_cast<unsigned long long>(E);
    while (Exp != 0 && !Err.failed()) {
      if (Exp & 1)
        Result = matMul(Result, Base, Err);
      Exp >>= 1;
      if (Exp)
        Base = matMul(Base, Base, Err);
    }
    return Result;
  }
  Err.set("unsupported '^' operand shapes");
  return Value();
}

Value mvec::unaryMinus(const Value &Operand, OpWorkspace *WS) {
  Value Tmp;
  const Value &A = plain(Operand, Tmp);
  Value Result = makeDest(WS, A.rows(), A.cols());
  countDispatch(simd::dispatchCounters().Unary);
  simd::kernels().UnaryNeg(A.raw(), Result.mutableRaw(), A.numel());
  return Result;
}

Value mvec::unaryNot(const Value &Operand, OpWorkspace *WS) {
  Value Tmp;
  const Value &A = plain(Operand, Tmp);
  Value Result = makeDest(WS, A.rows(), A.cols());
  countDispatch(simd::dispatchCounters().Unary);
  simd::kernels().UnaryNot(A.raw(), Result.mutableRaw(), A.numel());
  Result.setLogical(true);
  return Result;
}

Value mvec::makeRange(double Start, double Step, double Stop, OpError &Err) {
  if (Step == 0.0) {
    Err.set("range step must be nonzero");
    return Value();
  }
  if (!std::isfinite(Start) || !std::isfinite(Step) ||
      !std::isfinite(Stop)) {
    // A NaN/Inf count would be cast to size_t below, which is undefined
    // behavior, not merely a huge allocation.
    Err.set("range endpoints must be finite");
    return Value();
  }
  double CountF = std::floor((Stop - Start) / Step + 1e-10) + 1.0;
  if (CountF < 1.0)
    return Value(1, 0); // empty row
  if (CountF > 1e9) {
    Err.set("range is too large");
    return Value();
  }
  auto Count = static_cast<size_t>(CountF);
  Value Result(1, Count);
  double *RD = Result.mutableRaw();
  for (size_t I = 0; I != Count; ++I)
    RD[I] = Start + static_cast<double>(I) * Step;
  return Result;
}

Value mvec::horzcat(const Value &A, const Value &B, OpError &Err) {
  if (A.isEmpty())
    return B;
  if (B.isEmpty())
    return A;
  if (A.rows() != B.rows()) {
    Err.set("horizontal concatenation requires equal row counts");
    return Value();
  }
  Value Result(A.rows(), A.cols() + B.cols());
  double *RD = Result.mutableRaw();
  chargeMemory(A.owedBytes() + B.owedBytes());
  A.copyTo(RD);
  B.copyTo(RD + A.numel());
  Result.setLogical(A.isLogical() && B.isLogical());
  return Result;
}

Value mvec::vertcat(const Value &A, const Value &B, OpError &Err) {
  if (A.isEmpty())
    return B;
  if (B.isEmpty())
    return A;
  if (A.cols() != B.cols()) {
    Err.set("vertical concatenation requires equal column counts");
    return Value();
  }
  Value Result(A.rows() + B.rows(), A.cols());
  chargeMemory(A.owedBytes() + B.owedBytes());
  double *RD = Result.mutableRaw();
  for (size_t C = 0; C != A.cols(); ++C) {
    for (size_t R = 0; R != A.rows(); ++R)
      *RD++ = A.at(R, C);
    for (size_t R = 0; R != B.rows(); ++R)
      *RD++ = B.at(R, C);
  }
  Result.setLogical(A.isLogical() && B.isLogical());
  return Result;
}

Value mvec::sumAlong(const Value &A, unsigned Dim) {
  if (A.isEmpty())
    return Dim == 1 ? Value(1, A.cols(), 0.0) : Value(A.rows(), 1, 0.0);
  countDispatch(simd::dispatchCounters().Reduce);
  if (Dim == 1) {
    Value Result(1, A.cols());
    simd::kernels().ColSums(A.raw(), A.rows(), A.cols(), Result.mutableRaw());
    return Result;
  }
  Value Result(A.rows(), 1);
  simd::kernels().RowSums(A.raw(), A.rows(), A.cols(), Result.mutableRaw());
  return Result;
}

Value mvec::sumDefault(const Value &A) {
  if (A.isVector()) {
    double Acc = 0;
    for (double D : A)
      Acc += D;
    return Value::scalar(Acc);
  }
  return sumAlong(A, 1);
}

Value mvec::cumsumAlong(const Value &A, unsigned Dim) {
  Value Result(A.rows(), A.cols());
  if (A.isEmpty())
    return Result;
  countDispatch(simd::dispatchCounters().Cumsum);
  if (Dim == 1)
    simd::kernels().CumsumDim1(A.raw(), A.rows(), A.cols(),
                               Result.mutableRaw());
  else
    simd::kernels().CumsumDim2(A.raw(), A.rows(), A.cols(),
                               Result.mutableRaw());
  return Result;
}

Value mvec::cumsumDefault(const Value &A) {
  if (A.isRow())
    return cumsumAlong(A, 2);
  return cumsumAlong(A, 1);
}

Value mvec::prodDefault(const Value &A) {
  if (A.isVector()) {
    double Acc = 1;
    for (double D : A)
      Acc *= D;
    return Value::scalar(Acc);
  }
  if (A.isEmpty())
    return Value(1, A.cols(), 1.0);
  countDispatch(simd::dispatchCounters().Reduce);
  Value Result(1, A.cols());
  simd::kernels().ColProds(A.raw(), A.rows(), A.cols(), Result.mutableRaw());
  return Result;
}

Value mvec::transpose(const Value &A) {
  if (A.numel() > 1) {
    chargeMemory(A.owedBytes());
    return A.view(A.cols(), A.rows(), 0, A.colStep(), A.rowStep(),
                  /*Owed=*/true);
  }
  Value Result(A.cols(), A.rows(), A.isEmpty() ? 0.0 : A.scalarValue());
  Result.setLogical(A.isLogical());
  return Result;
}

Value mvec::repmat(const Value &A, size_t R, size_t C, OpWorkspace *WS) {
  size_t Rows = A.rows(), Cols = A.cols();
  // A column repeated across columns, or a row down rows, is an O(1)
  // broadcast view: the repeated axis has step 0. It is charged as the
  // copy it stands for.
  if (A.numel() > 1 && ((Cols == 1 && R == 1 && C > 1) ||
                        (Rows == 1 && C == 1 && R > 1))) {
    chargeMemory(A.numel() * R * C * sizeof(double));
    return Cols == 1 ? A.view(Rows, C, 0, A.rowStep(), 0, /*Owed=*/false)
                     : A.view(R, Cols, 0, 0, A.colStep(), /*Owed=*/false);
  }
  Value Result = makeDest(WS, Rows * R, Cols * C);
  const double *Src = A.raw();
  double *Dst = Result.mutableRaw();
  // Each destination column is R back-to-back copies of one A column.
  for (size_t BC = 0; BC != C; ++BC)
    for (size_t AC = 0; AC != Cols; ++AC)
      for (size_t BR = 0; BR != R; ++BR, Dst += Rows)
        std::copy_n(Src + AC * Rows, Rows, Dst);
  Result.setLogical(A.isLogical());
  return Result;
}

Value mvec::histCounts(const Value &X, const Value &Centers, OpError &Err) {
  if (!Centers.isVector() || Centers.isEmpty()) {
    Err.set("hist requires a nonempty vector of bin centers");
    return Value();
  }
  size_t NumBins = Centers.numel();
  Value Counts(1, NumBins);
  // Edges midway between consecutive centers; the outer bins catch
  // everything beyond (MATLAB hist semantics).
  for (double Sample : X) {
    if (std::isnan(Sample))
      continue;
    size_t Bin = 0;
    while (Bin + 1 < NumBins) {
      double Edge =
          0.5 * (Centers.linear(Bin) + Centers.linear(Bin + 1));
      if (Sample < Edge)
        break;
      ++Bin;
    }
    Counts.linear(Bin) += 1.0;
  }
  return Counts;
}
