//===- MatrixOps.cpp - Bulk matrix kernels ---------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/MatrixOps.h"

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
  // Budget accounting is cumulative-by-design: pooled reuse charges the
  // same as a fresh allocation, so a job's measured footprint does not
  // depend on what earlier jobs left in the pool.
  chargeMemory(N * sizeof(double));
  return acquireUncharged(N);
}

std::shared_ptr<PayloadBuffer> OpWorkspace::acquireUncharged(size_t N) {
  // Best fit: the smallest pooled buffer that already holds N elements, so
  // a large buffer is not spent on a small result and reuse never
  // reallocates.
  size_t Best = Free.size();
  for (size_t I = 0; I != Free.size(); ++I)
    if (Free[I]->capacity() >= N &&
        (Best == Free.size() ||
         Free[I]->capacity() < Free[Best]->capacity()))
      Best = I;
  if (Best == Free.size())
    return std::make_shared<PayloadBuffer>(N);
  std::shared_ptr<PayloadBuffer> Buf = std::move(Free[Best]);
  Free.erase(Free.begin() + static_cast<std::ptrdiff_t>(Best));
  Buf->resize(N);
  return Buf;
}

Value OpWorkspace::dest(size_t Rows, size_t Cols) {
  if (Rows * Cols > 1)
    return Value::adoptBuffer(acquire(Rows * Cols), Rows, Cols);
  return Value(Rows, Cols);
}

std::shared_ptr<PayloadBuffer> OpWorkspace::acquireZeroed(size_t N) {
  std::shared_ptr<PayloadBuffer> Buf = acquire(N);
  std::fill(Buf->begin(), Buf->end(), 0.0);
  return Buf;
}

void OpWorkspace::recycle(Value &&V) {
  recycleBuffer(V.releaseBuffer());
}

void OpWorkspace::recycleBuffer(std::shared_ptr<PayloadBuffer> Buf) {
  if (!Buf || Buf.use_count() != 1)
    return;
  if (Free.size() < MaxPooled) {
    Free.push_back(std::move(Buf));
    return;
  }
  // A full pool keeps its largest buffers: they are the costly ones to
  // allocate again.
  auto Smallest = std::min_element(
      Free.begin(), Free.end(), [](const auto &L, const auto &R) {
        return L->capacity() < R->capacity();
      });
  if ((*Smallest)->capacity() < Buf->capacity())
    *Smallest = std::move(Buf);
}

namespace {

/// Destination value of the given shape with unspecified contents.
Value makeDest(OpWorkspace *WS, size_t R, size_t C) {
  return WS ? WS->dest(R, C) : Value(R, C);
}

/// Destination value of the given shape, zero-filled.
Value makeDestZeroed(OpWorkspace *WS, size_t R, size_t C) {
  if (WS && R * C > 1)
    return Value::adoptBuffer(WS->acquireZeroed(R * C), R, C);
  return Value(R, C);
}

double applyScalarOp(BinaryOp Op, double A, double B, OpError &Err) {
  switch (Op) {
  case BinaryOp::Add:
    return A + B;
  case BinaryOp::Sub:
    return A - B;
  case BinaryOp::Mul:
  case BinaryOp::DotMul:
    return A * B;
  case BinaryOp::Div:
  case BinaryOp::DotDiv:
    return A / B; // MATLAB yields Inf/NaN on division by zero.
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
    Err.set("short-circuit operators require scalar operands");
    return 0.0;
  }
  return 0.0;
}

/// Comparisons and elementwise logic produce MATLAB logical values.
bool producesLogical(BinaryOp Op) {
  return isElementwiseRelOp(Op);
}

/// Routes the elementwise loop to the runtime-dispatched SIMD kernel
/// table (simd::kernels()) for the operators with vector forms; Pow and
/// the short-circuit pseudo-ops keep the scalar fallback loop.
/// \p SA / \p SB are operand strides: 0 replays a scalar, 1 walks a matrix.
void ewLoop(BinaryOp Op, const double *AD, size_t SA, const double *BD,
            size_t SB, double *RD, size_t N, OpError &Err) {
  const simd::KernelTable &K = simd::kernels();
  simd::DispatchCounters &Counters = simd::dispatchCounters();
  switch (Op) {
  case BinaryOp::Add:
    countDispatch(Counters.Elementwise);
    K.EwAdd(AD, SA, BD, SB, RD, N);
    return;
  case BinaryOp::Sub:
    countDispatch(Counters.Elementwise);
    K.EwSub(AD, SA, BD, SB, RD, N);
    return;
  case BinaryOp::Mul:
  case BinaryOp::DotMul:
    countDispatch(Counters.Elementwise);
    K.EwMul(AD, SA, BD, SB, RD, N);
    return;
  case BinaryOp::Div:
  case BinaryOp::DotDiv:
    countDispatch(Counters.Elementwise);
    K.EwDiv(AD, SA, BD, SB, RD, N);
    return;
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::And:
  case BinaryOp::Or: {
    simd::CmpPred Pred;
    switch (Op) {
    case BinaryOp::Lt:
      Pred = simd::CmpPred::Lt;
      break;
    case BinaryOp::Gt:
      Pred = simd::CmpPred::Gt;
      break;
    case BinaryOp::Le:
      Pred = simd::CmpPred::Le;
      break;
    case BinaryOp::Ge:
      Pred = simd::CmpPred::Ge;
      break;
    case BinaryOp::Eq:
      Pred = simd::CmpPred::Eq;
      break;
    case BinaryOp::Ne:
      Pred = simd::CmpPred::Ne;
      break;
    case BinaryOp::And:
      Pred = simd::CmpPred::And;
      break;
    default:
      Pred = simd::CmpPred::Or;
      break;
    }
    countDispatch(Counters.Compare);
    K.EwCmp(Pred, AD, SA, BD, SB, RD, N);
    return;
  }
  default:
    for (size_t I = 0; I != N; ++I)
      RD[I] = applyScalarOp(Op, AD[I * SA], BD[I * SB], Err);
    return;
  }
}

} // namespace

Value mvec::elementwiseBinary(BinaryOp Op, const Value &A, const Value &B,
                              OpError &Err, OpWorkspace *WS) {
  size_t SA = 1, SB = 1;
  size_t R, C;
  if (A.isScalar() && !B.isScalar()) {
    SA = 0;
    R = B.rows();
    C = B.cols();
  } else if (B.isScalar() && !A.isScalar()) {
    SB = 0;
    R = A.rows();
    C = A.cols();
  } else if (A.rows() == B.rows() && A.cols() == B.cols()) {
    R = A.rows();
    C = A.cols();
  } else {
    Err.set("matrix dimensions must agree (" + std::to_string(A.rows()) +
            "x" + std::to_string(A.cols()) + " vs " +
            std::to_string(B.rows()) + "x" + std::to_string(B.cols()) + ")");
    return Value();
  }
  Value Result = makeDest(WS, R, C);
  ewLoop(Op, A.raw(), SA, B.raw(), SB, Result.mutableRaw(), R * C, Err);
  Result.setLogical(producesLogical(Op));
  return Result;
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
  size_t SA = A.isScalar() ? 0 : 1;
  size_t SB = B.isScalar() ? 0 : 1;
  size_t SC = C.isScalar() ? 0 : 1;
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
  const double *AD = A.raw(), *BD = B.raw(), *CD = C.raw();
  double *RD = Result.mutableRaw();
  size_t N = R * Cn;
  simd::FmaMode Mode = !Subtract        ? simd::FmaMode::MulAdd
                       : ProductOnLeft  ? simd::FmaMode::MulSub
                                        : simd::FmaMode::RevSub;
  const simd::KernelTable &K = simd::kernels();
  countDispatch(simd::dispatchCounters().FusedMulAdd);
  // The deadline poll stays here, between bounded chunks, so resilience
  // behavior is identical on every dispatch level; the kernel leaf itself
  // never polls or allocates.
  for (size_t I0 = 0; I0 < N; I0 += PollGrainElems) {
    if (I0 != 0 && WS && WS->poll())
      break;
    size_t I1 = std::min(I0 + PollGrainElems, N);
    K.FusedMulAdd(Mode, AD + I0 * SA, SA, BD + I0 * SB, SB, CD + I0 * SC, SC,
                  RD + I0, I1 - I0);
  }
  return Result;
}

namespace {

using MatMulTileFn = void (*)(const double *, const double *, double *,
                              size_t, size_t, size_t, size_t, size_t, size_t);

/// Inner-dimension panel lengths. The axpy tile reuses a panel of A across
/// result columns, so its panel stays cache-sized. The dot-product tiles (a
/// row-vector A, or A' * B) stream both operands along P with their
/// accumulators in registers, so their panel only bounds the work between
/// polls.
constexpr size_t AxpyPanel = 128;
constexpr size_t DotPanel = 4096;

/// C += A * B (or A' * B, by \p Tile) on raw column-major payloads,
/// blocked over the inner dimension in panels of \p PBlock. Per output
/// element the accumulation order over P is still strictly ascending —
/// identical results to the naive jki loop.
void matMulCore(MatMulTileFn Tile, size_t PBlock, const double *AD,
                const double *BD, double *RD, size_t M, size_t K, size_t N,
                OpWorkspace *WS) {
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
      Tile(AD, BD, RD, M, K, P0, P1, J0, J1);
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
  Value Result = makeDestZeroed(WS, M, N);
  if (M * N != 0)
    matMulCore(simd::kernels().MatMulTile, M == 1 ? DotPanel : AxpyPanel,
               A.raw(), B.raw(), Result.mutableRaw(), M, K, N, WS);
  return Result;
}

Value mvec::matMulTransA(const Value &A, const Value &B, OpError &Err,
                         OpWorkspace *WS) {
  if (A.rows() != B.rows()) {
    Err.set("inner matrix dimensions must agree (" +
            std::to_string(A.cols()) + "x" + std::to_string(A.rows()) +
            " * " + std::to_string(B.rows()) + "x" + std::to_string(B.cols()) +
            ")");
    return Value();
  }
  size_t M = A.cols(), K = A.rows(), N = B.cols();
  Value Result = makeDestZeroed(WS, M, N);
  if (M * N != 0)
    matMulCore(simd::kernels().MatMulTransA, DotPanel, A.raw(), B.raw(),
               Result.mutableRaw(), M, K, N, WS);
  return Result;
}

Value mvec::matMulTransB(const Value &A, const Value &B, OpError &Err,
                         OpWorkspace *WS) {
  if (A.cols() != B.cols()) {
    Err.set("inner matrix dimensions must agree (" +
            std::to_string(A.rows()) + "x" + std::to_string(A.cols()) +
            " * " + std::to_string(B.cols()) + "x" + std::to_string(B.rows()) +
            ")");
    return Value();
  }
  size_t M = A.rows(), K = A.cols(), N = B.rows();
  Value Result = makeDestZeroed(WS, M, N);
  if (M * N == 0)
    return Result;
  // Pack B' (K x N, column-major) into scratch, then run the blocked
  // kernel. The packed copy is what makes the inner loop unit-stride; the
  // scratch comes from (and returns to) the pool, so no Value temporary is
  // allocated for the transpose.
  std::shared_ptr<PayloadBuffer> Scratch;
  std::vector<double> Local;
  double *BT;
  if (WS) {
    Scratch = WS->acquire(K * N);
    BT = Scratch->data();
  } else {
    Local.resize(K * N);
    BT = Local.data();
  }
  const double *BD = B.raw();
  for (size_t J = 0; J != N; ++J)
    for (size_t P = 0; P != K; ++P)
      BT[J * K + P] = BD[P * N + J];
  matMulCore(simd::kernels().MatMulTile, M == 1 ? DotPanel : AxpyPanel,
             A.raw(), BT, Result.mutableRaw(), M, K, N, WS);
  if (Scratch)
    WS->recycleBuffer(std::move(Scratch));
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
    Value Base = A;
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

Value mvec::unaryMinus(const Value &A, OpWorkspace *WS) {
  Value Result = makeDest(WS, A.rows(), A.cols());
  countDispatch(simd::dispatchCounters().Unary);
  simd::kernels().UnaryNeg(A.raw(), Result.mutableRaw(), A.numel());
  return Result;
}

Value mvec::unaryNot(const Value &A, OpWorkspace *WS) {
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
  std::copy(A.begin(), A.end(), RD);
  std::copy(B.begin(), B.end(), RD + A.numel());
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
  for (size_t C = 0; C != A.cols(); ++C) {
    for (size_t R = 0; R != A.rows(); ++R)
      Result.at(R, C) = A.at(R, C);
    for (size_t R = 0; R != B.rows(); ++R)
      Result.at(A.rows() + R, C) = B.at(R, C);
  }
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

Value mvec::transpose(const Value &A, OpWorkspace *WS) {
  size_t Rows = A.rows(), Cols = A.cols();
  Value Result = makeDest(WS, Cols, Rows);
  const double *Src = A.raw();
  double *Dst = Result.mutableRaw();
  // Destination order: a fresh (unfilled) destination is then first
  // touched page by page; strided first touches measured ~40% slower.
  for (size_t R = 0; R != Rows; ++R)
    for (size_t C = 0; C != Cols; ++C)
      Dst[R * Cols + C] = Src[C * Rows + R];
  Result.setLogical(A.isLogical());
  return Result;
}

Value mvec::repmat(const Value &A, size_t R, size_t C, OpWorkspace *WS) {
  size_t Rows = A.rows(), Cols = A.cols();
  Value Result = makeDest(WS, Rows * R, Cols * C);
  const double *Src = A.raw();
  double *Dst = Result.mutableRaw();
  // Each destination column is R back-to-back copies of one A column.
  for (size_t BC = 0; BC != C; ++BC)
    for (size_t AC = 0; AC != Cols; ++AC)
      for (size_t BR = 0; BR != R; ++BR, Dst += Rows)
        std::copy_n(Src + AC * Rows, Rows, Dst);
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
