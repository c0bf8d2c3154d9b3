//===- MatrixOpsTest.cpp - Bulk kernel unit tests ---------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/MatrixOps.h"

#include "interp/simd/SimdDispatch.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

using namespace mvec;

namespace {

Value rowOf(std::initializer_list<double> Elems) {
  return Value::vector(std::vector<double>(Elems), /*Row=*/true);
}

Value colOf(std::initializer_list<double> Elems) {
  return Value::vector(std::vector<double>(Elems), /*Row=*/false);
}

Value mat2x2(double A, double B, double C, double D) {
  Value M(2, 2);
  M.at(0, 0) = A;
  M.at(0, 1) = B;
  M.at(1, 0) = C;
  M.at(1, 1) = D;
  return M;
}

TEST(ValueTest, ColumnMajorLayout) {
  Value M = mat2x2(1, 2, 3, 4);
  EXPECT_DOUBLE_EQ(M.linear(0), 1);
  EXPECT_DOUBLE_EQ(M.linear(1), 3); // down the first column
  EXPECT_DOUBLE_EQ(M.linear(2), 2);
  EXPECT_DOUBLE_EQ(M.linear(3), 4);
}

TEST(ValueTest, Predicates) {
  EXPECT_TRUE(Value().isEmpty());
  EXPECT_TRUE(Value::scalar(5).isScalar());
  EXPECT_TRUE(rowOf({1, 2}).isRow());
  EXPECT_TRUE(colOf({1, 2}).isColumn());
  EXPECT_TRUE(rowOf({1, 2}).isVector());
  EXPECT_FALSE(mat2x2(1, 2, 3, 4).isVector());
}

TEST(ValueTest, TransposeRoundTrip) {
  Value M = mat2x2(1, 2, 3, 4);
  Value T = transpose(M);
  EXPECT_DOUBLE_EQ(T.at(0, 1), 3);
  EXPECT_TRUE(M.equals(transpose(T)));
}

TEST(ValueTest, GrowPreservesAndZeroFills) {
  Value M = mat2x2(1, 2, 3, 4);
  M.growTo(3, 4);
  EXPECT_EQ(M.rows(), 3u);
  EXPECT_EQ(M.cols(), 4u);
  EXPECT_DOUBLE_EQ(M.at(1, 1), 4);
  EXPECT_DOUBLE_EQ(M.at(2, 3), 0);
}

TEST(ValueTest, GrowNeverShrinks) {
  Value M(3, 3, 7.0);
  M.growTo(1, 5);
  EXPECT_EQ(M.rows(), 3u);
  EXPECT_EQ(M.cols(), 5u);
}

TEST(ValueTest, EqualsWithTolerance) {
  Value A = Value::scalar(1.0);
  Value B = Value::scalar(1.0 + 1e-12);
  EXPECT_FALSE(A.equals(B));
  EXPECT_TRUE(A.equals(B, 1e-9));
  EXPECT_FALSE(A.equals(Value::scalar(2), 1e-9));
  EXPECT_FALSE(A.equals(rowOf({1, 1})));
}

TEST(ValueTest, NanEqualsNan) {
  Value A = Value::scalar(std::nan(""));
  Value B = Value::scalar(std::nan(""));
  EXPECT_TRUE(A.equals(B));
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().isTrue());
  EXPECT_TRUE(Value::scalar(1).isTrue());
  EXPECT_FALSE(Value::scalar(0).isTrue());
  EXPECT_TRUE(rowOf({1, 2, 3}).isTrue());
  EXPECT_FALSE(rowOf({1, 0, 3}).isTrue());
}

TEST(ElementwiseTest, ScalarExpansion) {
  OpError Err;
  Value R = elementwiseBinary(BinaryOp::Add, Value::scalar(10),
                              rowOf({1, 2, 3}), Err);
  ASSERT_FALSE(Err.failed());
  EXPECT_DOUBLE_EQ(R.linear(2), 13);
  Value R2 = elementwiseBinary(BinaryOp::Sub, rowOf({1, 2, 3}),
                               Value::scalar(1), Err);
  EXPECT_DOUBLE_EQ(R2.linear(0), 0);
}

TEST(ElementwiseTest, ShapeMismatchReported) {
  OpError Err;
  elementwiseBinary(BinaryOp::Add, rowOf({1, 2}), rowOf({1, 2, 3}), Err);
  EXPECT_TRUE(Err.failed());
}

TEST(ElementwiseTest, RowPlusColumnRejected) {
  // MATLAB 7 semantics: no implicit broadcasting.
  OpError Err;
  elementwiseBinary(BinaryOp::Add, rowOf({1, 2}), colOf({1, 2}), Err);
  EXPECT_TRUE(Err.failed());
}

TEST(ElementwiseTest, ComparisonsAndLogic) {
  OpError Err;
  Value R = elementwiseBinary(BinaryOp::Lt, rowOf({1, 5}), rowOf({3, 3}),
                              Err);
  EXPECT_DOUBLE_EQ(R.linear(0), 1);
  EXPECT_DOUBLE_EQ(R.linear(1), 0);
  Value A = elementwiseBinary(BinaryOp::And, rowOf({1, 0}), rowOf({2, 2}),
                              Err);
  EXPECT_DOUBLE_EQ(A.linear(0), 1);
  EXPECT_DOUBLE_EQ(A.linear(1), 0);
}

TEST(MatMulTest, Basic) {
  OpError Err;
  Value C = matMul(mat2x2(1, 2, 3, 4), mat2x2(5, 6, 7, 8), Err);
  ASSERT_FALSE(Err.failed());
  EXPECT_DOUBLE_EQ(C.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 50);
}

TEST(MatMulTest, InnerMismatch) {
  OpError Err;
  matMul(Value(2, 3), Value(2, 3), Err);
  EXPECT_TRUE(Err.failed());
}

TEST(MatMulTest, RowTimesColumnIsScalar) {
  OpError Err;
  Value D = matMul(rowOf({1, 2, 3}), colOf({4, 5, 6}), Err);
  ASSERT_FALSE(Err.failed());
  EXPECT_TRUE(D.isScalar());
  EXPECT_DOUBLE_EQ(D.scalarValue(), 32);
}

TEST(MatMulTest, OuterProduct) {
  OpError Err;
  Value O = matMul(colOf({1, 2}), rowOf({3, 4}), Err);
  EXPECT_EQ(O.rows(), 2u);
  EXPECT_EQ(O.cols(), 2u);
  EXPECT_DOUBLE_EQ(O.at(1, 1), 8);
}

TEST(MulOpTest, ScalarShortcut) {
  OpError Err;
  Value R = mulOp(Value::scalar(2), mat2x2(1, 2, 3, 4), Err);
  EXPECT_DOUBLE_EQ(R.at(1, 1), 8);
}

TEST(PowOpTest, MatrixPower) {
  OpError Err;
  Value M = mat2x2(1, 1, 0, 1);
  Value R = powOp(M, Value::scalar(3), Err);
  ASSERT_FALSE(Err.failed());
  EXPECT_DOUBLE_EQ(R.at(0, 1), 3);
  Value I = powOp(M, Value::scalar(0), Err);
  EXPECT_DOUBLE_EQ(I.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(I.at(0, 1), 0);
}

TEST(PowOpTest, NonSquareRejected) {
  OpError Err;
  powOp(Value(2, 3), Value::scalar(2), Err);
  EXPECT_TRUE(Err.failed());
}

TEST(RangeTest, Construction) {
  OpError Err;
  EXPECT_EQ(makeRange(1, 1, 5, Err).numel(), 5u);
  EXPECT_EQ(makeRange(2, 2, 10, Err).numel(), 5u);
  EXPECT_EQ(makeRange(10, -2, 5, Err).numel(), 3u);
  EXPECT_EQ(makeRange(5, 1, 1, Err).numel(), 0u);
  EXPECT_FALSE(Err.failed());
  makeRange(1, 0, 5, Err);
  EXPECT_TRUE(Err.failed());
}

TEST(RangeTest, NonDivisibleStopsShort) {
  OpError Err;
  Value R = makeRange(1, 2, 6, Err); // 1 3 5
  ASSERT_EQ(R.numel(), 3u);
  EXPECT_DOUBLE_EQ(R.linear(2), 5);
}

TEST(ConcatTest, HorzVert) {
  OpError Err;
  Value H = horzcat(rowOf({1, 2}), rowOf({3}), Err);
  EXPECT_EQ(H.cols(), 3u);
  Value V = vertcat(rowOf({1, 2}), rowOf({3, 4}), Err);
  EXPECT_EQ(V.rows(), 2u);
  EXPECT_DOUBLE_EQ(V.at(1, 0), 3);
  EXPECT_FALSE(Err.failed());
  vertcat(rowOf({1, 2}), rowOf({1, 2, 3}), Err);
  EXPECT_TRUE(Err.failed());
}

TEST(ConcatTest, EmptyIsNeutral) {
  OpError Err;
  Value R = horzcat(Value(), rowOf({1, 2}), Err);
  EXPECT_EQ(R.numel(), 2u);
  Value V = vertcat(colOf({1}), Value(), Err);
  EXPECT_EQ(V.numel(), 1u);
}

TEST(ReduceTest, SumVariants) {
  Value M = mat2x2(1, 2, 3, 4);
  Value Cols = sumAlong(M, 1);
  EXPECT_DOUBLE_EQ(Cols.at(0, 0), 4);
  EXPECT_DOUBLE_EQ(Cols.at(0, 1), 6);
  Value Rows = sumAlong(M, 2);
  EXPECT_DOUBLE_EQ(Rows.at(0, 0), 3);
  EXPECT_DOUBLE_EQ(Rows.at(1, 0), 7);
  EXPECT_DOUBLE_EQ(sumDefault(rowOf({1, 2, 3})).scalarValue(), 6);
  EXPECT_DOUBLE_EQ(sumDefault(M).at(0, 1), 6);
}

TEST(ReduceTest, CumsumOrientation) {
  Value R = cumsumDefault(rowOf({1, 2, 3}));
  EXPECT_DOUBLE_EQ(R.linear(2), 6);
  Value C = cumsumDefault(colOf({1, 2, 3}));
  EXPECT_DOUBLE_EQ(C.linear(2), 6);
  Value M = cumsumDefault(mat2x2(1, 2, 3, 4)); // down columns
  EXPECT_DOUBLE_EQ(M.at(1, 0), 4);
}

TEST(ReduceTest, Prod) {
  EXPECT_DOUBLE_EQ(prodDefault(rowOf({2, 3, 4})).scalarValue(), 24);
}

TEST(RepmatTest, Tiling) {
  Value R = repmat(colOf({1, 2}), 2, 3);
  EXPECT_EQ(R.rows(), 4u);
  EXPECT_EQ(R.cols(), 3u);
  EXPECT_DOUBLE_EQ(R.at(3, 2), 2);
  EXPECT_DOUBLE_EQ(R.at(2, 0), 1);
}

TEST(HistTest, BinningAtMidpoints) {
  OpError Err;
  // Centers 0,1,2: edges at 0.5 and 1.5.
  Value H = histCounts(rowOf({0, 0.4, 0.6, 1.4, 1.6, 5, -3}),
                       rowOf({0, 1, 2}), Err);
  ASSERT_FALSE(Err.failed());
  EXPECT_DOUBLE_EQ(H.linear(0), 3); // 0, 0.4, -3
  EXPECT_DOUBLE_EQ(H.linear(1), 2); // 0.6, 1.4
  EXPECT_DOUBLE_EQ(H.linear(2), 2); // 1.6, 5
}

TEST(HistTest, EmptyCentersRejected) {
  OpError Err;
  histCounts(rowOf({1}), Value(), Err);
  EXPECT_TRUE(Err.failed());
}

TEST(UnaryTest, MinusAndNot) {
  Value M = unaryMinus(rowOf({1, -2}));
  EXPECT_DOUBLE_EQ(M.linear(0), -1);
  EXPECT_DOUBLE_EQ(M.linear(1), 2);
  Value N = unaryNot(rowOf({0, 3}));
  EXPECT_DOUBLE_EQ(N.linear(0), 1);
  EXPECT_DOUBLE_EQ(N.linear(1), 0);
}

TEST(DivOpTest, ScalarDenominatorOnly) {
  OpError Err;
  Value R = divOp(rowOf({2, 4}), Value::scalar(2), Err);
  EXPECT_DOUBLE_EQ(R.linear(1), 2);
  EXPECT_FALSE(Err.failed());
  divOp(rowOf({2, 4}), rowOf({1, 2}), Err);
  EXPECT_TRUE(Err.failed());
}

//===----------------------------------------------------------------------===//
// Randomized differential tests: the fused/blocked/pooled kernels against
// naive scalar references. The optimized paths restructure the loops
// (blocking, fusion, buffer reuse), so every element is cross-checked on a
// spread of shapes, including the scalar-broadcast and empty edge cases.
//===----------------------------------------------------------------------===//

/// Deterministic xorshift PRNG (tests must not depend on global rand()).
struct TestRng {
  uint64_t State;
  explicit TestRng(uint64_t Seed) : State(Seed ? Seed : 1) {}
  double next() { // uniform in [-8, 8) with a sprinkle of exact zeros
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    if ((State & 0xF) == 0)
      return 0.0;
    return static_cast<double>(State % 10000) / 625.0 - 8.0;
  }
};

Value randomValue(TestRng &Rng, size_t Rows, size_t Cols) {
  Value M(Rows, Cols);
  for (size_t I = 0; I != M.numel(); ++I)
    M.linear(I) = Rng.next();
  return M;
}

/// Reference A*B via the textbook triple loop, no blocking, no transposes.
Value naiveMatMul(const Value &A, const Value &B) {
  Value R(A.rows(), B.cols());
  for (size_t I = 0; I != A.rows(); ++I)
    for (size_t J = 0; J != B.cols(); ++J) {
      double Acc = 0;
      for (size_t K = 0; K != A.cols(); ++K)
        Acc += A.at(I, K) * B.at(K, J);
      if (R.numel())
        R.at(I, J) = Acc;
    }
  return R;
}

/// Broadcast-aware element read for scalar-or-matrix operands.
double bcast(const Value &V, size_t I) {
  return V.isScalar() ? V.scalarValue() : V.linear(I);
}

TEST(DifferentialTest, FusedMulAddMatchesTwoStep) {
  TestRng Rng(0xC0FFEE);
  OpWorkspace WS;
  const size_t Shapes[][2] = {{1, 1}, {1, 7}, {5, 1}, {3, 4}, {17, 9}, {64, 3}};
  for (const auto &Shape : Shapes) {
    size_t R = Shape[0], C = Shape[1];
    for (int Trial = 0; Trial != 8; ++Trial) {
      // Mix matrix and scalar operands; fusedMulAdd must accept any
      // combination fusableMulAddShapes admits.
      Value A = (Trial & 1) ? Value::scalar(Rng.next()) : randomValue(Rng, R, C);
      Value B = (Trial & 2) ? Value::scalar(Rng.next()) : randomValue(Rng, R, C);
      Value Cv = (Trial & 4) ? Value::scalar(Rng.next()) : randomValue(Rng, R, C);
      if (!fusableMulAddShapes(A, B, Cv))
        continue;
      for (bool Subtract : {false, true})
        for (bool ProductOnLeft : {false, true}) {
          Value Fused = fusedMulAdd(A, B, Cv, Subtract, ProductOnLeft, &WS);
          size_t N = std::max({A.numel(), B.numel(), Cv.numel()});
          ASSERT_EQ(Fused.numel(), N);
          for (size_t I = 0; I != N; ++I) {
            double P = bcast(A, I) * bcast(B, I);
            double Expect = !Subtract         ? P + bcast(Cv, I)
                            : ProductOnLeft   ? P - bcast(Cv, I)
                                              : bcast(Cv, I) - P;
            ASSERT_DOUBLE_EQ(Fused.linear(I), Expect)
                << R << "x" << C << " trial " << Trial << " elt " << I;
          }
        }
    }
  }
}

TEST(DifferentialTest, BlockedMatMulMatchesNaive) {
  TestRng Rng(0xBEEF);
  OpWorkspace WS;
  // Spans the blocking boundaries (PBlock = 128) and skinny shapes.
  const size_t Dims[][3] = {{1, 1, 1},   {2, 3, 4},   {7, 7, 7},
                            {1, 130, 1}, {5, 128, 5}, {33, 129, 17},
                            {130, 2, 3}, {3, 2, 130}};
  for (const auto &D : Dims) {
    Value A = randomValue(Rng, D[0], D[1]);
    Value B = randomValue(Rng, D[1], D[2]);
    OpError Err;
    Value R = mulOp(A, B, Err, &WS);
    ASSERT_FALSE(Err.failed());
    Value Ref = naiveMatMul(A, B);
    ASSERT_TRUE(R.equals(Ref, 1e-12))
        << D[0] << "x" << D[1] << " * " << D[1] << "x" << D[2];
  }
}

TEST(DifferentialTest, MatMulTransBMatchesNaive) {
  TestRng Rng(0xDEAD);
  OpWorkspace WS;
  // A * B' reads B's transpose view packed into scratch.
  const size_t Dims[][3] = {{1, 1, 1},  {4, 3, 5},    {16, 16, 16},
                            {2, 130, 2}, {31, 127, 33}, {1, 64, 1}};
  for (const auto &D : Dims) {
    Value A = randomValue(Rng, D[0], D[1]);
    Value B = randomValue(Rng, D[2], D[1]); // B' is D[1] x D[2]
    OpError Err;
    Value R = matMul(A, transpose(B), Err, &WS);
    ASSERT_FALSE(Err.failed());
    Value Ref = naiveMatMul(A, transpose(B));
    ASSERT_TRUE(R.equals(Ref, 1e-12))
        << D[0] << "x" << D[1] << " * (" << D[2] << "x" << D[1] << ")'";
  }
}

TEST(DifferentialTest, MatMulTransAMatchesNaive) {
  TestRng Rng(0xA7A);
  OpWorkspace WS;
  // A' * B reads A's transpose view in place (A is K x M).
  // Rows cross every lane width, columns the 4-column tile.
  const size_t Dims[][3] = {{1, 1, 1},   {1, 37, 9},  {4, 3, 5},
                            {7, 130, 6}, {16, 16, 16}, {33, 129, 17},
                            {40, 40, 40}, {1000, 20, 1}};
  for (const auto &D : Dims) {
    Value A = randomValue(Rng, D[1], D[0]);
    Value B = randomValue(Rng, D[1], D[2]);
    OpError Err;
    Value R = matMul(transpose(A), B, Err, &WS);
    ASSERT_FALSE(Err.failed());
    Value Ref = naiveMatMul(transpose(A), B);
    ASSERT_TRUE(R.equals(Ref, 1e-12))
        << "(" << D[1] << "x" << D[0] << ")' * " << D[1] << "x" << D[2];
  }
  OpError Err;
  matMul(transpose(randomValue(Rng, 3, 2)), randomValue(Rng, 4, 2), Err);
  EXPECT_EQ(Err.Message, "inner matrix dimensions must agree (2x3 * 4x2)");
}

TEST(DifferentialTest, PooledElementwiseMatchesFresh) {
  TestRng Rng(0xF00D);
  OpWorkspace WS;
  const BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub,  BinaryOp::DotMul,
                          BinaryOp::DotDiv, BinaryOp::Lt, BinaryOp::Ge};
  for (int Trial = 0; Trial != 24; ++Trial) {
    size_t R = 1 + Trial % 5, C = 1 + Trial % 7;
    Value A = (Trial % 3 == 0) ? Value::scalar(Rng.next())
                               : randomValue(Rng, R, C);
    Value B = (Trial % 3 == 1) ? Value::scalar(Rng.next())
                               : randomValue(Rng, R, C);
    for (BinaryOp Op : Ops) {
      OpError ErrPooled, ErrFresh;
      // Same kernel with and without the buffer pool: identical results,
      // including the logical flag on comparisons.
      Value Pooled = elementwiseBinary(Op, A, B, ErrPooled, &WS);
      Value Fresh = elementwiseBinary(Op, A, B, ErrFresh, nullptr);
      ASSERT_EQ(ErrPooled.failed(), ErrFresh.failed());
      if (ErrFresh.failed())
        continue;
      ASSERT_TRUE(Pooled.equals(Fresh)) << "op " << static_cast<int>(Op);
      ASSERT_EQ(Pooled.isLogical(), Fresh.isLogical());
    }
  }
}

TEST(DifferentialTest, PoolRecyclingNeverAliasesLiveValues) {
  OpWorkspace WS;
  OpError Err;
  TestRng Rng(7);
  // Large enough (80x80 doubles) for the payload recycler.
  Value A = randomValue(Rng, 80, 80);
  Value Live = mulOp(A, A, Err, &WS);
  ASSERT_FALSE(Err.failed());
  Value Snapshot = Live; // shares Live's buffer
  const double *Payload = Snapshot.raw();
  // Dropping Live must not hand its (shared) buffer to the recycler...
  { Value Dead = std::move(Live); }
  Value Next = mulOp(A, A, Err, &WS);
  // ...so writing the next result cannot corrupt the snapshot.
  ASSERT_FALSE(Snapshot.sharesBufferWith(Next));
  ASSERT_NE(Next.raw(), Payload);
  ASSERT_TRUE(Snapshot.equals(Next, 0.0));
}

} // namespace

//===----------------------------------------------------------------------===//
// SIMD dispatch and per-ISA differential tests. The contract
// (SimdDispatch.h) is bit-exactness: every compiled-in vector table must
// reproduce the scalar reference table bit for bit — including NaN
// payloads, signed zeros and Inf propagation — on every kernel. These
// tests pin the dispatch level per run and compare raw payload bits.
//===----------------------------------------------------------------------===//

/// Pins the process-global dispatch level for a scope.
class ScopedSimdLevel {
  simd::Level Saved;

public:
  explicit ScopedSimdLevel(simd::Level L) : Saved(simd::activeLevel()) {
    EXPECT_TRUE(simd::setLevel(L));
  }
  ~ScopedSimdLevel() { simd::setLevel(Saved); }
};

std::vector<simd::Level> supportedLevels() {
  std::vector<simd::Level> Out;
  for (simd::Level L : simd::compiledLevels())
    if (simd::levelSupported(L))
      Out.push_back(L);
  return Out;
}

/// Bitwise payload comparison: the only equality that catches -0.0 vs 0.0
/// and NaN-payload divergence.
void expectBitIdentical(const Value &Got, const Value &Want,
                        const std::string &What) {
  ASSERT_EQ(Got.rows(), Want.rows()) << What;
  ASSERT_EQ(Got.cols(), Want.cols()) << What;
  for (size_t I = 0, E = Got.numel(); I != E; ++I) {
    uint64_t GotBits, WantBits;
    double G = Got.linear(I), W = Want.linear(I);
    // Any NaN matches any NaN: IEEE 754 leaves payload/sign propagation
    // unspecified, and the compiler may commute multiply operands per
    // optimization level, so which payload survives an accumulation is
    // not a property the kernels can pin down. Everything else —
    // including -0.0 vs 0.0 and NaN vs number — must match bit for bit.
    if (std::isnan(G) && std::isnan(W))
      continue;
    std::memcpy(&GotBits, &G, sizeof(double));
    std::memcpy(&WantBits, &W, sizeof(double));
    ASSERT_EQ(GotBits, WantBits)
        << What << " elt " << I << ": " << G << " vs " << W;
  }
}

/// Random payload seasoned with the IEEE specials the vector compare and
/// zero-skip paths must reproduce exactly.
Value randomWithSpecials(TestRng &Rng, size_t Rows, size_t Cols) {
  static const double Specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -0.0};
  Value M(Rows, Cols);
  size_t Which = 0;
  for (size_t I = 0; I != M.numel(); ++I) {
    double V = Rng.next();
    M.linear(I) = V > 7.0 ? Specials[Which++ % 4] : V;
  }
  return M;
}

/// A strictly zero-free payload: drives the matmul's register-blocked
/// no-zero panel kernel rather than the zero-skip fallback.
Value randomZeroFree(TestRng &Rng, size_t Rows, size_t Cols) {
  Value M(Rows, Cols);
  for (size_t I = 0; I != M.numel(); ++I)
    M.linear(I) = std::fabs(Rng.next()) + 0.25;
  return M;
}

TEST(SimdDispatchTest, ScalarAlwaysCompiledAndSpecParses) {
  std::vector<simd::Level> Levels = simd::compiledLevels();
  ASSERT_FALSE(Levels.empty());
  EXPECT_EQ(Levels.front(), simd::Level::Scalar);
  EXPECT_TRUE(simd::levelSupported(simd::Level::Scalar));
  EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");

  std::string Err;
  EXPECT_FALSE(simd::configureFromString("vliw", &Err));
  EXPECT_FALSE(Err.empty());
  // A stale "sse41" is one more unknown level, and the diagnostic lists
  // exactly the levels that exist.
  Err.clear();
  EXPECT_FALSE(simd::configureFromString("sse41", &Err));
  EXPECT_NE(Err.find("(expected auto|scalar|sse2|avx2)"), std::string::npos)
      << Err;
  // "auto"/"best" and every supported name select successfully; the active
  // level is restored afterwards so other tests see the default.
  simd::Level Before = simd::activeLevel();
  EXPECT_TRUE(simd::configureFromString("scalar", nullptr));
  EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
  EXPECT_TRUE(simd::configureFromString("auto", nullptr));
  EXPECT_EQ(simd::activeLevel(), simd::bestSupportedLevel());
  for (simd::Level L : supportedLevels())
    EXPECT_TRUE(simd::configureFromString(simd::levelName(L), nullptr));
  EXPECT_TRUE(simd::setLevel(Before));
}

// CI runs this binary once per level under MVEC_SIMD=<level>. An env
// parse that lost a level would only warn and fall back, and the leg would
// silently test the best level; this pins that the named level is active.
TEST(SimdDispatchTest, EnvironmentLevelIsActive) {
  const char *Env = std::getenv("MVEC_SIMD");
  simd::Level Want = simd::bestSupportedLevel();
  for (simd::Level L : supportedLevels())
    if (Env && std::strcmp(Env, simd::levelName(L)) == 0)
      Want = L;
  EXPECT_STREQ(simd::levelName(simd::activeLevel()), simd::levelName(Want))
      << "MVEC_SIMD=" << (Env ? Env : "(unset)");
}

TEST(SimdDispatchTest, ForcedScalarFallbackServesKernels) {
  ScopedSimdLevel Pin(simd::Level::Scalar);
  ASSERT_EQ(simd::activeLevel(), simd::Level::Scalar);
  uint64_t EwBefore = simd::dispatchCounters().Elementwise.load();
  uint64_t MmBefore = simd::dispatchCounters().MatMul.load();
  TestRng Rng(11);
  Value A = randomValue(Rng, 6, 6), B = randomValue(Rng, 6, 6);
  OpError Err;
  Value Sum = elementwiseBinary(BinaryOp::Add, A, B, Err);
  ASSERT_FALSE(Err.failed());
  for (size_t I = 0; I != Sum.numel(); ++I)
    ASSERT_DOUBLE_EQ(Sum.linear(I), A.linear(I) + B.linear(I));
  Value Prod = mulOp(A, B, Err);
  ASSERT_FALSE(Err.failed());
  ASSERT_TRUE(Prod.equals(naiveMatMul(A, B), 1e-12));
  // The dispatch counters observed the traffic even on the fallback tier.
  EXPECT_GT(simd::dispatchCounters().Elementwise.load(), EwBefore);
  EXPECT_GT(simd::dispatchCounters().MatMul.load(), MmBefore);
}

TEST(SimdDifferentialTest, ElementwiseAndCompareBitExactAcrossLevels) {
  const BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::DotMul,
                          BinaryOp::DotDiv, BinaryOp::Lt, BinaryOp::Gt,
                          BinaryOp::Le,  BinaryOp::Ge,  BinaryOp::Eq,
                          BinaryOp::Ne,  BinaryOp::And, BinaryOp::Or};
  // Shapes straddling every vector width's main-loop/tail boundary.
  const size_t Shapes[][2] = {{1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5},
                              {1, 7}, {1, 8}, {1, 9}, {3, 3}, {4, 4},
                              {5, 5}, {8, 8}, {16, 17}};
  for (simd::Level L : supportedLevels()) {
    if (L == simd::Level::Scalar)
      continue;
    TestRng Rng(0xA11CE); // same stream per level: identical inputs
    for (const auto &Shape : Shapes) {
      size_t R = Shape[0], C = Shape[1];
      for (int Broadcast = 0; Broadcast != 3; ++Broadcast) {
        Value A = Broadcast == 1 ? Value::scalar(Rng.next())
                                 : randomWithSpecials(Rng, R, C);
        Value B = Broadcast == 2 ? Value::scalar(Rng.next())
                                 : randomWithSpecials(Rng, R, C);
        for (BinaryOp Op : Ops) {
          OpError ErrS, ErrV;
          Value Want, Got;
          {
            ScopedSimdLevel Pin(simd::Level::Scalar);
            Want = elementwiseBinary(Op, A, B, ErrS);
          }
          {
            ScopedSimdLevel Pin(L);
            Got = elementwiseBinary(Op, A, B, ErrV);
          }
          ASSERT_EQ(ErrS.failed(), ErrV.failed());
          expectBitIdentical(Got, Want,
                             std::string(simd::levelName(L)) + " op " +
                                 std::to_string(static_cast<int>(Op)) + " " +
                                 std::to_string(R) + "x" + std::to_string(C));
          ASSERT_EQ(Got.isLogical(), Want.isLogical());
        }
      }
    }
  }
}

TEST(SimdDifferentialTest, FusedMulAddBitExactAcrossLevels) {
  const size_t Shapes[][2] = {{1, 5}, {2, 2}, {3, 3}, {4, 4},
                              {5, 5}, {7, 9}, {16, 16}};
  for (simd::Level L : supportedLevels()) {
    if (L == simd::Level::Scalar)
      continue;
    TestRng Rng(0xFAB);
    for (const auto &Shape : Shapes) {
      size_t R = Shape[0], C = Shape[1];
      for (int Trial = 0; Trial != 8; ++Trial) {
        Value A = (Trial & 1) ? Value::scalar(Rng.next())
                              : randomWithSpecials(Rng, R, C);
        Value B = (Trial & 2) ? Value::scalar(Rng.next())
                              : randomWithSpecials(Rng, R, C);
        Value Cv = (Trial & 4) ? Value::scalar(Rng.next())
                               : randomWithSpecials(Rng, R, C);
        if (!fusableMulAddShapes(A, B, Cv))
          continue;
        for (bool Subtract : {false, true})
          for (bool ProductOnLeft : {false, true}) {
            Value Want, Got;
            {
              ScopedSimdLevel Pin(simd::Level::Scalar);
              Want = fusedMulAdd(A, B, Cv, Subtract, ProductOnLeft);
            }
            {
              ScopedSimdLevel Pin(L);
              Got = fusedMulAdd(A, B, Cv, Subtract, ProductOnLeft);
            }
            expectBitIdentical(Got, Want,
                               std::string(simd::levelName(L)) + " fma " +
                                   std::to_string(R) + "x" +
                                   std::to_string(C));
          }
      }
    }
  }
}

TEST(SimdDifferentialTest, MatMulBitExactAcrossLevels) {
  // Crosses the vector width, the 4-column register tile, and the
  // PBlock=128 panel boundary; includes skinny and tall extremes.
  const size_t Dims[][3] = {{1, 1, 1},   {2, 2, 2},   {3, 3, 3},
                            {4, 4, 4},   {5, 5, 5},   {7, 3, 9},
                            {8, 8, 8},   {9, 5, 6},   {16, 16, 16},
                            {33, 129, 17}, {130, 2, 3}, {5, 128, 5},
                            {2, 130, 2},  {6, 127, 11}};
  for (simd::Level L : supportedLevels()) {
    if (L == simd::Level::Scalar)
      continue;
    TestRng Rng(0x5EED);
    for (const auto &D : Dims) {
      size_t M = D[0], K = D[1], P = D[2];
      // Three densities: ~1/16 exact zeros (exercises the zero-skip
      // fallback), zero-free (exercises the register-blocked panel), and
      // special-laden (Inf/NaN must propagate identically through both).
      Value As[] = {randomValue(Rng, M, K), randomZeroFree(Rng, M, K),
                    randomWithSpecials(Rng, M, K)};
      Value Bs[] = {randomValue(Rng, K, P), randomZeroFree(Rng, K, P),
                    randomWithSpecials(Rng, K, P)};
      for (int Density = 0; Density != 3; ++Density) {
        OpError ErrS, ErrV;
        Value Want, Got;
        {
          ScopedSimdLevel Pin(simd::Level::Scalar);
          Want = matMul(As[Density], Bs[Density], ErrS);
        }
        {
          ScopedSimdLevel Pin(L);
          Got = matMul(As[Density], Bs[Density], ErrV);
        }
        ASSERT_FALSE(ErrS.failed());
        ASSERT_FALSE(ErrV.failed());
        expectBitIdentical(Got, Want,
                           std::string(simd::levelName(L)) + " matmul " +
                               std::to_string(M) + "x" + std::to_string(K) +
                               "*" + std::to_string(K) + "x" +
                               std::to_string(P) + " d" +
                               std::to_string(Density));
      }
    }
  }
}

TEST(SimdDifferentialTest, MatMulTransBBitExactAcrossLevels) {
  const size_t Dims[][3] = {{1, 1, 1},  {3, 3, 3},   {4, 4, 4},
                            {5, 5, 5},  {8, 8, 8},   {16, 16, 16},
                            {9, 130, 7}, {2, 5, 33}, {33, 17, 129}};
  for (simd::Level L : supportedLevels()) {
    if (L == simd::Level::Scalar)
      continue;
    TestRng Rng(0x7B);
    for (const auto &D : Dims) {
      size_t M = D[0], K = D[1], P = D[2];
      // A is MxK, B is PxK: result A * B' is MxP.
      Value A = randomValue(Rng, M, K);
      Value B = randomValue(Rng, P, K);
      OpError ErrS, ErrV;
      Value Want, Got;
      {
        ScopedSimdLevel Pin(simd::Level::Scalar);
        Want = matMul(A, transpose(B), ErrS);
      }
      {
        ScopedSimdLevel Pin(L);
        Got = matMul(A, transpose(B), ErrV);
      }
      ASSERT_FALSE(ErrS.failed());
      ASSERT_FALSE(ErrV.failed());
      expectBitIdentical(Got, Want,
                         std::string(simd::levelName(L)) + " matmul-tb " +
                             std::to_string(M) + "x" + std::to_string(K) +
                             "*(" + std::to_string(P) + "x" +
                             std::to_string(K) + ")'");
    }
  }
}

/// A payload with every IEEE special the zero skip must treat exactly:
/// +0, -0, NaN and +/-Inf, spread through otherwise random values.
Value randomWithZerosAndSpecials(TestRng &Rng, size_t Rows, size_t Cols) {
  static const double Specials[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  Value M(Rows, Cols);
  size_t Which = 0;
  for (size_t I = 0; I != M.numel(); ++I) {
    double V = Rng.next();
    M.linear(I) = V > 6.5 ? Specials[Which++ % 5] : V;
  }
  return M;
}

/// The shapes of the transpose-free and row-vector products, as M x K x N
/// of the logical product: a row vector times a matrix, the 40x40 and
/// 200x200 squares of Table 3, a 1000 x 1 result, and odd tails.
const size_t DotShapes[][3] = {{1, 1, 1},     {1, 37, 9},   {1, 499, 37},
                               {3, 5, 2},     {5, 7, 3},    {9, 29, 6},
                               {9, 130, 13},  {40, 40, 40}, {200, 200, 200},
                               {1000, 60, 1}, {1000, 1000, 1}};

/// Four densities per shape: B with exact zeros, a zero-free B (the
/// register-blocked panel), B seasoned with 0, -0, NaN and Inf, and the
/// zero-skip probe: +/-0 in every even column of B exactly where the A
/// operand holds Inf (see dotOperandA), so only the skip keeps those
/// outputs finite.
constexpr int NumDotDensities = 4;

Value dotOperandB(TestRng &Rng, int Density, size_t Rows, size_t Cols) {
  if (Density == 0)
    return randomValue(Rng, Rows, Cols);
  if (Density == 1)
    return randomZeroFree(Rng, Rows, Cols);
  if (Density == 2)
    return randomWithZerosAndSpecials(Rng, Rows, Cols);
  Value B = randomZeroFree(Rng, Rows, Cols);
  for (size_t P = 0; P < Rows; P += 7)
    for (size_t J = 0; J < Cols; J += 2)
      B.at(P, J) = (P / 7) % 2 ? -0.0 : 0.0;
  return B;
}

/// The A operand for \p Density, stored with the inner dimension along
/// its rows when \p InnerIsRows (A' * B) and along its columns otherwise
/// (a row vector times B). The zero-skip probe puts Inf at every seventh
/// inner index.
Value dotOperandA(TestRng &Rng, int Density, size_t Rows, size_t Cols,
                  bool InnerIsRows) {
  if (Density == 2)
    return randomWithSpecials(Rng, Rows, Cols);
  if (Density != 3)
    return randomValue(Rng, Rows, Cols);
  Value A = randomZeroFree(Rng, Rows, Cols);
  for (size_t R = 0; R != Rows; ++R)
    for (size_t C = 0; C != Cols; ++C)
      if ((InnerIsRows ? R : C) % 7 == 0)
        A.at(R, C) = std::numeric_limits<double>::infinity();
  return A;
}

TEST(SimdDifferentialTest, MatMulTransABitExactAcrossLevels) {
  TestRng Rng(0x7A);
  for (const auto &D : DotShapes) {
    size_t M = D[0], K = D[1], N = D[2];
    for (int Density = 0; Density != NumDotDensities; ++Density) {
      // A is K x M: the product is A' * B.
      Value A = dotOperandA(Rng, Density, K, M, /*InnerIsRows=*/true);
      Value B = dotOperandB(Rng, Density, K, N);
      std::string Shape = "(" + std::to_string(K) + "x" + std::to_string(M) +
                          ")'*" + std::to_string(K) + "x" +
                          std::to_string(N) + " d" + std::to_string(Density);
      OpError ErrT, ErrS;
      Value Transposed, Want;
      {
        ScopedSimdLevel Pin(simd::Level::Scalar);
        // The materialized transpose runs the plain tile; the transpose
        // view runs the transposed-A tile, which must reproduce it exactly.
        Value AT = transpose(A);
        AT.materialize();
        Transposed = matMul(AT, B, ErrT);
        Want = matMul(transpose(A), B, ErrS);
      }
      ASSERT_FALSE(ErrT.failed());
      ASSERT_FALSE(ErrS.failed());
      expectBitIdentical(Want, Transposed, "scalar matmul-ta " + Shape);
      for (simd::Level L : supportedLevels()) {
        if (L == simd::Level::Scalar)
          continue;
        ScopedSimdLevel Pin(L);
        OpError ErrV;
        Value Got = matMul(transpose(A), B, ErrV);
        ASSERT_FALSE(ErrV.failed());
        expectBitIdentical(Got, Want,
                           std::string(simd::levelName(L)) + " matmul-ta " +
                               Shape);
      }
    }
  }
}

TEST(SimdDifferentialTest, RowVectorMatMulBitExactAcrossLevels) {
  // M == 1 runs the row-vector tile (independent per-column accumulators)
  // on the SIMD tables and the reference axpy loop on the scalar table.
  TestRng Rng(0x1A);
  for (const auto &D : DotShapes) {
    size_t K = D[1], N = D[2];
    for (int Density = 0; Density != NumDotDensities; ++Density) {
      Value A = dotOperandA(Rng, Density, 1, K, /*InnerIsRows=*/false);
      Value B = dotOperandB(Rng, Density, K, N);
      std::string Shape = "1x" + std::to_string(K) + "*" + std::to_string(K) +
                          "x" + std::to_string(N) + " d" +
                          std::to_string(Density);
      OpError ErrS;
      Value Want;
      {
        ScopedSimdLevel Pin(simd::Level::Scalar);
        Want = matMul(A, B, ErrS);
      }
      ASSERT_FALSE(ErrS.failed());
      for (simd::Level L : supportedLevels()) {
        if (L == simd::Level::Scalar)
          continue;
        ScopedSimdLevel Pin(L);
        OpError ErrV, ErrB;
        Value Got = matMul(A, B, ErrV);
        // A transposed B operand takes the same tile behind the pack.
        Value BT = transpose(B);
        BT.materialize();
        Value GotTB = matMul(A, transpose(BT), ErrB);
        ASSERT_FALSE(ErrV.failed());
        ASSERT_FALSE(ErrB.failed());
        std::string Level = simd::levelName(L);
        expectBitIdentical(Got, Want, Level + " row-vector " + Shape);
        expectBitIdentical(GotTB, Want, Level + " row-vector tb " + Shape);
      }
    }
  }
}

TEST(SimdDifferentialTest, ReductionsBitExactAcrossLevels) {
  // Row counts cross every vector width (the column reductions transpose
  // WxW blocks in registers); column counts cross the row-tail gather.
  const size_t Shapes[][2] = {{1, 1},  {2, 2},  {3, 3},  {4, 4},  {5, 5},
                              {8, 3},  {3, 8},  {7, 7},  {16, 16}, {17, 9},
                              {33, 7}, {9, 33}, {1, 12}, {12, 1}};
  for (simd::Level L : supportedLevels()) {
    if (L == simd::Level::Scalar)
      continue;
    TestRng Rng(0xCAFE);
    for (const auto &Shape : Shapes) {
      size_t R = Shape[0], C = Shape[1];
      for (int Density = 0; Density != 2; ++Density) {
        Value A = Density ? randomWithSpecials(Rng, R, C)
                          : randomValue(Rng, R, C);
        std::string Tag = std::string(simd::levelName(L)) + " " +
                          std::to_string(R) + "x" + std::to_string(C) +
                          " d" + std::to_string(Density);
        Value WantS1, WantS2, WantC1, WantC2, WantP;
        {
          ScopedSimdLevel Pin(simd::Level::Scalar);
          WantS1 = sumAlong(A, 1);
          WantS2 = sumAlong(A, 2);
          WantC1 = cumsumAlong(A, 1);
          WantC2 = cumsumAlong(A, 2);
          WantP = prodDefault(A);
        }
        ScopedSimdLevel Pin(L);
        expectBitIdentical(sumAlong(A, 1), WantS1, Tag + " sum1");
        expectBitIdentical(sumAlong(A, 2), WantS2, Tag + " sum2");
        expectBitIdentical(cumsumAlong(A, 1), WantC1, Tag + " cumsum1");
        expectBitIdentical(cumsumAlong(A, 2), WantC2, Tag + " cumsum2");
        expectBitIdentical(prodDefault(A), WantP, Tag + " prod");
      }
    }
  }
}

TEST(SimdDifferentialTest, UnaryBitExactAcrossLevels) {
  const size_t Shapes[][2] = {{1, 1}, {1, 3}, {1, 5}, {2, 2},
                              {3, 3}, {5, 7}, {16, 17}};
  for (simd::Level L : supportedLevels()) {
    if (L == simd::Level::Scalar)
      continue;
    TestRng Rng(0xF00D);
    for (const auto &Shape : Shapes) {
      Value A = randomWithSpecials(Rng, Shape[0], Shape[1]);
      Value WantNeg, WantNot;
      {
        ScopedSimdLevel Pin(simd::Level::Scalar);
        WantNeg = unaryMinus(A);
        WantNot = unaryNot(A);
      }
      ScopedSimdLevel Pin(L);
      std::string Tag = std::string(simd::levelName(L)) + " " +
                        std::to_string(Shape[0]) + "x" +
                        std::to_string(Shape[1]);
      expectBitIdentical(unaryMinus(A), WantNeg, Tag + " neg");
      // unaryNot maps NaN -> 0 like MATLAB ~; still must match bitwise.
      expectBitIdentical(unaryNot(A), WantNot, Tag + " not");
    }
  }
}

//===----------------------------------------------------------------------===//
// Strided views as kernel operands. Each view holds the same values as a
// plain matrix; every kernel must read it to the bit what it reads from
// the plain form, at every dispatch level.
//===----------------------------------------------------------------------===//

/// \p M stored inside a larger matrix (leading dimension M.rows() + 3):
/// a view with a unit row step and a column step past its row count.
Value withLeadingDim(const Value &M) {
  Value Big(M.rows() + 3, M.cols() + 1, 7.0);
  for (size_t R = 0; R != M.rows(); ++R)
    for (size_t C = 0; C != M.cols(); ++C)
      Big.at(R + 2, C + 1) = M.at(R, C);
  return Big.view(M.rows(), M.cols(), 2 + Big.rows(), 1, Big.rows(), false);
}

/// \p M as the transpose view of its stored transpose: a unit column
/// step, optionally with a leading dimension past the stored rows.
Value asTransposeView(const Value &M, bool WithLd) {
  Value T = transpose(M);
  T.materialize();
  return transpose(WithLd ? withLeadingDim(T) : T);
}

/// \p M as every other row of a matrix twice its height: neither step is 1.
Value asSteppedRows(const Value &M) {
  Value Big(2 * M.rows(), M.cols(), -3.0);
  for (size_t R = 0; R != M.rows(); ++R)
    for (size_t C = 0; C != M.cols(); ++C)
      Big.at(2 * R, C) = M.at(R, C);
  return Big.view(M.rows(), M.cols(), 0, 2, Big.rows(), false);
}

/// Every layout a kernel operand can take, holding \p M's values.
std::vector<std::pair<std::string, Value>> layoutsOf(const Value &M) {
  std::vector<std::pair<std::string, Value>> Out;
  Out.emplace_back("plain", M);
  if (M.numel() > 1) {
    Out.emplace_back("ld", withLeadingDim(M));
    Out.emplace_back("trans", asTransposeView(M, false));
    Out.emplace_back("trans-ld", asTransposeView(M, true));
    Out.emplace_back("stepped", asSteppedRows(M));
  }
  return Out;
}

TEST(SimdDifferentialTest, StridedMatMulOperandsBitExactAcrossLevels) {
  // ld > rows on both sides, a row-vector A (M == 1), Table 3's 40x40 and
  // a 1000 x 1 result; B carries 0, -0, NaN and Inf (density 2) and the
  // zero-skip probe (density 3).
  const size_t Shapes[][3] = {{1, 37, 9},  {1, 499, 37}, {3, 5, 2},
                              {9, 130, 13}, {40, 40, 40}, {1000, 60, 1}};
  TestRng Rng(0x51D);
  for (const auto &D : Shapes) {
    size_t M = D[0], K = D[1], N = D[2];
    for (int Density = 0; Density != NumDotDensities; ++Density) {
      Value A = dotOperandA(Rng, Density, M, K, /*InnerIsRows=*/false);
      Value B = dotOperandB(Rng, Density, K, N);
      std::string Shape = std::to_string(M) + "x" + std::to_string(K) + "*" +
                          std::to_string(K) + "x" + std::to_string(N) + " d" +
                          std::to_string(Density);
      OpError ErrW;
      Value Want;
      {
        ScopedSimdLevel Pin(simd::Level::Scalar);
        Want = matMul(A, B, ErrW);
      }
      ASSERT_FALSE(ErrW.failed());
      for (simd::Level L : supportedLevels()) {
        ScopedSimdLevel Pin(L);
        for (const auto &[AName, AV] : layoutsOf(A))
          for (const auto &[BName, BV] : layoutsOf(B)) {
            OpError Err;
            Value Got = matMul(AV, BV, Err);
            ASSERT_FALSE(Err.failed());
            expectBitIdentical(Got, Want,
                               std::string(simd::levelName(L)) + " " + AName +
                                   " * " + BName + " " + Shape);
          }
      }
    }
  }
}

TEST(DifferentialTest, StridedElementwiseMatchesPlain) {
  const BinaryOp Ops[] = {BinaryOp::Add,    BinaryOp::Sub, BinaryOp::DotMul,
                          BinaryOp::DotDiv, BinaryOp::Lt,  BinaryOp::Ne,
                          BinaryOp::DotPow};
  const size_t Shapes[][2] = {{1, 9}, {9, 1}, {3, 5}, {17, 9}, {64, 3}};
  TestRng Rng(0x57E);
  for (const auto &Shape : Shapes) {
    Value A = randomWithSpecials(Rng, Shape[0], Shape[1]);
    Value B = randomWithSpecials(Rng, Shape[0], Shape[1]);
    Value C = randomValue(Rng, Shape[0], Shape[1]);
    Value S = Value::scalar(Rng.next());
    for (simd::Level L : supportedLevels()) {
      ScopedSimdLevel Pin(L);
      std::string Tag = std::string(simd::levelName(L)) + " " +
                        std::to_string(Shape[0]) + "x" +
                        std::to_string(Shape[1]);
      for (BinaryOp Op : Ops) {
        OpError E1, E2, E3;
        Value Want = elementwiseBinary(Op, A, B, E1);
        Value WantSA = elementwiseBinary(Op, S, B, E2);
        Value WantAS = elementwiseBinary(Op, A, S, E3);
        for (const auto &[AName, AV] : layoutsOf(A))
          for (const auto &[BName, BV] : layoutsOf(B)) {
            OpError Err;
            Value Got = elementwiseBinary(Op, AV, BV, Err);
            ASSERT_FALSE(Err.failed());
            EXPECT_EQ(Got.isLogical(), Want.isLogical());
            expectBitIdentical(Got, Want, Tag + " " + AName + " op " + BName);
          }
        for (const auto &[Name, V] : layoutsOf(B)) {
          OpError Err;
          expectBitIdentical(elementwiseBinary(Op, S, V, Err), WantSA,
                             Tag + " scalar op " + Name);
        }
        for (const auto &[Name, V] : layoutsOf(A)) {
          OpError Err;
          expectBitIdentical(elementwiseBinary(Op, V, S, Err), WantAS,
                             Tag + " " + Name + " op scalar");
        }
      }
      // The fused multiply-add reads all three operands in place.
      for (bool Subtract : {false, true}) {
        Value Want = fusedMulAdd(A, B, C, Subtract, /*ProductOnLeft=*/true);
        for (const auto &[AName, AV] : layoutsOf(A))
          for (const auto &[CName, CV] : layoutsOf(C))
            expectBitIdentical(
                fusedMulAdd(AV, asTransposeView(B, true), CV, Subtract, true),
                Want, Tag + " fma " + AName + " " + CName);
      }
      // Unary kernels and concatenation take views through a dense copy.
      for (const auto &[Name, V] : layoutsOf(A)) {
        expectBitIdentical(unaryMinus(V), unaryMinus(A), Tag + " neg " + Name);
        OpError Err;
        expectBitIdentical(horzcat(V, V, Err), horzcat(A, A, Err),
                           Tag + " horzcat " + Name);
        expectBitIdentical(vertcat(V, V, Err), vertcat(A, A, Err),
                           Tag + " vertcat " + Name);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Broadcast views (repmat of a vector) and the fused sum of products.
//===----------------------------------------------------------------------===//

/// Large payload allocations made on this thread so far (the recycler's
/// hits and misses): a kernel that copied a large view operand shows here.
uint64_t largeAllocations() {
  PayloadRecyclerStats S = payloadRecyclerStats();
  return S.Hits + S.Misses;
}

/// \p V's values in a dense payload of their own.
Value denseCopy(const Value &V) {
  Value Copy = V;
  Copy.materialize();
  return Copy;
}

TEST(DifferentialTest, BroadcastViewOperandsMatchTheCopy) {
  // 64 x 80 operands: every result is a large block, so the allocation
  // count shows whether a kernel copied its broadcast operand.
  const size_t M = 64, N = 80;
  TestRng Rng(0xB0A);
  Value Col = randomWithSpecials(Rng, M, 1);
  Value Row = randomWithSpecials(Rng, 1, N);
  Value ColView = repmat(Col, 1, N), RowView = repmat(Row, M, 1);
  ASSERT_TRUE(ColView.isView() && RowView.isView());
  ASSERT_EQ(ColView.colStep(), 0u);
  ASSERT_EQ(RowView.rowStep(), 0u);
  Value X = randomWithSpecials(Rng, M, N), Y = randomValue(Rng, M, N);
  const BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::DotMul,
                          BinaryOp::DotDiv, BinaryOp::Lt};
  struct Case {
    const char *Name;
    Value View;
  };
  const Case Cases[] = {{"col", ColView},
                        {"row", RowView},
                        {"col'", transpose(transpose(ColView))}};
  for (simd::Level L : supportedLevels()) {
    ScopedSimdLevel Pin(L);
    for (const Case &C : Cases) {
      std::string Tag = std::string(simd::levelName(L)) + " " + C.Name;
      Value Copy = denseCopy(C.View);
      for (BinaryOp Op : Ops) {
        OpError E1, E2, E3, E4;
        uint64_t Before = largeAllocations();
        Value Left = elementwiseBinary(Op, C.View, X, E1);
        Value Right = elementwiseBinary(Op, X, C.View, E2);
        EXPECT_EQ(largeAllocations(), Before + 2) << Tag;
        expectBitIdentical(Left, elementwiseBinary(Op, Copy, X, E3),
                           Tag + " op x");
        expectBitIdentical(Right, elementwiseBinary(Op, X, Copy, E4),
                           Tag + " x op");
      }
      // Unary kernels and concatenation take the view through a dense copy.
      expectBitIdentical(unaryMinus(C.View), unaryMinus(Copy), Tag + " neg");
      OpError CatErr;
      expectBitIdentical(horzcat(C.View, X, CatErr), horzcat(Copy, X, CatErr),
                         Tag + " horzcat");
      expectBitIdentical(vertcat(C.View, X, CatErr), vertcat(Copy, X, CatErr),
                         Tag + " vertcat");
      for (bool Subtract : {false, true}) {
        uint64_t Before = largeAllocations();
        Value Prod = fusedMulAdd(C.View, X, Y, Subtract, true);
        Value Addend = fusedMulAdd(X, Y, C.View, Subtract, false);
        EXPECT_EQ(largeAllocations(), Before + 2) << Tag;
        expectBitIdentical(Prod, fusedMulAdd(Copy, X, Y, Subtract, true),
                           Tag + " fma product");
        expectBitIdentical(Addend, fusedMulAdd(X, Y, Copy, Subtract, false),
                           Tag + " fma addend");
      }
    }
    // Matrix products: a column broadcast reads in place with a leading
    // dimension of 0 on either side, a row broadcast on the left as a
    // transposed A with a leading dimension of 0.
    std::string Lv = simd::levelName(L);
    for (int Density = 0; Density != 2; ++Density) {
      Value Right = Density ? randomZeroFree(Rng, N, M)
                            : randomValue(Rng, N, M);
      Value Left = Density ? randomZeroFree(Rng, N, M)
                           : randomValue(Rng, N, M);
      std::string Tag = Lv + " d" + std::to_string(Density);
      OpError Err;
      uint64_t Before = largeAllocations();
      Value ColA = matMul(ColView, Right, Err);
      Value ColB = matMul(Left, ColView, Err);
      Value RowA = matMul(RowView, Right, Err);
      EXPECT_EQ(largeAllocations(), Before + 3) << Tag;
      ASSERT_FALSE(Err.failed());
      Value ColCopy = denseCopy(ColView), RowCopy = denseCopy(RowView);
      expectBitIdentical(ColA, matMul(ColCopy, Right, Err), Tag + " col * B");
      expectBitIdentical(ColB, matMul(Left, ColCopy, Err), Tag + " A * col");
      expectBitIdentical(RowA, matMul(RowCopy, Right, Err), Tag + " row * B");
      // A row broadcast on the right is packed, and still reads the same.
      expectBitIdentical(matMul(Left, RowView, Err),
                         matMul(Left, RowCopy, Err), Tag + " A * row");
      Value Narrow = randomValue(Rng, M, 8);
      expectBitIdentical(matMul(transpose(ColView), Narrow, Err),
                         matMul(denseCopy(transpose(ColView)), Narrow, Err),
                         Tag + " col' * B");
    }
  }
}

/// Fills \p N doubles with random values and the IEEE specials.
std::vector<double> randomPayload(TestRng &Rng, size_t N) {
  Value V = randomWithSpecials(Rng, N, 1);
  std::vector<double> Out(N);
  for (size_t I = 0; I != N; ++I)
    Out[I] = V.linear(I);
  return Out;
}

TEST(SimdDifferentialTest, DotReduceBitExactAcrossLevels) {
  // Chain lengths and lane counts straddle every vector width; each
  // operand walks in one of the layouts the interpreter hands the leaf
  // (K, L are the chain and lane counts).
  struct Layout {
    const char *Name;
    size_t (*KS)(size_t K, size_t L);
    size_t (*LS)(size_t K, size_t L);
  };
  const Layout Layouts[] = {
      {"dense", [](size_t, size_t) -> size_t { return 1; },
       [](size_t K, size_t) -> size_t { return K; }},
      {"ld", [](size_t, size_t) -> size_t { return 1; },
       [](size_t K, size_t) -> size_t { return K + 3; }},
      {"trans", [](size_t, size_t L) -> size_t { return L; },
       [](size_t, size_t) -> size_t { return 1; }},
      {"trans-ld", [](size_t, size_t L) -> size_t { return L + 2; },
       [](size_t, size_t) -> size_t { return 1; }},
      {"k-step0", [](size_t, size_t) -> size_t { return 0; },
       [](size_t, size_t) -> size_t { return 1; }},
      {"lane-step0", [](size_t, size_t) -> size_t { return 1; },
       [](size_t, size_t) -> size_t { return 0; }},
      {"scalar", [](size_t, size_t) -> size_t { return 0; },
       [](size_t, size_t) -> size_t { return 0; }},
      {"gather", [](size_t, size_t) -> size_t { return 2; },
       [](size_t K, size_t) -> size_t { return 2 * K + 1; }},
  };
  const size_t Ks[] = {0, 1, 3, 4, 5, 8, 9, 17};
  const size_t Ls[] = {1, 2, 3, 4, 5, 7, 8, 9, 13};
  TestRng Rng(0xD07);
  for (size_t K : Ks)
    for (size_t L : Ls)
      for (const Layout &LA : Layouts)
        for (const Layout &LB : Layouts) {
          size_t AK = LA.KS(K, L), AL = LA.LS(K, L);
          size_t BK = LB.KS(K, L), BL = LB.LS(K, L);
          auto Extent = [&](size_t KS, size_t LS) {
            return (K ? (K - 1) * KS : 0) + (L - 1) * LS + 1;
          };
          std::vector<double> A = randomPayload(Rng, Extent(AK, AL));
          std::vector<double> B = randomPayload(Rng, Extent(BK, BL));
          std::string Tag = std::string(LA.Name) + " x " + LB.Name + " K=" +
                            std::to_string(K) + " L=" + std::to_string(L);
          // The reference: the column and row sums of the materialized
          // product (lanes as columns, then as rows).
          Value Cols(K, L), Rows(L, K);
          for (size_t Lane = 0; Lane != L; ++Lane)
            for (size_t Step = 0; Step != K; ++Step) {
              double P = A[Step * AK + Lane * AL] * B[Step * BK + Lane * BL];
              Cols.at(Step, Lane) = P;
              Rows.at(Lane, Step) = P;
            }
          Value ByCols(1, L), ByRows(L, 1);
          {
            ScopedSimdLevel Pin(simd::Level::Scalar);
            const simd::KernelTable &Ref = simd::kernels();
            Ref.ColSums(Cols.raw(), K, L, ByCols.mutableRaw());
            Ref.RowSums(Rows.raw(), L, K, ByRows.mutableRaw());
          }
          for (simd::Level Lv : supportedLevels()) {
            ScopedSimdLevel Pin(Lv);
            Value Got(1, L);
            simd::kernels().DotReduce(A.data(), AK, AL, B.data(), BK, BL,
                                      Got.mutableRaw(), K, L);
            std::string What = std::string(simd::levelName(Lv)) + " " + Tag;
            expectBitIdentical(Got, ByCols, What + " vs colsums");
            Got.reshapeTo(L, 1);
            expectBitIdentical(Got, ByRows, What + " vs rowsums");
          }
        }
}

TEST(DifferentialTest, SumOfProductsMatchesTheTwoStepPath) {
  // Every operand layout (plain, strided, transposed, broadcast, scalar)
  // and the empties: the one-pass reduce equals sumAlong of the product
  // to the bit, builds the same product, and charges the same bytes.
  const size_t Shapes[][2] = {{1, 1}, {1, 9}, {9, 1}, {5, 7},
                              {17, 9}, {0, 3}, {3, 0}};
  TestRng Rng(0x50F);
  for (const auto &Shape : Shapes) {
    size_t R = Shape[0], C = Shape[1];
    Value A = randomWithSpecials(Rng, R, C);
    Value B = randomWithSpecials(Rng, R, C);
    std::vector<std::pair<std::string, Value>> As = layoutsOf(A), Bs;
    for (auto &[Name, V] : layoutsOf(B))
      Bs.emplace_back(Name, V);
    Bs.emplace_back("scalar", Value::scalar(Rng.next()));
    if (R > 1 && C > 1) {
      Bs.emplace_back("col-bcast", repmat(randomWithSpecials(Rng, R, 1), 1, C));
      Bs.emplace_back("row-bcast", repmat(randomWithSpecials(Rng, 1, C), R, 1));
    }
    for (simd::Level L : supportedLevels()) {
      ScopedSimdLevel Pin(L);
      for (const auto &[AName, AV] : As)
        for (const auto &[BName, BV] : Bs)
          for (bool Swap : {false, true}) {
            const Value &X = Swap ? BV : AV, &Y = Swap ? AV : BV;
            std::string Tag = std::string(simd::levelName(L)) + " " +
                              std::to_string(R) + "x" + std::to_string(C) +
                              " " + (Swap ? BName + " .* " + AName
                                          : AName + " .* " + BName);
            for (unsigned Dim : {1u, 2u}) {
              ResourceGovernor Two(0), One(0);
              Value Want;
              {
                GovernorScope Scope(&Two);
                OpError Err;
                Value Prod = elementwiseBinary(BinaryOp::DotMul, X, Y, Err);
                ASSERT_FALSE(Err.failed()) << Tag;
                Want = sumAlong(Prod, Dim);
              }
              Value Got;
              {
                GovernorScope Scope(&One);
                PendingProduct P;
                OpError Err;
                ASSERT_TRUE(pendingProduct(X, Y, P, Err)) << Tag;
                Got = sumOfProducts(P, Dim);
              }
              expectBitIdentical(Got, Want, Tag + " dim " +
                                                std::to_string(Dim));
              EXPECT_EQ(One.usedBytes(), Two.usedBytes()) << Tag;
            }
            PendingProduct P;
            OpError E1, E2;
            ASSERT_TRUE(pendingProduct(X, Y, P, E1));
            expectBitIdentical(buildProduct(P),
                               elementwiseBinary(BinaryOp::DotMul, X, Y, E2),
                               Tag + " product");
          }
    }
  }
  // A shape mismatch reports elementwiseBinary's error and charges nothing.
  Value Wide(2, 3), Tall(3, 2);
  ResourceGovernor G(0);
  GovernorScope Scope(&G);
  PendingProduct P;
  OpError Fused, TwoStep;
  EXPECT_FALSE(pendingProduct(Wide, Tall, P, Fused));
  elementwiseBinary(BinaryOp::DotMul, Wide, Tall, TwoStep);
  EXPECT_EQ(Fused.Message, TwoStep.Message);
  EXPECT_EQ(G.usedBytes(), 0u);
}
