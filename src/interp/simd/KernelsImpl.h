//===- KernelsImpl.h - Shared per-ISA kernel implementation -----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one kernel implementation every ISA translation unit compiles.
/// Include it after defining:
///
///   MVEC_SIMD_IMPL_NS        namespace for this build (e.g. avx2_impl)
///   MVEC_SIMD_IMPL_LEVEL     the simd::Level this table claims
///   MVEC_SIMD_IMPL_NAME      display name ("avx2")
///   MVEC_SIMD_WIDTH          doubles per vector register: 1, 2 or 4
///   MVEC_SIMD_TABLE_ACCESSOR name of the detail::<fn>() accessor defined
///
/// Width 1 produces the portable scalar loops (the differential-testing
/// reference — these are byte-for-byte the loops MatrixOps.cpp ran before
/// the backend split). Widths 2/4 produce SSE/AVX intrinsic bodies; the
/// same source compiled with different ISA flags is what makes the tiers
/// comparable: the per-element arithmetic is identical, only the lane
/// count and instruction encoding differ.
///
/// Exact-semantics rules (see SimdDispatch.h): no hardware FMA, no
/// reassociation — vector lanes always map to *independent* output
/// elements, so each output's operation sequence matches the scalar loop
/// exactly, and results are bit-identical across every table.
///
//===----------------------------------------------------------------------===//

#include "interp/simd/SimdDispatch.h"

#include <cstddef>

#if MVEC_SIMD_WIDTH > 1
#include <immintrin.h>
#endif

namespace mvec::simd {
namespace MVEC_SIMD_IMPL_NS {
namespace {

constexpr size_t W = MVEC_SIMD_WIDTH;

//===----------------------------------------------------------------------===//
// Scalar helpers (vector-loop tails, and the whole width-1 build)
//===----------------------------------------------------------------------===//

inline double sCmp(CmpPred Pred, double A, double B) {
  switch (Pred) {
  case CmpPred::Lt:
    return A < B ? 1.0 : 0.0;
  case CmpPred::Gt:
    return A > B ? 1.0 : 0.0;
  case CmpPred::Le:
    return A <= B ? 1.0 : 0.0;
  case CmpPred::Ge:
    return A >= B ? 1.0 : 0.0;
  case CmpPred::Eq:
    return A == B ? 1.0 : 0.0;
  case CmpPred::Ne:
    return A != B ? 1.0 : 0.0;
  case CmpPred::And:
    return (A != 0.0 && B != 0.0) ? 1.0 : 0.0;
  case CmpPred::Or:
    return (A != 0.0 || B != 0.0) ? 1.0 : 0.0;
  }
  return 0.0;
}

inline double sFma(FmaMode Mode, double A, double B, double C) {
  double P = A * B; // one rounding for the product ...
  switch (Mode) {
  case FmaMode::MulAdd:
    return P + C; // ... and one for the sum: never contracted.
  case FmaMode::MulSub:
    return P - C;
  case FmaMode::RevSub:
    return C - P;
  }
  return 0.0;
}

//===----------------------------------------------------------------------===//
// Vector primitive layer (widths 2 and 4)
//===----------------------------------------------------------------------===//

#if MVEC_SIMD_WIDTH == 4

using VD = __m256d;
inline VD vLoad(const double *P) { return _mm256_loadu_pd(P); }
inline void vStore(double *P, VD V) { _mm256_storeu_pd(P, V); }
inline VD vSet1(double X) { return _mm256_set1_pd(X); }
inline VD vZero() { return _mm256_setzero_pd(); }
inline VD vAdd(VD A, VD B) { return _mm256_add_pd(A, B); }
inline VD vSub(VD A, VD B) { return _mm256_sub_pd(A, B); }
inline VD vMul(VD A, VD B) { return _mm256_mul_pd(A, B); }
inline VD vDiv(VD A, VD B) { return _mm256_div_pd(A, B); }
inline VD vAnd(VD A, VD B) { return _mm256_and_pd(A, B); }
inline VD vOr(VD A, VD B) { return _mm256_or_pd(A, B); }
inline VD vXor(VD A, VD B) { return _mm256_xor_pd(A, B); }

/// Lanes from a strided walk: {P[0], P[S], P[2S], P[3S]}.
inline VD vGatherStride(const double *P, size_t S) {
  return _mm256_set_pd(P[3 * S], P[2 * S], P[S], P[0]);
}

/// All-ones lane mask per the IEEE predicate. Ordered-quiet compares give
/// scalar semantics for NaN (false; Ne is unordered, so NaN gives true).
inline VD vCmpMask(CmpPred Pred, VD A, VD B) {
  switch (Pred) {
  case CmpPred::Lt:
    return _mm256_cmp_pd(A, B, _CMP_LT_OQ);
  case CmpPred::Gt:
    return _mm256_cmp_pd(A, B, _CMP_GT_OQ);
  case CmpPred::Le:
    return _mm256_cmp_pd(A, B, _CMP_LE_OQ);
  case CmpPred::Ge:
    return _mm256_cmp_pd(A, B, _CMP_GE_OQ);
  case CmpPred::Eq:
    return _mm256_cmp_pd(A, B, _CMP_EQ_OQ);
  case CmpPred::Ne:
    return _mm256_cmp_pd(A, B, _CMP_NEQ_UQ);
  case CmpPred::And:
    return vAnd(_mm256_cmp_pd(A, vZero(), _CMP_NEQ_UQ),
                _mm256_cmp_pd(B, vZero(), _CMP_NEQ_UQ));
  case CmpPred::Or:
    return vOr(_mm256_cmp_pd(A, vZero(), _CMP_NEQ_UQ),
               _mm256_cmp_pd(B, vZero(), _CMP_NEQ_UQ));
  }
  return vZero();
}

/// In-register 4x4 transpose: four column fragments (rows I..I+3 of
/// columns J..J+3) become four row vectors across those columns.
inline void vTranspose(VD &C0, VD &C1, VD &C2, VD &C3) {
  VD T0 = _mm256_unpacklo_pd(C0, C1);
  VD T1 = _mm256_unpackhi_pd(C0, C1);
  VD T2 = _mm256_unpacklo_pd(C2, C3);
  VD T3 = _mm256_unpackhi_pd(C2, C3);
  C0 = _mm256_permute2f128_pd(T0, T2, 0x20);
  C1 = _mm256_permute2f128_pd(T1, T3, 0x20);
  C2 = _mm256_permute2f128_pd(T0, T2, 0x31);
  C3 = _mm256_permute2f128_pd(T1, T3, 0x31);
}

#elif MVEC_SIMD_WIDTH == 2

using VD = __m128d;
inline VD vLoad(const double *P) { return _mm_loadu_pd(P); }
inline void vStore(double *P, VD V) { _mm_storeu_pd(P, V); }
inline VD vSet1(double X) { return _mm_set1_pd(X); }
inline VD vZero() { return _mm_setzero_pd(); }
inline VD vAdd(VD A, VD B) { return _mm_add_pd(A, B); }
inline VD vSub(VD A, VD B) { return _mm_sub_pd(A, B); }
inline VD vMul(VD A, VD B) { return _mm_mul_pd(A, B); }
inline VD vDiv(VD A, VD B) { return _mm_div_pd(A, B); }
inline VD vAnd(VD A, VD B) { return _mm_and_pd(A, B); }
inline VD vOr(VD A, VD B) { return _mm_or_pd(A, B); }
inline VD vXor(VD A, VD B) { return _mm_xor_pd(A, B); }

inline VD vGatherStride(const double *P, size_t S) {
  return _mm_set_pd(P[S], P[0]);
}

inline VD vCmpMask(CmpPred Pred, VD A, VD B) {
  switch (Pred) {
  case CmpPred::Lt:
    return _mm_cmplt_pd(A, B);
  case CmpPred::Gt:
    return _mm_cmpgt_pd(A, B);
  case CmpPred::Le:
    return _mm_cmple_pd(A, B);
  case CmpPred::Ge:
    return _mm_cmpge_pd(A, B);
  case CmpPred::Eq:
    return _mm_cmpeq_pd(A, B);
  case CmpPred::Ne:
    return _mm_cmpneq_pd(A, B);
  case CmpPred::And:
    return vAnd(_mm_cmpneq_pd(A, vZero()), _mm_cmpneq_pd(B, vZero()));
  case CmpPred::Or:
    return vOr(_mm_cmpneq_pd(A, vZero()), _mm_cmpneq_pd(B, vZero()));
  }
  return vZero();
}

inline void vTranspose(VD &C0, VD &C1) {
  VD T0 = _mm_unpacklo_pd(C0, C1);
  C1 = _mm_unpackhi_pd(C0, C1);
  C0 = T0;
}

#endif // MVEC_SIMD_WIDTH

//===----------------------------------------------------------------------===//
// Elementwise binary arithmetic
//===----------------------------------------------------------------------===//

#if MVEC_SIMD_WIDTH == 1

#define MVEC_EW_KERNEL(NAME, SEXPR)                                           \
  void NAME(const double *A, size_t SA, const double *B, size_t SB,           \
            double *R, size_t N) {                                            \
    for (size_t I = 0; I != N; ++I) {                                         \
      double X = A[I * SA], Y = B[I * SB];                                    \
      R[I] = (SEXPR);                                                         \
    }                                                                         \
  }

#else

#define MVEC_EW_KERNEL(NAME, SEXPR)                                           \
  void NAME(const double *A, size_t SA, const double *B, size_t SB,           \
            double *R, size_t N) {                                            \
    size_t I = 0;                                                             \
    if (SA == 1 && SB == 1) {                                                 \
      for (; I + W <= N; I += W)                                              \
        vStore(R + I, vEw_##NAME(vLoad(A + I), vLoad(B + I)));                \
    } else if (SA == 0 && SB == 1) {                                          \
      VD VA = vSet1(A[0]);                                                    \
      for (; I + W <= N; I += W)                                              \
        vStore(R + I, vEw_##NAME(VA, vLoad(B + I)));                          \
    } else if (SA == 1 && SB == 0) {                                          \
      VD VB = vSet1(B[0]);                                                    \
      for (; I + W <= N; I += W)                                              \
        vStore(R + I, vEw_##NAME(vLoad(A + I), VB));                          \
    }                                                                         \
    for (; I != N; ++I) {                                                     \
      double X = A[I * SA], Y = B[I * SB];                                    \
      R[I] = (SEXPR);                                                         \
    }                                                                         \
  }

inline VD vEw_ewAdd(VD A, VD B) { return vAdd(A, B); }
inline VD vEw_ewSub(VD A, VD B) { return vSub(A, B); }
inline VD vEw_ewMul(VD A, VD B) { return vMul(A, B); }
inline VD vEw_ewDiv(VD A, VD B) { return vDiv(A, B); }

#endif

MVEC_EW_KERNEL(ewAdd, X + Y)
MVEC_EW_KERNEL(ewSub, X - Y)
MVEC_EW_KERNEL(ewMul, X *Y)
MVEC_EW_KERNEL(ewDiv, X / Y)

#undef MVEC_EW_KERNEL

//===----------------------------------------------------------------------===//
// Comparisons and elementwise logic (MATLAB logical 1.0/0.0 results)
//===----------------------------------------------------------------------===//

void ewCmp(CmpPred Pred, const double *A, size_t SA, const double *B,
           size_t SB, double *R, size_t N) {
  size_t I = 0;
#if MVEC_SIMD_WIDTH > 1
  VD One = vSet1(1.0);
  if (SA == 1 && SB == 1) {
    for (; I + W <= N; I += W)
      vStore(R + I, vAnd(vCmpMask(Pred, vLoad(A + I), vLoad(B + I)), One));
  } else if (SA == 0 && SB == 1) {
    VD VA = vSet1(A[0]);
    for (; I + W <= N; I += W)
      vStore(R + I, vAnd(vCmpMask(Pred, VA, vLoad(B + I)), One));
  } else if (SA == 1 && SB == 0) {
    VD VB = vSet1(B[0]);
    for (; I + W <= N; I += W)
      vStore(R + I, vAnd(vCmpMask(Pred, vLoad(A + I), VB), One));
  }
#endif
  for (; I != N; ++I)
    R[I] = sCmp(Pred, A[I * SA], B[I * SB]);
}

//===----------------------------------------------------------------------===//
// Fused elementwise multiply-add
//===----------------------------------------------------------------------===//

void fusedMulAdd(FmaMode Mode, const double *A, size_t SA, const double *B,
                 size_t SB, const double *C, size_t SC, double *R, size_t N) {
  if (N == 0)
    return;
  size_t I = 0;
#if MVEC_SIMD_WIDTH > 1
  // Splats are loop-invariant; strides select lane loads vs replay. The
  // stride branches are loop-invariant too, so the compiler unswitches.
  // Steps other than 0 and 1 take the scalar loop.
  VD SplA = vSet1(A[0]), SplB = vSet1(B[0]), SplC = vSet1(C[0]);
  if (SA <= 1 && SB <= 1 && SC <= 1)
    for (; I + W <= N; I += W) {
      VD VA = SA ? vLoad(A + I) : SplA;
      VD VB = SB ? vLoad(B + I) : SplB;
      VD VC = SC ? vLoad(C + I) : SplC;
      VD P = vMul(VA, VB);
      vStore(R + I, Mode == FmaMode::MulAdd   ? vAdd(P, VC)
                    : Mode == FmaMode::MulSub ? vSub(P, VC)
                                              : vSub(VC, P));
    }
#endif
  for (; I != N; ++I)
    R[I] = sFma(Mode, A[I * SA], B[I * SB], C[I * SC]);
}

//===----------------------------------------------------------------------===//
// Unary elementwise
//===----------------------------------------------------------------------===//

void unaryNeg(const double *A, double *R, size_t N) {
  size_t I = 0;
#if MVEC_SIMD_WIDTH > 1
  VD SignBit = vSet1(-0.0); // flip only the sign bit: exactly scalar '-x'
  for (; I + W <= N; I += W)
    vStore(R + I, vXor(vLoad(A + I), SignBit));
#endif
  for (; I != N; ++I)
    R[I] = -A[I];
}

void unaryNot(const double *A, double *R, size_t N) {
  size_t I = 0;
#if MVEC_SIMD_WIDTH > 1
  VD One = vSet1(1.0);
  for (; I + W <= N; I += W)
    vStore(R + I, vAnd(vCmpMask(CmpPred::Eq, vLoad(A + I), vZero()), One));
#endif
  for (; I != N; ++I)
    R[I] = A[I] == 0.0 ? 1.0 : 0.0;
}

//===----------------------------------------------------------------------===//
// Blocked matmul inner tile
//===----------------------------------------------------------------------===//

#if MVEC_SIMD_WIDTH == 1

void matMulTile(const double *AD, size_t Lda, const double *BD, size_t Ldb,
                double *RD, size_t M, size_t P0, size_t P1, size_t J0,
                size_t J1) {
  for (size_t J = J0; J != J1; ++J) {
    double *RCol = RD + J * M;
    const double *BCol = BD + J * Ldb;
    for (size_t P = P0; P != P1; ++P) {
      double BV = BCol[P];
      if (BV == 0.0)
        continue;
      const double *ACol = AD + P * Lda;
      for (size_t I = 0; I != M; ++I)
        RCol[I] += ACol[I] * BV;
    }
  }
}

/// The reference A' * B tile: one dot product of an A column with a B
/// column per output element, in the order matMulTile would accumulate
/// it against a materialized transpose.
void matMulTransA(const double *AD, size_t Lda, const double *BD, size_t Ldb,
                  double *RD, size_t M, size_t P0, size_t P1, size_t J0,
                  size_t J1) {
  for (size_t J = J0; J != J1; ++J) {
    const double *BCol = BD + J * Ldb;
    for (size_t I = 0; I != M; ++I) {
      const double *ACol = AD + I * Lda;
      double Acc = RD[J * M + I];
      for (size_t P = P0; P != P1; ++P) {
        double BV = BCol[P];
        if (BV != 0.0)
          Acc += ACol[P] * BV;
      }
      RD[J * M + I] = Acc;
    }
  }
}

#else

/// One output row against columns [J0, J1) of B: R[J * RS] += X(P0:P1) *
/// B(P0:P1, J), with the row's multipliers contiguous in X. Eight columns
/// accumulate in independent registers so their chains (and their B
/// streams) overlap; each keeps the scalar kernel's ascending-P order and
/// per-element zero skip.
inline void rowTile(const double *X, const double *BD, double *RD, size_t RS,
                    size_t Ldb, size_t P0, size_t P1, size_t J0, size_t J1) {
  size_t J = J0;
  for (; J + 8 <= J1; J += 8) {
    const double *B = BD + J * Ldb;
    double Acc[8];
    for (size_t C = 0; C != 8; ++C)
      Acc[C] = RD[(J + C) * RS];
    for (size_t P = P0; P != P1; ++P) {
      double XV = X[P];
      for (size_t C = 0; C != 8; ++C) {
        double BV = B[C * Ldb + P];
        if (BV != 0.0)
          Acc[C] += XV * BV;
      }
    }
    for (size_t C = 0; C != 8; ++C)
      RD[(J + C) * RS] = Acc[C];
  }
  for (; J != J1; ++J) {
    const double *BCol = BD + J * Ldb;
    double Acc = RD[J * RS];
    for (size_t P = P0; P != P1; ++P)
      if (BCol[P] != 0.0)
        Acc += X[P] * BCol[P];
    RD[J * RS] = Acc;
  }
}

/// One result column += A panel * one B column, with the scalar kernel's
/// per-P zero skip. Lanes are independent rows; per element the adds over
/// P happen in the same ascending order as the scalar loop.
inline void axpyPanel(const double *AD, size_t Lda, const double *BCol,
                      double *RCol, size_t M, size_t P0, size_t P1) {
  for (size_t P = P0; P != P1; ++P) {
    double BV = BCol[P];
    if (BV == 0.0)
      continue;
    const double *ACol = AD + P * Lda;
    VD VB = vSet1(BV);
    size_t I = 0;
    for (; I + W <= M; I += W)
      vStore(RCol + I, vAdd(vLoad(RCol + I), vMul(vLoad(ACol + I), VB)));
    for (; I != M; ++I)
      RCol[I] += ACol[I] * BV;
  }
}

/// Register-blocked 4-column micro-kernel: accumulators for a 2W x 4 tile
/// of R stay in registers across the whole P panel, and each A load feeds
/// all four columns. Only legal when the panel holds no zero B element —
/// the caller checked, so the scalar kernel's zero-skip can't diverge.
inline void panel4(const double *AD, size_t Lda, const double *B0,
                   const double *B1, const double *B2, const double *B3,
                   double *R0, double *R1, double *R2, double *R3, size_t M,
                   size_t P0, size_t P1) {
  size_t I = 0;
  for (; I + 2 * W <= M; I += 2 * W) {
    VD C00 = vLoad(R0 + I), C01 = vLoad(R0 + I + W);
    VD C10 = vLoad(R1 + I), C11 = vLoad(R1 + I + W);
    VD C20 = vLoad(R2 + I), C21 = vLoad(R2 + I + W);
    VD C30 = vLoad(R3 + I), C31 = vLoad(R3 + I + W);
    for (size_t P = P0; P != P1; ++P) {
      const double *ACol = AD + P * Lda;
      VD A0 = vLoad(ACol + I), A1 = vLoad(ACol + I + W);
      VD VB0 = vSet1(B0[P]);
      C00 = vAdd(C00, vMul(A0, VB0));
      C01 = vAdd(C01, vMul(A1, VB0));
      VD VB1 = vSet1(B1[P]);
      C10 = vAdd(C10, vMul(A0, VB1));
      C11 = vAdd(C11, vMul(A1, VB1));
      VD VB2 = vSet1(B2[P]);
      C20 = vAdd(C20, vMul(A0, VB2));
      C21 = vAdd(C21, vMul(A1, VB2));
      VD VB3 = vSet1(B3[P]);
      C30 = vAdd(C30, vMul(A0, VB3));
      C31 = vAdd(C31, vMul(A1, VB3));
    }
    vStore(R0 + I, C00);
    vStore(R0 + I + W, C01);
    vStore(R1 + I, C10);
    vStore(R1 + I + W, C11);
    vStore(R2 + I, C20);
    vStore(R2 + I + W, C21);
    vStore(R3 + I, C30);
    vStore(R3 + I + W, C31);
  }
  for (; I + W <= M; I += W) {
    VD C0 = vLoad(R0 + I), C1 = vLoad(R1 + I);
    VD C2 = vLoad(R2 + I), C3 = vLoad(R3 + I);
    for (size_t P = P0; P != P1; ++P) {
      VD A0 = vLoad(AD + P * Lda + I);
      C0 = vAdd(C0, vMul(A0, vSet1(B0[P])));
      C1 = vAdd(C1, vMul(A0, vSet1(B1[P])));
      C2 = vAdd(C2, vMul(A0, vSet1(B2[P])));
      C3 = vAdd(C3, vMul(A0, vSet1(B3[P])));
    }
    vStore(R0 + I, C0);
    vStore(R1 + I, C1);
    vStore(R2 + I, C2);
    vStore(R3 + I, C3);
  }
  for (; I != M; ++I) {
    double Acc0 = R0[I], Acc1 = R1[I], Acc2 = R2[I], Acc3 = R3[I];
    for (size_t P = P0; P != P1; ++P) {
      double AV = AD[P * Lda + I];
      Acc0 += AV * B0[P];
      Acc1 += AV * B1[P];
      Acc2 += AV * B2[P];
      Acc3 += AV * B3[P];
    }
    R0[I] = Acc0;
    R1[I] = Acc1;
    R2[I] = Acc2;
    R3[I] = Acc3;
  }
}

void matMulTile(const double *AD, size_t Lda, const double *BD, size_t Ldb,
                double *RD, size_t M, size_t P0, size_t P1, size_t J0,
                size_t J1) {
  // A row vector has no lanes to fill along M; its multipliers are
  // contiguous, so the product is a set of column dot products.
  if (M == 1) {
    rowTile(AD, BD, RD, 1, Ldb, P0, P1, J0, J1);
    return;
  }
  size_t J = J0;
  for (; J + 4 <= J1; J += 4) {
    const double *B0 = BD + J * Ldb, *B1 = B0 + Ldb, *B2 = B1 + Ldb,
                 *B3 = B2 + Ldb;
    double *R0 = RD + J * M, *R1 = R0 + M, *R2 = R1 + M, *R3 = R2 + M;
    // The register-blocked path cannot honor the per-(column, P) zero
    // skip, so it only runs on zero-free panels; real matrices (rand()
    // payloads) essentially never hit the fallback.
    bool HasZero = false;
    for (size_t P = P0; P != P1 && !HasZero; ++P)
      HasZero =
          B0[P] == 0.0 || B1[P] == 0.0 || B2[P] == 0.0 || B3[P] == 0.0;
    if (!HasZero) {
      panel4(AD, Lda, B0, B1, B2, B3, R0, R1, R2, R3, M, P0, P1);
    } else {
      axpyPanel(AD, Lda, B0, R0, M, P0, P1);
      axpyPanel(AD, Lda, B1, R1, M, P0, P1);
      axpyPanel(AD, Lda, B2, R2, M, P0, P1);
      axpyPanel(AD, Lda, B3, R3, M, P0, P1);
    }
  }
  for (; J != J1; ++J)
    axpyPanel(AD, Lda, BD + J * Ldb, RD + J * M, M, P0, P1);
}

/// Loads A(P:P+W, I:I+W) of a column-major A with leading dimension Ld,
/// transposed in registers: V[k] holds row P+k across columns I..I+W-1.
inline void loadRowsAcross(const double *Src, size_t Ld, VD *V) {
#if MVEC_SIMD_WIDTH == 4
  V[0] = vLoad(Src);
  V[1] = vLoad(Src + Ld);
  V[2] = vLoad(Src + 2 * Ld);
  V[3] = vLoad(Src + 3 * Ld);
  vTranspose(V[0], V[1], V[2], V[3]);
#else
  V[0] = vLoad(Src);
  V[1] = vLoad(Src + Ld);
  vTranspose(V[0], V[1]);
#endif
}

/// A' * B for W output rows (A columns I..I+W-1, one per lane) against
/// one B column, with the per-(P, column) zero skip: B(P, J) is the same
/// for every lane, so the skip is a plain branch.
inline void transAColumn(const double *AD, size_t Lda, const double *BCol,
                         double *RCol, size_t I, size_t P0, size_t P1) {
  const double *ABlock = AD + I * Lda;
  VD Acc = vLoad(RCol + I);
  size_t P = P0;
  for (; P + W <= P1; P += W) {
    VD V[W];
    loadRowsAcross(ABlock + P, Lda, V);
    for (size_t Q = 0; Q != W; ++Q)
      if (BCol[P + Q] != 0.0)
        Acc = vAdd(Acc, vMul(V[Q], vSet1(BCol[P + Q])));
  }
  for (; P != P1; ++P)
    if (BCol[P] != 0.0)
      Acc = vAdd(Acc, vMul(vGatherStride(ABlock + P, Lda), vSet1(BCol[P])));
  vStore(RCol + I, Acc);
}

/// A' * B for W output rows against four zero-free B columns: the four
/// accumulators stay in registers across the P range and every
/// transposed A load feeds all four.
inline void transAPanel4(const double *AD, size_t Lda, const double *B0,
                         const double *B1, const double *B2, const double *B3,
                         double *R0, double *R1, double *R2, double *R3,
                         size_t I, size_t P0, size_t P1) {
  const double *ABlock = AD + I * Lda;
  VD C0 = vLoad(R0 + I), C1 = vLoad(R1 + I);
  VD C2 = vLoad(R2 + I), C3 = vLoad(R3 + I);
  size_t P = P0;
  for (; P + W <= P1; P += W) {
    VD V[W];
    loadRowsAcross(ABlock + P, Lda, V);
    for (size_t Q = 0; Q != W; ++Q) {
      C0 = vAdd(C0, vMul(V[Q], vSet1(B0[P + Q])));
      C1 = vAdd(C1, vMul(V[Q], vSet1(B1[P + Q])));
      C2 = vAdd(C2, vMul(V[Q], vSet1(B2[P + Q])));
      C3 = vAdd(C3, vMul(V[Q], vSet1(B3[P + Q])));
    }
  }
  for (; P != P1; ++P) {
    VD VA = vGatherStride(ABlock + P, Lda);
    C0 = vAdd(C0, vMul(VA, vSet1(B0[P])));
    C1 = vAdd(C1, vMul(VA, vSet1(B1[P])));
    C2 = vAdd(C2, vMul(VA, vSet1(B2[P])));
    C3 = vAdd(C3, vMul(VA, vSet1(B3[P])));
  }
  vStore(R0 + I, C0);
  vStore(R1 + I, C1);
  vStore(R2 + I, C2);
  vStore(R3 + I, C3);
}

/// A' * B with A stored K x M: lanes are W adjacent A columns (output
/// rows), brought across by in-register transposes, so every output
/// element is still one ascending-P chain. Rows past the last full lane
/// group are column dot products (rowTile).
void matMulTransA(const double *AD, size_t Lda, const double *BD, size_t Ldb,
                  double *RD, size_t M, size_t P0, size_t P1, size_t J0,
                  size_t J1) {
  size_t MainRows = M - M % W;
  size_t J = J0;
  for (; J + 4 <= J1; J += 4) {
    const double *B0 = BD + J * Ldb, *B1 = B0 + Ldb, *B2 = B1 + Ldb,
                 *B3 = B2 + Ldb;
    double *R0 = RD + J * M, *R1 = R0 + M, *R2 = R1 + M, *R3 = R2 + M;
    bool HasZero = false;
    for (size_t P = P0; P != P1 && !HasZero; ++P)
      HasZero =
          B0[P] == 0.0 || B1[P] == 0.0 || B2[P] == 0.0 || B3[P] == 0.0;
    for (size_t I = 0; I != MainRows; I += W) {
      if (!HasZero) {
        transAPanel4(AD, Lda, B0, B1, B2, B3, R0, R1, R2, R3, I, P0, P1);
      } else {
        transAColumn(AD, Lda, B0, R0, I, P0, P1);
        transAColumn(AD, Lda, B1, R1, I, P0, P1);
        transAColumn(AD, Lda, B2, R2, I, P0, P1);
        transAColumn(AD, Lda, B3, R3, I, P0, P1);
      }
    }
  }
  for (; J != J1; ++J)
    for (size_t I = 0; I != MainRows; I += W)
      transAColumn(AD, Lda, BD + J * Ldb, RD + J * M, I, P0, P1);
  for (size_t I = MainRows; I != M; ++I)
    rowTile(AD + I * Lda, BD, RD + I, M, Ldb, P0, P1, J0, J1);
}

#endif // MVEC_SIMD_WIDTH

//===----------------------------------------------------------------------===//
// Order-preserving reductions
//===----------------------------------------------------------------------===//

#if MVEC_SIMD_WIDTH == 1

#define MVEC_COL_REDUCE(NAME, INIT, SOP)                                      \
  void NAME(const double *AD, size_t Rows, size_t Cols, double *Out) {        \
    for (size_t J = 0; J != Cols; ++J) {                                      \
      double Acc = (INIT);                                                    \
      const double *Col = AD + J * Rows;                                      \
      for (size_t I = 0; I != Rows; ++I)                                      \
        Acc = Acc SOP Col[I];                                                 \
      Out[J] = Acc;                                                           \
    }                                                                         \
  }

#else

// One vector op per reduce kernel so a single macro body serves sums (+)
// and prods (*).
inline VD vVop_colSums(VD A, VD B) { return vAdd(A, B); }
inline VD vVop_colProds(VD A, VD B) { return vMul(A, B); }

#if MVEC_SIMD_WIDTH == 4
#define MVEC_COL_REDUCE_BLOCK(NAME)                                           \
  VD V2 = vLoad(AD + (J + 2) * Rows + I);                                     \
  VD V3 = vLoad(AD + (J + 3) * Rows + I);                                     \
  vTranspose(V0, V1, V2, V3);                                                 \
  Acc = vVop_##NAME(Acc, V0);                                                 \
  Acc = vVop_##NAME(Acc, V1);                                                 \
  Acc = vVop_##NAME(Acc, V2);                                                 \
  Acc = vVop_##NAME(Acc, V3);
#else
#define MVEC_COL_REDUCE_BLOCK(NAME)                                           \
  vTranspose(V0, V1);                                                         \
  Acc = vVop_##NAME(Acc, V0);                                                 \
  Acc = vVop_##NAME(Acc, V1);
#endif

/// Columns reduce in ascending row order per lane; lanes are independent
/// columns, so no accumulation chain is ever reassociated. The WxW
/// transpose turns contiguous column loads into across-column row vectors.
#define MVEC_COL_REDUCE(NAME, INIT, SOP)                                      \
  void NAME(const double *AD, size_t Rows, size_t Cols, double *Out) {        \
    size_t J = 0;                                                             \
    for (; J + W <= Cols; J += W) {                                           \
      VD Acc = vSet1(INIT);                                                   \
      size_t I = 0;                                                           \
      for (; I + W <= Rows; I += W) {                                         \
        VD V0 = vLoad(AD + (J + 0) * Rows + I);                               \
        VD V1 = vLoad(AD + (J + 1) * Rows + I);                               \
        MVEC_COL_REDUCE_BLOCK(NAME)                                           \
      }                                                                       \
      for (; I != Rows; ++I)                                                  \
        Acc = vVop_##NAME(Acc, vGatherStride(AD + J * Rows + I, Rows));       \
      vStore(Out + J, Acc);                                                   \
    }                                                                         \
    for (; J != Cols; ++J) {                                                  \
      double Acc = (INIT);                                                    \
      const double *Col = AD + J * Rows;                                      \
      for (size_t I = 0; I != Rows; ++I)                                      \
        Acc = Acc SOP Col[I];                                                 \
      Out[J] = Acc;                                                           \
    }                                                                         \
  }

#endif // MVEC_SIMD_WIDTH

MVEC_COL_REDUCE(colSums, 0.0, +)
MVEC_COL_REDUCE(colProds, 1.0, *)

#undef MVEC_COL_REDUCE
#ifdef MVEC_COL_REDUCE_BLOCK
#undef MVEC_COL_REDUCE_BLOCK
#endif

void rowSums(const double *AD, size_t Rows, size_t Cols, double *Out) {
  size_t I = 0;
#if MVEC_SIMD_WIDTH > 1
  for (; I + W <= Rows; I += W) {
    VD Acc = vZero();
    for (size_t J = 0; J != Cols; ++J)
      Acc = vAdd(Acc, vLoad(AD + J * Rows + I));
    vStore(Out + I, Acc);
  }
#endif
  for (; I != Rows; ++I) {
    double Acc = 0.0;
    for (size_t J = 0; J != Cols; ++J)
      Acc += AD[J * Rows + I];
    Out[I] = Acc;
  }
}

#if MVEC_SIMD_WIDTH > 1

/// How one operand of dotReduce fills a register across W lanes: lanes
/// adjacent in memory, one element replayed, lanes at a stride with the
/// chain contiguous (loaded W chain steps at a time and transposed in
/// registers), or lanes gathered one by one.
enum class LaneWalk { Dense, Splat, Transposed, Gather };

inline LaneWalk laneWalkOf(size_t KS, size_t LS) {
  if (LS == 1)
    return LaneWalk::Dense;
  if (LS == 0)
    return LaneWalk::Splat;
  return KS == 1 ? LaneWalk::Transposed : LaneWalk::Gather;
}

/// V[q] = chain step q of the W lanes starting at \p P (chain step 0, lane
/// 0), for q in [0, W).
inline void loadSteps(LaneWalk How, const double *P, size_t KS, size_t LS,
                      VD *V) {
  switch (How) {
  case LaneWalk::Dense:
    for (size_t Q = 0; Q != W; ++Q)
      V[Q] = vLoad(P + Q * KS);
    return;
  case LaneWalk::Splat:
    for (size_t Q = 0; Q != W; ++Q)
      V[Q] = vSet1(P[Q * KS]);
    return;
  case LaneWalk::Transposed:
    loadRowsAcross(P, LS, V);
    return;
  case LaneWalk::Gather:
    for (size_t Q = 0; Q != W; ++Q)
      V[Q] = vGatherStride(P + Q * KS, LS);
    return;
  }
}

/// One chain step of the W lanes starting at \p P.
inline VD loadStep(LaneWalk How, const double *P, size_t LS) {
  switch (How) {
  case LaneWalk::Dense:
    return vLoad(P);
  case LaneWalk::Splat:
    return vSet1(P[0]);
  default:
    return vGatherStride(P, LS);
  }
}

#endif

/// Lanes are independent outputs; each chain adds its products in
/// ascending k order from 0.0, exactly as the column/row sum of the
/// materialized product would.
void dotReduce(const double *A, size_t AK, size_t AL, const double *B,
               size_t BK, size_t BL, double *Out, size_t K, size_t L) {
  size_t Lane = 0;
#if MVEC_SIMD_WIDTH > 1
  LaneWalk HowA = laneWalkOf(AK, AL), HowB = laneWalkOf(BK, BL);
  for (; Lane + W <= L; Lane += W) {
    const double *AP = A + Lane * AL, *BP = B + Lane * BL;
    VD Acc = vZero();
    size_t Step = 0;
    for (; Step + W <= K; Step += W) {
      VD VA[W], VB[W];
      loadSteps(HowA, AP + Step * AK, AK, AL, VA);
      loadSteps(HowB, BP + Step * BK, BK, BL, VB);
      for (size_t Q = 0; Q != W; ++Q)
        Acc = vAdd(Acc, vMul(VA[Q], VB[Q]));
    }
    for (; Step != K; ++Step)
      Acc = vAdd(Acc, vMul(loadStep(HowA, AP + Step * AK, AL),
                           loadStep(HowB, BP + Step * BK, BL)));
    vStore(Out + Lane, Acc);
  }
#endif
  for (; Lane != L; ++Lane) {
    double Acc = 0.0;
    for (size_t Step = 0; Step != K; ++Step)
      Acc = Acc + A[Step * AK + Lane * AL] * B[Step * BK + Lane * BL];
    Out[Lane] = Acc;
  }
}

/// Running sums down each column. The chain is serial per column and the
/// lanes would walk strided memory, so every width shares the portable
/// loop (listed in the table so callers need no special case).
void cumsumDim1(const double *AD, size_t Rows, size_t Cols, double *Out) {
  for (size_t J = 0; J != Cols; ++J) {
    double Acc = 0.0;
    const double *Col = AD + J * Rows;
    double *OutCol = Out + J * Rows;
    for (size_t I = 0; I != Rows; ++I) {
      Acc += Col[I];
      OutCol[I] = Acc;
    }
  }
}

void cumsumDim2(const double *AD, size_t Rows, size_t Cols, double *Out) {
  size_t I = 0;
#if MVEC_SIMD_WIDTH > 1
  for (; I + W <= Rows; I += W) {
    VD Acc = vZero();
    for (size_t J = 0; J != Cols; ++J) {
      Acc = vAdd(Acc, vLoad(AD + J * Rows + I));
      vStore(Out + J * Rows + I, Acc);
    }
  }
#endif
  for (; I != Rows; ++I) {
    double Acc = 0.0;
    for (size_t J = 0; J != Cols; ++J) {
      Acc += AD[J * Rows + I];
      Out[J * Rows + I] = Acc;
    }
  }
}

} // namespace
} // namespace MVEC_SIMD_IMPL_NS

namespace detail {

const KernelTable &MVEC_SIMD_TABLE_ACCESSOR() {
  static const KernelTable Table = {
      MVEC_SIMD_IMPL_LEVEL,
      MVEC_SIMD_IMPL_NAME,
      &MVEC_SIMD_IMPL_NS::ewAdd,
      &MVEC_SIMD_IMPL_NS::ewSub,
      &MVEC_SIMD_IMPL_NS::ewMul,
      &MVEC_SIMD_IMPL_NS::ewDiv,
      &MVEC_SIMD_IMPL_NS::ewCmp,
      &MVEC_SIMD_IMPL_NS::fusedMulAdd,
      &MVEC_SIMD_IMPL_NS::unaryNeg,
      &MVEC_SIMD_IMPL_NS::unaryNot,
      &MVEC_SIMD_IMPL_NS::matMulTile,
      &MVEC_SIMD_IMPL_NS::matMulTransA,
      &MVEC_SIMD_IMPL_NS::colSums,
      &MVEC_SIMD_IMPL_NS::colProds,
      &MVEC_SIMD_IMPL_NS::rowSums,
      &MVEC_SIMD_IMPL_NS::dotReduce,
      &MVEC_SIMD_IMPL_NS::cumsumDim1,
      &MVEC_SIMD_IMPL_NS::cumsumDim2,
  };
  return Table;
}

} // namespace detail
} // namespace mvec::simd
