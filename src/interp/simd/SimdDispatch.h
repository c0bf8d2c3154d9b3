//===- SimdDispatch.h - Runtime-dispatched SIMD kernel backend --*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's SIMD kernel backend: a table of leaf kernel function
/// pointers (elementwise arithmetic/compares, fused multiply-add, the
/// blocked-matmul inner tile, order-preserving reductions, the fused
/// sum of products) with one
/// implementation per instruction set, selected once at load time by a
/// cpuid-based dispatcher.
///
/// Each ISA lives in its own translation unit compiled with that ISA's
/// flags (Kernels_sse2.cpp, Kernels_avx2.cpp — one object file per ISA, so
/// no wider encoding can leak into a narrower table); the portable scalar
/// table (Kernels_scalar.cpp) is always compiled and is both the fallback
/// on non-x86 hosts and the bit-exact reference the differential tests
/// compare every other table against.
///
/// Exact-semantics contract (PR 3): every table must produce bit-identical
/// results to the scalar table. Concretely:
///   * no FMA contraction — products and sums are separate roundings, so
///     the per-ISA translation units are built without -mfma and with
///     -ffp-contract=off;
///   * no reassociation in order-sensitive reductions — SIMD reductions
///     vectorize across *independent* output elements (lanes are distinct
///     columns/rows), never across a single accumulation chain;
///   * the blocked matmul (and its A' * B form) keeps the scalar
///     kernel's per-(column, P) zero-skip, so Inf/NaN propagation through
///     zero multipliers is unchanged.
///
/// Selection: the first use picks the best CPU-supported compiled-in
/// level, overridable by the MVEC_SIMD environment variable ("auto",
/// "best", "scalar", "sse2", "avx2"); an unknown or unsupported value
/// warns once on stderr and keeps the best level.
/// Dispatch state is process-global; per-kernel dispatch counters let
/// deployments confirm which tier actually served their traffic.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_INTERP_SIMD_SIMDDISPATCH_H
#define MVEC_INTERP_SIMD_SIMDDISPATCH_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mvec::simd {

/// Dispatch levels, ordered weakest to strongest. Scalar is always
/// available; the x86 levels exist only when compiled in (MVEC_SIMD=ON,
/// x86-64 host toolchain) and the CPU reports the feature.
enum class Level : int { Scalar = 0, Sse2 = 1, Avx2 = 2 };

/// Comparison / elementwise-logical predicates, decoupled from the
/// frontend's BinaryOp so kernel translation units stay AST-free.
/// All produce MATLAB logical 1.0/0.0; NaN compares follow IEEE scalar
/// semantics (ordered compares false, Ne true).
enum class CmpPred : int { Lt, Gt, Le, Ge, Eq, Ne, And, Or };

/// Fused multiply-add flavors: (A.*B)+C, (A.*B)-C, C-(A.*B).
enum class FmaMode : int { MulAdd = 0, MulSub = 1, RevSub = 2 };

/// One ISA's leaf kernels. Pointers are never null: levels that have no
/// profitable vector form for a kernel (e.g. the serial-per-column cumsum
/// along dim 1) point at the shared portable loop.
///
/// Conventions: payloads are column-major doubles. Elementwise strides
/// SA/SB/SC may be any step; 0 replays one scalar.
/// Leaves contain no polling and no allocation — deadline polls and
/// ResourceGovernor charges stay in MatrixOps.cpp, between tile calls, so
/// resilience behavior is identical on every level.
struct KernelTable {
  Level Isa;
  const char *Name;

  /// R[i] = A[i*SA] op B[i*SB] for i in [0, N).
  void (*EwAdd)(const double *A, size_t SA, const double *B, size_t SB,
                double *R, size_t N);
  void (*EwSub)(const double *A, size_t SA, const double *B, size_t SB,
                double *R, size_t N);
  void (*EwMul)(const double *A, size_t SA, const double *B, size_t SB,
                double *R, size_t N);
  void (*EwDiv)(const double *A, size_t SA, const double *B, size_t SB,
                double *R, size_t N);
  /// R[i] = pred(A[i*SA], B[i*SB]) ? 1.0 : 0.0.
  void (*EwCmp)(CmpPred Pred, const double *A, size_t SA, const double *B,
                size_t SB, double *R, size_t N);
  /// R[i] = mode(A[i*SA] * B[i*SB], C[i*SC]); product and sum are two
  /// roundings (never contracted to a hardware fma).
  void (*FusedMulAdd)(FmaMode Mode, const double *A, size_t SA,
                      const double *B, size_t SB, const double *C, size_t SC,
                      double *R, size_t N);
  /// R[i] = -A[i] / R[i] = (A[i] == 0.0).
  void (*UnaryNeg)(const double *A, double *R, size_t N);
  void (*UnaryNot)(const double *A, double *R, size_t N);
  /// Matmul inner tile: R columns [J0, J1) += A(:, P0:P1) * B(P0:P1,
  /// J0:J1), A and B column-major with leading dimensions Lda and Ldb (a
  /// row-vector A, M == 1, contiguous), R a dense M x N. Per output element
  /// the accumulation over P is strictly ascending, and a zero B element
  /// skips its update entirely — both exactly as the scalar kernel.
  void (*MatMulTile)(const double *A, size_t Lda, const double *B,
                     size_t Ldb, double *R, size_t M, size_t P0, size_t P1,
                     size_t J0, size_t J1);
  /// The same tile of A' * B, A stored K x M (leading dimension Lda): each
  /// R(i, j) accumulates the dot product of A column i with B column j over
  /// [P0, P1) — ascending P, zero B elements skipped, exactly as
  /// MatMulTile against a materialized A'.
  void (*MatMulTransA)(const double *A, size_t Lda, const double *B,
                       size_t Ldb, double *R, size_t M, size_t P0, size_t P1,
                       size_t J0, size_t J1);
  /// Out[c] = sum/prod of column c (ascending row order per column).
  void (*ColSums)(const double *A, size_t Rows, size_t Cols, double *Out);
  void (*ColProds)(const double *A, size_t Rows, size_t Cols, double *Out);
  /// Out[r] = sum of row r (ascending column order per row).
  void (*RowSums)(const double *A, size_t Rows, size_t Cols, double *Out);
  /// Out[l] = sum over k of A[k*AK + l*AL] * B[k*BK + l*BL] for l in
  /// [0, L): each chain starts at 0.0 and runs k ascending over [0, K),
  /// product and sum rounded separately. Lanes are independent outputs,
  /// so Out is bit-identical to ColSums (or RowSums, with the steps
  /// swapped) of the materialized product. Any step may be 0.
  void (*DotReduce)(const double *A, size_t AK, size_t AL, const double *B,
                    size_t BK, size_t BL, double *Out, size_t K, size_t L);
  /// Running sums down columns (dim 1) / across rows (dim 2), writing a
  /// full Rows x Cols result.
  void (*CumsumDim1)(const double *A, size_t Rows, size_t Cols, double *Out);
  void (*CumsumDim2)(const double *A, size_t Rows, size_t Cols, double *Out);
};

/// Process-global per-kernel dispatch counters (relaxed atomics, bumped
/// once per kernel call, not per element). Shared by every service in the
/// process — they answer "which tier ran, and did it actually get
/// traffic", not per-tenant accounting.
struct DispatchCounters {
  std::atomic<uint64_t> Elementwise{0};
  std::atomic<uint64_t> Compare{0};
  std::atomic<uint64_t> FusedMulAdd{0};
  std::atomic<uint64_t> MatMul{0};
  std::atomic<uint64_t> Reduce{0};
  std::atomic<uint64_t> Cumsum{0};
  std::atomic<uint64_t> Unary{0};
};

DispatchCounters &dispatchCounters();

/// The active kernel table. First call runs detection (and the MVEC_SIMD
/// environment override); afterwards this is one atomic load.
const KernelTable &kernels();

Level activeLevel();
const char *levelName(Level L);

/// Levels whose translation units are compiled into this binary
/// (ascending; always includes Scalar).
std::vector<Level> compiledLevels();

/// True when \p L is compiled in and the running CPU supports it.
bool levelSupported(Level L);

/// Strongest supported compiled-in level on this CPU.
Level bestSupportedLevel();

/// Pins dispatch to \p L. Fails (returning false, leaving dispatch
/// unchanged) when \p L is not supported on this host.
bool setLevel(Level L, std::string *Err = nullptr);

/// Parses a MVEC_SIMD spec: "auto" and "best" select the strongest
/// supported level, otherwise a level name pins that level. Unknown names
/// and unsupported levels fail with a diagnostic in \p Err.
bool configureFromString(const std::string &Spec, std::string *Err = nullptr);

} // namespace mvec::simd

#endif // MVEC_INTERP_SIMD_SIMDDISPATCH_H
