//===- MatrixOps.h - Bulk matrix kernels ------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tight C++ kernels behind MATLAB's built-in array operations. These
/// are the "fast path" of the simulated MATLAB environment: vectorized
/// statements execute through these, while interpreted loops pay per-node
/// dispatch cost — reproducing the performance profile the paper measures.
///
/// Following MATLAB 7 semantics (the paper's version), elementwise binary
/// operations require equal shapes or a scalar operand; there is no implicit
/// row/column broadcasting (that is what repmat is for).
///
/// All functions report problems through an OpError out-parameter instead of
/// throwing. Kernels optionally take an OpWorkspace, whose poll hook lets a
/// deadline interrupt a long kernel. Operands may be strided views (see
/// Value): the elementwise, fused multiply-add, sum-of-products and
/// matrix-product kernels read them in place, steps of 0 included; the
/// other kernels require plain operands.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_INTERP_MATRIXOPS_H
#define MVEC_INTERP_MATRIXOPS_H

#include "frontend/AST.h"
#include "interp/Value.h"

#include <memory>
#include <string>
#include <vector>

namespace mvec {

/// Error slot for the kernels. Empty message means success.
struct OpError {
  std::string Message;

  bool failed() const { return !Message.empty(); }
  void set(std::string Msg) {
    if (Message.empty())
      Message = std::move(Msg);
  }
};

/// Per-interpreter kernel context: the cooperative-interrupt hook and the
/// charging destination allocator. Payload reuse itself lives in the
/// allocator (PayloadAllocator's recycler), not here.
class OpWorkspace {
public:
  /// Cooperative-interrupt hook polled by long-running kernels (matrix
  /// product, fused multiply-add) between bounded chunks of work, so a
  /// deadline or cancellation lands within a chunk's worth of arithmetic
  /// instead of after the whole kernel. Returns true to abort the kernel
  /// early; the partially written destination is discarded by the failing
  /// caller.
  using PollFn = bool (*)(void *Ctx);
  void setPollHook(PollFn Fn, void *Ctx) {
    Hook = Fn;
    HookCtx = Ctx;
  }
  bool poll() { return Hook && Hook(HookCtx); }

  /// A charged buffer of exactly \p N elements with unspecified contents
  /// (callers overwrite every element).
  std::shared_ptr<PayloadBuffer> acquire(size_t N);

  /// A \p Rows x \p Cols value with unspecified contents.
  Value dest(size_t Rows, size_t Cols);

private:
  PollFn Hook = nullptr;
  void *HookCtx = nullptr;
};

/// Elementwise binary operation with MATLAB scalar expansion. Handles the
/// pointwise arithmetic operators, comparisons and logical &,|.
Value elementwiseBinary(BinaryOp Op, const Value &A, const Value &B,
                        OpError &Err, OpWorkspace *WS = nullptr);

/// A .* B whose product is paid for but not built. pendingProduct checks
/// the shapes (with elementwiseBinary's error text) and charges what
/// elementwiseBinary(DotMul, A, B) charges, in its order; sumOfProducts
/// then reduces the product in one pass and buildProduct builds it, both
/// without charging again. It reads A and B in place, so both must outlive
/// it. Element (r, c) of A is A[r * ARS + c * ACS], and likewise for B.
struct PendingProduct {
  const double *A = nullptr, *B = nullptr;
  size_t ARS = 0, ACS = 0, BRS = 0, BCS = 0;
  size_t Rows = 0, Cols = 0;
};
bool pendingProduct(const Value &A, const Value &B, PendingProduct &P,
                    OpError &Err);
/// sum(A .* B, Dim) for Dim 1 or 2 in one pass with no product temporary,
/// bit-identical to sumAlong(elementwiseBinary(DotMul, A, B), Dim).
Value sumOfProducts(const PendingProduct &P, unsigned Dim);
/// The product A .* B itself.
Value buildProduct(const PendingProduct &P);

/// True when (A .* B) +/- C is computable in one fused pass: each step
/// conforms under MATLAB scalar expansion. When false, callers must fall
/// back to the two-step path (which also reproduces the exact error).
bool fusableMulAddShapes(const Value &A, const Value &B, const Value &C);

/// Fused elementwise multiply-add: (A .* B) op C when \p ProductOnLeft,
/// else C op (A .* B), for op in {+, -}. No intermediate product value is
/// materialized. Requires fusableMulAddShapes(A, B, C).
Value fusedMulAdd(const Value &A, const Value &B, const Value &C,
                  bool Subtract, bool ProductOnLeft, OpWorkspace *WS = nullptr);

/// Full MATLAB '*': scalar*X, X*scalar or matrix product with inner-dim
/// check.
Value mulOp(const Value &A, const Value &B, OpError &Err,
            OpWorkspace *WS = nullptr);

/// Full MATLAB '/': X/scalar only (general linear solves are out of scope).
Value divOp(const Value &A, const Value &B, OpError &Err,
            OpWorkspace *WS = nullptr);

/// Full MATLAB '^': scalar^scalar or square-matrix^nonnegative-integer.
Value powOp(const Value &A, const Value &B, OpError &Err);

/// Matrix product with an inner-dimension check, blocked over the inner
/// dimension. An operand with a unit row step is read in place with a
/// leading dimension, an A with a unit column step as a transposed operand;
/// any other layout, and a transposed B, is packed into scratch first.
Value matMul(const Value &A, const Value &B, OpError &Err,
             OpWorkspace *WS = nullptr);

/// A' in O(1): a view with the steps swapped (the logical flag carries
/// over). It owes the transpose copy's charge to its first consumer.
Value transpose(const Value &A);

Value unaryMinus(const Value &A, OpWorkspace *WS = nullptr);
Value unaryNot(const Value &A, OpWorkspace *WS = nullptr);

/// Builds the row vector start:step:stop (empty when the range is empty).
Value makeRange(double Start, double Step, double Stop, OpError &Err);

/// Horizontal / vertical concatenation for matrix literals.
Value horzcat(const Value &A, const Value &B, OpError &Err);
Value vertcat(const Value &A, const Value &B, OpError &Err);

/// sum along dimension \p Dim (1 = down columns, 2 = across rows).
Value sumAlong(const Value &A, unsigned Dim);
/// MATLAB sum(X): columns sums for matrices, total for vectors.
Value sumDefault(const Value &A);
Value cumsumAlong(const Value &A, unsigned Dim);
Value cumsumDefault(const Value &A);
Value prodDefault(const Value &A);

/// repmat(X, R, C). A column repeated across columns or a row repeated
/// down rows is an O(1) broadcast view (step 0 along the repeated axis),
/// charged as the copy it stands for; anything else is copied one source
/// column run at a time.
Value repmat(const Value &A, size_t R, size_t C, OpWorkspace *WS = nullptr);

/// MATLAB hist(x, centers): bin counts with edges midway between centers.
Value histCounts(const Value &X, const Value &Centers, OpError &Err);

} // namespace mvec

#endif // MVEC_INTERP_MATRIXOPS_H
