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
/// throwing. Kernels optionally take an OpWorkspace — a pool of payload
/// buffers that lets expression chains reuse destination storage instead of
/// allocating a temporary per node; passing null preserves the old
/// allocate-per-result behavior.
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

/// A small pool of payload buffers recycled between kernel invocations.
/// One workspace belongs to one interpreter (one thread); buffers are only
/// pooled while exclusively owned, so COW copies handed to other threads
/// are never recycled underneath them.
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

  /// A buffer of exactly \p N elements with unspecified contents (callers
  /// overwrite every element).
  std::shared_ptr<PayloadBuffer> acquire(size_t N);

  /// acquire() without the memory charge, for a caller that may still
  /// discard the buffer on an error and charges it only once it is kept.
  std::shared_ptr<PayloadBuffer> acquireUncharged(size_t N);

  /// A \p Rows x \p Cols value with unspecified contents; a payload that
  /// needs the heap comes from the pool.
  Value dest(size_t Rows, size_t Cols);

  /// Like acquire, but zero-filled (for accumulation kernels).
  std::shared_ptr<PayloadBuffer> acquireZeroed(size_t N);

  /// Takes a dying value's payload back into the pool when it is heap
  /// allocated and exclusively owned; otherwise does nothing.
  void recycle(Value &&V);

  /// Returns a raw buffer (from acquire) to the pool.
  void recycleBuffer(std::shared_ptr<PayloadBuffer> Buf);

  void clear() { Free.clear(); }

private:
  static constexpr size_t MaxPooled = 8;
  std::vector<std::shared_ptr<PayloadBuffer>> Free;
  PollFn Hook = nullptr;
  void *HookCtx = nullptr;
};

/// Elementwise binary operation with MATLAB scalar expansion. Handles the
/// pointwise arithmetic operators, comparisons and logical &,|.
Value elementwiseBinary(BinaryOp Op, const Value &A, const Value &B,
                        OpError &Err, OpWorkspace *WS = nullptr);

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

/// Plain matrix product (shapes already conformant). Blocked over the
/// inner dimension; accumulation order per output element is unchanged.
Value matMul(const Value &A, const Value &B, OpError &Err,
             OpWorkspace *WS = nullptr);

/// A * B' without materializing the transpose as a Value: B is packed
/// transposed into workspace scratch and fed to the blocked kernel.
/// Requires A.cols() == B.cols(); result is A.rows() x B.rows().
Value matMulTransB(const Value &A, const Value &B, OpError &Err,
                   OpWorkspace *WS = nullptr);

/// A' * B without materializing the transpose: the blocked kernel takes
/// column dot products of A and B directly. Requires A.rows() == B.rows()
/// for a result; result is A.cols() x B.cols().
Value matMulTransA(const Value &A, const Value &B, OpError &Err,
                   OpWorkspace *WS = nullptr);

/// A' (the logical flag carries over).
Value transpose(const Value &A, OpWorkspace *WS = nullptr);

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

/// repmat(X, R, C), copied one source column run at a time.
Value repmat(const Value &A, size_t R, size_t C, OpWorkspace *WS = nullptr);

/// MATLAB hist(x, centers): bin counts with edges midway between centers.
Value histCounts(const Value &X, const Value &Centers, OpError &Err);

} // namespace mvec

#endif // MVEC_INTERP_MATRIXOPS_H
