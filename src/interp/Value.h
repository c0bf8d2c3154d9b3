//===- Value.h - MATLAB runtime value ---------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime value of the MATLAB interpreter: a dense 2-D double matrix
/// in column-major order (MATLAB's layout — the diagonal-access pattern in
/// the paper relies on it). Scalars are 1x1, the empty value is 0x0.
///
/// Values are copy-on-write: copies share one refcounted payload buffer
/// and a mutation detaches (clones) only when the buffer is shared. The
/// refcount is the atomic shared_ptr control block, so read-only sharing
/// across service threads is safe; mutating accessors must only be used by
/// the owning thread, as before. Values with at most one element store the
/// payload inline, so Value::scalar never heap-allocates — the interpreter
/// hot path runs mostly on scalars.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_INTERP_VALUE_H
#define MVEC_INTERP_VALUE_H

#include "resilience/ResourceGovernor.h"

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace mvec {

/// STL allocator backing every matrix payload with 64-byte-aligned
/// storage (cache line / AVX-512 width). Alignment is a property of the
/// allocator type, so it survives any buffer round trip — OpWorkspace
/// pooling, Value::adoptBuffer / releaseBuffer — by construction; the
/// SIMD kernel backend (src/interp/simd) relies on payloads never
/// straddling a vector register's natural boundary at element 0.
template <typename T> struct PayloadAllocator {
  using value_type = T;
  static constexpr std::align_val_t Alignment{64};

  PayloadAllocator() = default;
  template <typename U> PayloadAllocator(const PayloadAllocator<U> &) {}

  T *allocate(size_t N) {
    return static_cast<T *>(::operator new(N * sizeof(T), Alignment));
  }
  void deallocate(T *P, size_t) noexcept { ::operator delete(P, Alignment); }

  /// Construction without a value default-initializes, so sizing a buffer
  /// (PayloadBuffer(N), resize(N)) leaves the doubles unwritten: kernel
  /// destinations are overwritten anyway. Fills and copies still write.
  template <typename U> void construct(U *P) noexcept {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U, typename... Args> void construct(U *P, Args &&...A) {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }

  friend bool operator==(const PayloadAllocator &, const PayloadAllocator &) {
    return true;
  }
  friend bool operator!=(const PayloadAllocator &, const PayloadAllocator &) {
    return false;
  }
};

/// The payload vector type shared by Value and the OpWorkspace pool.
using PayloadBuffer = std::vector<double, PayloadAllocator<double>>;

class Value {
public:
  /// The empty 0x0 value ([]).
  Value() = default;

  Value(size_t Rows, size_t Cols, double Fill = 0.0)
      : NumRows(Rows), NumCols(Cols) {
    size_t N = Rows * Cols;
    if (N > 1) {
      chargeMemory(N * sizeof(double));
      Heap = std::make_shared<PayloadBuffer>(N, Fill);
    } else {
      InlineVal = Fill;
    }
  }

  static Value scalar(double V) {
    Value Result;
    Result.NumRows = Result.NumCols = 1;
    Result.InlineVal = V;
    return Result;
  }

  /// Builds a vector from \p Elems, as a row when \p Row is true, else a
  /// column.
  static Value vector(std::vector<double> Elems, bool Row) {
    Value Result;
    Result.NumRows = Row ? (Elems.empty() ? 0 : 1) : Elems.size();
    Result.NumCols = Row ? Elems.size() : (Elems.empty() ? 0 : 1);
    if (Elems.size() > 1) {
      chargeMemory(Elems.size() * sizeof(double));
      // Copies (allocator conversion) rather than moves: the payload must
      // land in aligned storage.
      Result.Heap =
          std::make_shared<PayloadBuffer>(Elems.begin(), Elems.end());
    } else if (!Elems.empty()) {
      Result.InlineVal = Elems[0];
    }
    return Result;
  }

  /// Wraps a payload buffer (typically recycled from an OpWorkspace pool)
  /// as a \p Rows x \p Cols value. Requires Buf->size() == Rows * Cols.
  static Value adoptBuffer(std::shared_ptr<PayloadBuffer> Buf, size_t Rows,
                           size_t Cols) {
    assert(Buf && Buf->size() == Rows * Cols && "buffer/shape mismatch");
    Value Result;
    Result.NumRows = Rows;
    Result.NumCols = Cols;
    if (Buf->size() > 1)
      Result.Heap = std::move(Buf);
    else if (!Buf->empty())
      Result.InlineVal = (*Buf)[0];
    return Result;
  }

  /// Surrenders the heap payload for pooling when this value owns one
  /// exclusively; returns null for inline/shared payloads. The value
  /// becomes empty either way.
  std::shared_ptr<PayloadBuffer> releaseBuffer() {
    std::shared_ptr<PayloadBuffer> Out;
    if (Heap && Heap.use_count() == 1)
      Out = std::move(Heap);
    Heap.reset();
    NumRows = NumCols = 0;
    Logical = false;
    return Out;
  }

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }
  size_t numel() const { return NumRows * NumCols; }

  bool isEmpty() const { return numel() == 0; }
  bool isScalar() const { return NumRows == 1 && NumCols == 1; }
  bool isRow() const { return NumRows == 1 && NumCols >= 1; }
  bool isColumn() const { return NumCols == 1 && NumRows >= 1; }
  bool isVector() const { return !isEmpty() && (NumRows == 1 || NumCols == 1); }

  /// True when this value shares its payload with another (COW tests).
  bool sharesBufferWith(const Value &Other) const {
    return Heap && Heap == Other.Heap;
  }

  double scalarValue() const {
    assert(isScalar() && "not a scalar");
    return raw()[0];
  }

  /// Read-only payload pointer (column-major).
  const double *raw() const { return Heap ? Heap->data() : &InlineVal; }

  /// Mutable payload pointer; detaches from any sharing copies first.
  double *mutableRaw() {
    if (Heap && Heap.use_count() > 1) {
      chargeMemory(Heap->size() * sizeof(double));
      Heap = std::make_shared<PayloadBuffer>(*Heap);
    }
    return Heap ? Heap->data() : &InlineVal;
  }

  /// Const iteration over the payload (range-for support).
  const double *begin() const { return raw(); }
  const double *end() const { return raw() + numel(); }

  /// 0-based element access (column-major linear index).
  double linear(size_t I) const {
    assert(I < numel() && "linear index out of range");
    return raw()[I];
  }
  double &linear(size_t I) {
    assert(I < numel() && "linear index out of range");
    return mutableRaw()[I];
  }

  /// 0-based (row, col) access.
  double at(size_t R, size_t C) const {
    assert(R < NumRows && C < NumCols && "subscript out of range");
    return raw()[C * NumRows + R];
  }
  double &at(size_t R, size_t C) {
    assert(R < NumRows && C < NumCols && "subscript out of range");
    return mutableRaw()[C * NumRows + R];
  }

  /// Grows to \p Rows x \p Cols, zero-filling new elements and preserving
  /// existing elements at their (row, col) positions. Growth that keeps the
  /// row count (vector append, matrix column append) extends the payload in
  /// place with the geometric capacity policy, so element-at-a-time
  /// accumulator loops are amortized O(n), not O(n^2).
  void growTo(size_t Rows, size_t Cols);

  /// Capacity hint: pre-reserves payload space for \p Numel elements
  /// without changing shape or contents. Used by the interpreter when a
  /// loop's trip count bounds how far an accumulator will grow. No-op on
  /// shared payloads.
  void reserveHint(size_t Numel);

  /// Reshapes in place (column-major element order preserved).
  /// Requires Rows*Cols == numel().
  void reshapeTo(size_t Rows, size_t Cols) {
    assert(Rows * Cols == numel() && "reshape changes element count");
    NumRows = Rows;
    NumCols = Cols;
  }

  /// All elements equal within \p Tol (and same shape).
  bool equals(const Value &Other, double Tol = 0.0) const;

  /// MATLAB-truthiness: nonempty and all elements nonzero.
  bool isTrue() const;

  /// MATLAB logical class flag: set on the results of comparisons and
  /// logical operators. A logical value used as a subscript selects by
  /// mask instead of by position.
  bool isLogical() const { return Logical; }
  void setLogical(bool L) { Logical = L; }

  /// A short display form ("[2x3]" contents for small values).
  std::string str() const;

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  bool Logical = false;
  /// Payload when numel() <= 1 and no heap buffer exists.
  double InlineVal = 0.0;
  /// Shared payload; null iff the value fits inline (reserveHint may
  /// promote a small value to a heap buffer early). When set, the vector's
  /// size equals numel().
  std::shared_ptr<PayloadBuffer> Heap;
};

} // namespace mvec

#endif // MVEC_INTERP_VALUE_H
