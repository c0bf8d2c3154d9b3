//===- Value.h - MATLAB runtime value ---------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime value of the MATLAB interpreter: a 2-D double matrix in
/// column-major order (MATLAB's layout — the diagonal-access pattern in the
/// paper relies on it), or a strided view of one. Scalars are 1x1, [] 0x0.
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
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace mvec {

/// The payload recycler: a dying block of at least RecycleMinBytes joins a
/// per-thread cache of at most RecycleCapBytes (oldest evicted first), and
/// a request of exactly its size takes it back, so a kernel's second call
/// allocates nothing from the system and takes no page faults. A block
/// freed on another thread joins that thread's cache.
void *allocatePayload(size_t Bytes);
void freePayload(void *P, size_t Bytes) noexcept;
constexpr size_t RecycleMinBytes = size_t(32) << 10;
constexpr size_t RecycleCapBytes = size_t(64) << 20;
/// The calling thread's large allocations served from its cache (Hits)
/// and from the system (Misses), and the bytes the cache holds.
struct PayloadRecyclerStats {
  uint64_t Hits = 0, Misses = 0;
  size_t HeldBytes = 0;
};
PayloadRecyclerStats payloadRecyclerStats();

/// STL allocator backing every matrix payload with 64-byte-aligned
/// storage (cache line / AVX-512 width) through the payload recycler, so
/// recycled blocks are aligned too; the SIMD kernel backend
/// (src/interp/simd) relies on payloads never straddling a vector
/// register's natural boundary at element 0.
template <typename T> struct PayloadAllocator {
  using value_type = T;

  PayloadAllocator() = default;
  template <typename U> PayloadAllocator(const PayloadAllocator<U> &) {}

  T *allocate(size_t N) {
    return static_cast<T *>(allocatePayload(N * sizeof(T)));
  }
  void deallocate(T *P, size_t N) noexcept { freePayload(P, N * sizeof(T)); }

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

/// The payload vector type of Value.
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

  /// Becomes exactly what Value::scalar(V) would be, in place: a plain
  /// non-logical 1x1 with an inline payload (a heap payload is released).
  void setScalar(double V) {
    if (Heap)
      Heap.reset();
    NumRows = NumCols = 1;
    Offset = 0;
    RowStep = 1;
    ColStep = 0;
    InlineVal = V;
    Logical = false;
    View = false;
    Charge = ChargeSlot();
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

  /// Wraps \p Buf (of Rows * Cols elements) as a \p Rows x \p Cols value.
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

  /// Strided views: element (r, c) at data()[r * rowStep() + c *
  /// colStep()]. Kernels with strides and subscripts read views in place;
  /// every other consumer calls materialize(), and raw() requires a dense
  /// layout.
  bool isView() const { return View; }
  const double *data() const {
    return Heap ? Heap->data() + Offset : &InlineVal;
  }
  size_t rowStep() const { return View ? RowStep : 1; }
  size_t colStep() const { return View ? ColStep : NumRows; }

  /// O(1) Rows x Cols view, element (r, c) at data()[Off + r * RS + c *
  /// CS], keeping the logical flag; plain when the layout is dense. A step
  /// of 0 repeats a row or column (repmat's broadcast views). A transpose
  /// owes its copy's charge (\p Owed); any other view stands for a copy
  /// its maker charged. Requires Rows * Cols > 1, all in range.
  Value view(size_t Rows, size_t Cols, size_t Off, size_t RS, size_t CS,
             bool Owed) const;
  /// Column-major copy of the elements into \p Dst (any layout).
  void copyTo(double *Dst) const;

  /// Bytes a consumer must charge to read the elements in place (what a
  /// transpose owes) or to copy them (nothing when prepaid).
  size_t owedBytes() const {
    return Charge == CopyCharge::Owed ? numel() * sizeof(double) : 0;
  }
  size_t copyBytes() const {
    return Charge == CopyCharge::Paid ? 0 : numel() * sizeof(double);
  }
  /// Gives a view a dense payload of its own and pays an owed charge, so a
  /// view charges its copy once: when made, or here. A variable never holds
  /// a view. Plain values are left as they are.
  void materialize() {
    if (Charge == CopyCharge::Owed) {
      chargeMemory(numel() * sizeof(double));
      Charge = CopyCharge::Paid;
    }
    if (View)
      detach();
  }
  /// Takes over \p Src's payload when Src is dense, exclusively owned and
  /// of this value's element count (> 1), keeping this value's shape and
  /// logical flag, and charges the detach copy a write into a shared
  /// payload would have made. Returns false, changing nothing, otherwise.
  bool adoptPayload(Value &Src);

  /// Read-only payload pointer (column-major, dense layouts only).
  const double *raw() const {
    assert(!View && "raw() on a strided view; materialize() first");
    return Heap ? Heap->data() : &InlineVal;
  }

  /// Mutable payload pointer; detaches from any sharing copies (and
  /// materializes a view) first.
  double *mutableRaw() {
    if (Heap && (View || Charge != CopyCharge::Own || Heap.use_count() > 1))
      detach();
    return Heap ? Heap->data() : &InlineVal;
  }

  /// Const iteration over the payload (range-for support; dense only).
  const double *begin() const { return raw(); }
  const double *end() const { return raw() + numel(); }

  /// 0-based element access (column-major linear index), any layout.
  double linear(size_t I) const {
    assert(I < numel() && "linear index out of range");
    if (!View)
      return raw()[I];
    return at(I % NumRows, I / NumRows);
  }
  double &linear(size_t I) {
    assert(I < numel() && "linear index out of range");
    return mutableRaw()[I];
  }

  /// 0-based (row, col) access, any layout.
  double at(size_t R, size_t C) const {
    assert(R < NumRows && C < NumCols && "subscript out of range");
    return View ? Heap->data()[Offset + R * RowStep + C * ColStep]
                : raw()[C * NumRows + R];
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
  /// Requires Rows*Cols == numel() and a dense layout.
  void reshapeTo(size_t Rows, size_t Cols) {
    assert(Rows * Cols == numel() && "reshape changes element count");
    assert(!View && "reshape of a strided view");
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
  /// Who pays for the copy a view (or a payload shared by a full-extent
  /// subscript or a transposed vector) stands for. Own: nobody yet, so a
  /// detach charges as for any COW copy. Paid: charged when made, so
  /// materializing or detaching charges nothing. Owed: a transpose, paid
  /// by its first consumer (in place or by materializing), except a matrix
  /// product's left operand, which never needed the copy.
  enum class CopyCharge : uint8_t { Own, Paid, Owed };
  /// A COW copy shares the payload but not its prepaid or owed charge: it
  /// pays for its own detach. A move keeps the charge.
  struct ChargeSlot {
    CopyCharge C = CopyCharge::Own;
    ChargeSlot() = default;
    ChargeSlot(CopyCharge C) : C(C) {}
    ChargeSlot(const ChargeSlot &) {}
    ChargeSlot(ChargeSlot &&) = default;
    ChargeSlot &operator=(const ChargeSlot &) { return *this = ChargeSlot(); }
    ChargeSlot &operator=(ChargeSlot &&) = default;
    operator CopyCharge() const { return C; }
  };
  void detach();

  size_t NumRows = 0;
  size_t NumCols = 0;
  /// A view's layout (see view()); Offset is 0 for plain values.
  size_t Offset = 0, RowStep = 1, ColStep = 0;
  /// Payload when numel() <= 1 and no heap buffer exists.
  double InlineVal = 0.0;
  /// Shared payload; null iff the value fits inline (reserveHint may
  /// promote a small value to a heap buffer early). For a plain value the
  /// vector's size equals numel().
  std::shared_ptr<PayloadBuffer> Heap;
  bool Logical = false;
  bool View = false;
  ChargeSlot Charge;
};

} // namespace mvec

#endif // MVEC_INTERP_VALUE_H
