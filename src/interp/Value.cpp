//===- Value.cpp - MATLAB runtime value -----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Value.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

using namespace mvec;

namespace {

/// 64-byte-aligned blocks carved from malloc (the original pointer kept
/// below the aligned one): aligned operator new costs ~6x a small malloc.
constexpr uintptr_t PayloadAlignment = 64;

void *systemAlloc(size_t Bytes) {
  void *Base = Bytes <= SIZE_MAX - PayloadAlignment
                   ? std::malloc(Bytes + PayloadAlignment)
                   : nullptr;
  if (!Base)
    throw std::bad_alloc();
  uintptr_t P = (reinterpret_cast<uintptr_t>(Base) + PayloadAlignment) &
                ~(PayloadAlignment - 1);
  reinterpret_cast<void **>(P)[-1] = Base;
  return reinterpret_cast<void *>(P);
}

void systemFree(void *P) { std::free(static_cast<void **>(P)[-1]); }

/// Set once the thread's cache is destroyed; trivially destructible, so
/// payloads freed later in thread or process teardown bypass the cache.
thread_local bool RecyclerGone = false;

/// One thread's cache, oldest block first; its capacity is reserved.
struct Recycler {
  static constexpr size_t MaxBlocks = 64;
  std::vector<std::pair<void *, size_t>> Blocks;
  PayloadRecyclerStats Stats;

  Recycler() { Blocks.reserve(MaxBlocks); }
  ~Recycler() {
    RecyclerGone = true;
    while (!Blocks.empty())
      evictOldest();
  }
  void evictOldest() {
    systemFree(Blocks.front().first);
    Stats.HeldBytes -= Blocks.front().second;
    Blocks.erase(Blocks.begin());
  }
};
thread_local Recycler ThreadRecycler;

} // namespace

void *mvec::allocatePayload(size_t Bytes) {
  if (Bytes >= RecycleMinBytes && !RecyclerGone) {
    Recycler &R = ThreadRecycler;
    for (size_t I = R.Blocks.size(); I-- != 0;)
      if (R.Blocks[I].second == Bytes) {
        void *P = R.Blocks[I].first;
        R.Blocks.erase(R.Blocks.begin() + static_cast<std::ptrdiff_t>(I));
        R.Stats.HeldBytes -= Bytes;
        ++R.Stats.Hits;
        return P;
      }
    ++R.Stats.Misses;
  }
  return systemAlloc(Bytes);
}

void mvec::freePayload(void *P, size_t Bytes) noexcept {
  if (Bytes < RecycleMinBytes || Bytes > RecycleCapBytes || RecyclerGone) {
    systemFree(P);
    return;
  }
  Recycler &R = ThreadRecycler;
  while (!R.Blocks.empty() && (R.Stats.HeldBytes + Bytes > RecycleCapBytes ||
                               R.Blocks.size() == Recycler::MaxBlocks))
    R.evictOldest();
  R.Blocks.emplace_back(P, Bytes);
  R.Stats.HeldBytes += Bytes;
}

PayloadRecyclerStats mvec::payloadRecyclerStats() {
  return RecyclerGone ? PayloadRecyclerStats() : ThreadRecycler.Stats;
}

Value Value::view(size_t Rows, size_t Cols, size_t Off, size_t RS, size_t CS,
                  bool Owed) const {
  assert(Rows * Cols > 1 && Heap && "view of fewer than two elements");
  Value V;
  V.NumRows = Rows;
  V.NumCols = Cols;
  V.Offset = Offset + Off;
  // A row's element stride is its column step, a column's its row step.
  V.RowStep = Rows == 1 ? CS : RS;
  V.ColStep = Cols == 1 ? V.RowStep * Rows : CS;
  V.Heap = Heap;
  V.Logical = Logical;
  V.View = V.Offset != 0 || V.RowStep != 1 || V.ColStep != Rows ||
           Heap->size() != Rows * Cols;
  V.Charge = Owed ? CopyCharge::Owed : CopyCharge::Paid;
  return V;
}

void Value::copyTo(double *Dst) const {
  const double *Src = data();
  if (!View) {
    std::copy_n(Src, numel(), Dst);
    return;
  }
  // Destination order: a fresh destination is then first touched page by
  // page, which measured ~40% faster than strided first touches.
  for (size_t C = 0; C != NumCols; ++C, Dst += NumRows) {
    const double *Col = Src + C * ColStep;
    if (RowStep == 1)
      std::copy_n(Col, NumRows, Dst);
    else
      for (size_t R = 0; R != NumRows; ++R)
        Dst[R] = Col[R * RowStep];
  }
}

void Value::detach() {
  if (Charge == CopyCharge::Owed)
    chargeMemory(numel() * sizeof(double));
  if (View || Heap.use_count() > 1) {
    if (Charge == CopyCharge::Own)
      chargeMemory(numel() * sizeof(double));
    auto Buf = std::make_shared<PayloadBuffer>(numel());
    copyTo(Buf->data());
    Heap = std::move(Buf);
    Offset = 0;
    View = false;
  }
  Charge = CopyCharge::Own;
}

bool Value::adoptPayload(Value &Src) {
  if (Src.View || !Src.Heap || Src.Heap.use_count() != 1 ||
      Src.numel() != numel() || numel() <= 1)
    return false;
  if (View || (Heap && Heap.use_count() > 1))
    chargeMemory(copyBytes());
  Heap = std::move(Src.Heap);
  View = false;
  Offset = 0;
  Charge = CopyCharge::Own;
  Src = Value();
  return true;
}

void Value::growTo(size_t Rows, size_t Cols) {
  assert(!View && "growing a strided view");
  if (Rows <= NumRows && Cols <= NumCols)
    return;
  Charge = CopyCharge::Own;
  size_t NewRows = std::max(Rows, NumRows);
  size_t NewCols = std::max(Cols, NumCols);
  size_t OldN = numel();
  size_t NewN = NewRows * NewCols;
  // An element's linear position C * NumRows + R is unchanged by growth
  // when the row count stays fixed or all data lives in column zero, so
  // those cases (vector append, matrix column append) extend in place.
  bool LayoutPreserved = NewRows == NumRows || NumCols <= 1 || OldN == 0;
  if (NewN <= 1 && !Heap) {
    // 0x0 -> 1x1 and friends: stays inline.
  } else if (LayoutPreserved) {
    if (!Heap) {
      chargeMemory(NewN * sizeof(double));
      Heap = std::make_shared<PayloadBuffer>();
      Heap->resize(NewN, 0.0);
      if (OldN == 1)
        (*Heap)[0] = InlineVal;
    } else if (Heap.use_count() > 1) {
      chargeMemory(NewN * sizeof(double));
      auto NewBuf = std::make_shared<PayloadBuffer>();
      NewBuf->reserve(NewN);
      NewBuf->assign(Heap->begin(), Heap->end());
      NewBuf->resize(NewN, 0.0);
      Heap = std::move(NewBuf);
    } else {
      // vector::resize grows capacity geometrically, which is what makes
      // A(i) = ... append loops amortized linear. Charge the delta, not
      // the total: cumulative deltas sum to the final footprint without
      // turning an append loop into a quadratic charge.
      chargeMemory((NewN - OldN) * sizeof(double));
      Heap->resize(NewN, 0.0);
    }
  } else {
    chargeMemory(NewN * sizeof(double));
    auto NewBuf = std::make_shared<PayloadBuffer>(NewN, 0.0);
    const double *Src = raw();
    double *Dst = NewBuf->data();
    for (size_t C = 0; C != NumCols; ++C)
      for (size_t R = 0; R != NumRows; ++R)
        Dst[C * NewRows + R] = Src[C * NumRows + R];
    Heap = std::move(NewBuf);
  }
  NumRows = NewRows;
  NumCols = NewCols;
}

void Value::reserveHint(size_t Numel) {
  if (Numel <= 1 || View)
    return;
  if (Heap) {
    if (Heap.use_count() == 1 && Heap->capacity() < Numel) {
      chargeMemory(Numel * sizeof(double));
      Heap->reserve(Numel);
    }
    return;
  }
  size_t N = numel(); // 0 or 1
  chargeMemory(Numel * sizeof(double));
  Heap = std::make_shared<PayloadBuffer>();
  Heap->reserve(Numel);
  Heap->resize(N);
  if (N == 1)
    (*Heap)[0] = InlineVal;
}

bool Value::equals(const Value &Other, double Tol) const {
  if (NumRows != Other.NumRows || NumCols != Other.NumCols)
    return false;
  for (size_t I = 0, E = numel(); I != E; ++I) {
    double A = linear(I), B = Other.linear(I);
    if (std::isnan(A) && std::isnan(B))
      continue;
    if (Tol == 0.0) {
      if (A != B)
        return false;
    } else {
      double Scale = std::fmax(1.0, std::fmax(std::fabs(A), std::fabs(B)));
      if (std::fabs(A - B) > Tol * Scale)
        return false;
    }
  }
  return true;
}

bool Value::isTrue() const {
  if (isEmpty())
    return false;
  for (size_t C = 0; C != NumCols; ++C)
    for (size_t R = 0; R != NumRows; ++R)
      if (at(R, C) == 0.0)
        return false;
  return true;
}

std::string Value::str() const {
  if (isEmpty())
    return "[]";
  if (isScalar())
    return formatMatlabNumber(raw()[0]);
  std::string Out = "[" + std::to_string(NumRows) + "x" +
                    std::to_string(NumCols) + "]";
  if (numel() <= 16) {
    Out += " [";
    for (size_t R = 0; R != NumRows; ++R) {
      if (R != 0)
        Out += "; ";
      for (size_t C = 0; C != NumCols; ++C) {
        if (C != 0)
          Out += ' ';
        Out += formatMatlabNumber(at(R, C));
      }
    }
    Out += ']';
  }
  return Out;
}
