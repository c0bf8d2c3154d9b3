//===- Value.cpp - MATLAB runtime value -----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Value.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <cmath>

using namespace mvec;

void Value::growTo(size_t Rows, size_t Cols) {
  if (Rows <= NumRows && Cols <= NumCols)
    return;
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
  if (Numel <= 1)
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
  const double *AD = raw();
  const double *BD = Other.raw();
  for (size_t I = 0, E = numel(); I != E; ++I) {
    double A = AD[I], B = BD[I];
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
  for (double D : *this)
    if (D == 0.0)
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
