//===- ValueTest.cpp - Copy-on-write Value semantics ----------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the COW payload contract of Value: copies share one buffer until a
/// mutation detaches, inline scalars never allocate, growth preserves
/// placement, and workspace snapshots stay isolated from later mutations.
///
//===----------------------------------------------------------------------===//

#include "interp/Value.h"

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "interp/MatrixOps.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace mvec;

namespace {

Value iota(size_t Rows, size_t Cols) {
  Value M(Rows, Cols);
  for (size_t I = 0; I != M.numel(); ++I)
    M.linear(I) = static_cast<double>(I + 1);
  return M;
}

Interpreter runOk(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Interp;
  EXPECT_TRUE(Interp.run(R.Prog)) << Interp.errorMessage();
  return Interp;
}

TEST(CowValueTest, CopySharesBufferUntilMutation) {
  Value A = iota(3, 3);
  Value B = A;
  EXPECT_TRUE(A.sharesBufferWith(B));
  EXPECT_EQ(A.raw(), B.raw());

  // Mutating the copy detaches it; the original is untouched.
  B.at(1, 1) = 99;
  EXPECT_FALSE(A.sharesBufferWith(B));
  EXPECT_DOUBLE_EQ(A.at(1, 1), 5);
  EXPECT_DOUBLE_EQ(B.at(1, 1), 99);
}

TEST(CowValueTest, MutatingOriginalDetachesFromCopies) {
  Value A = iota(2, 4);
  Value B = A;
  A.linear(0) = -1;
  EXPECT_FALSE(A.sharesBufferWith(B));
  EXPECT_DOUBLE_EQ(B.linear(0), 1);
  EXPECT_DOUBLE_EQ(A.linear(0), -1);
}

TEST(CowValueTest, ExclusiveOwnerMutatesInPlace) {
  Value A = iota(4, 4);
  const double *Before = A.raw();
  A.at(0, 0) = 42;
  EXPECT_EQ(A.raw(), Before); // no sharer, so no clone
}

TEST(CowValueTest, ScalarsStayInline) {
  Value A = Value::scalar(3.5);
  Value B = A;
  // Inline payloads are per-value storage: never "shared", never on the heap.
  EXPECT_FALSE(A.sharesBufferWith(B));
  B.linear(0) = 7;
  EXPECT_DOUBLE_EQ(A.scalarValue(), 3.5);
  EXPECT_DOUBLE_EQ(B.scalarValue(), 7);
}

TEST(CowValueTest, AdoptTakesExclusivePayloads) {
  auto Buf = std::make_shared<PayloadBuffer>(6, 2.0);
  double *Payload = Buf->data();
  Value M = Value::adoptBuffer(std::move(Buf), 2, 3);
  EXPECT_EQ(M.rows(), 2u);
  EXPECT_EQ(M.cols(), 3u);
  EXPECT_EQ(M.raw(), Payload);

  // A target of the same element count takes an exclusively owned payload
  // over and keeps its own shape and logical flag; the source empties.
  Value T(3, 2);
  T.setLogical(true);
  ASSERT_TRUE(T.adoptPayload(M));
  EXPECT_EQ(T.raw(), Payload);
  EXPECT_EQ(T.rows(), 3u);
  EXPECT_TRUE(T.isLogical());
  EXPECT_TRUE(M.isEmpty());

  // Shared payloads, views and other element counts are never adopted.
  Value Shared = T;
  Value Other = iota(2, 3), View = transpose(iota(3, 4));
  EXPECT_FALSE(Value(3, 2).adoptPayload(Shared));
  EXPECT_FALSE(Value(2, 2).adoptPayload(Other));
  EXPECT_FALSE(Value(4, 3).adoptPayload(View));
  EXPECT_TRUE(Shared.sharesBufferWith(T));
  EXPECT_EQ(Other.numel(), 6u);
}

TEST(CowValueTest, PayloadsAre64ByteAlignedAcrossPoolRecycle) {
  auto isAligned = [](const double *P) {
    return reinterpret_cast<uintptr_t>(P) % 64 == 0;
  };
  // Fresh heap payloads come from PayloadAllocator: 64-byte aligned.
  Value Direct(5, 9);
  EXPECT_TRUE(isAligned(Direct.raw()));

  // A large payload that dies goes to the recycler, and the next request
  // of its size takes the same block back, still aligned: the SIMD
  // backend depends on this holding for every recycled block, not just
  // fresh ones. Odd counts show alignment is not size luck.
  for (size_t N : {size_t(4099), size_t(5000)}) {
    ASSERT_GE(N * sizeof(double), RecycleMinBytes);
    const double *First;
    {
      Value Big(1, N);
      First = Big.raw();
      EXPECT_TRUE(isAligned(First));
    }
    PayloadRecyclerStats Before = payloadRecyclerStats();
    OpWorkspace WS;
    auto Again = WS.acquire(N);
    EXPECT_EQ(Again->data(), First);
    EXPECT_TRUE(isAligned(Again->data()));
    EXPECT_EQ(payloadRecyclerStats().Hits, Before.Hits + 1);
  }
}

TEST(CowValueTest, GrowToPreservesPositionsWhenShared) {
  Value A = iota(2, 2); // [1 3; 2 4] column-major
  Value B = A;
  A.growTo(3, 3);
  // Original elements keep their (row, col) slots, new cells are zero.
  EXPECT_DOUBLE_EQ(A.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(A.at(1, 0), 2);
  EXPECT_DOUBLE_EQ(A.at(0, 1), 3);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 4);
  EXPECT_DOUBLE_EQ(A.at(2, 2), 0);
  // The pre-growth copy is bitwise intact.
  EXPECT_EQ(B.rows(), 2u);
  EXPECT_DOUBLE_EQ(B.at(1, 1), 4);
}

TEST(CowValueTest, RowGrowthRestrides) {
  Value A = iota(2, 3);
  A.growTo(4, 3); // changes the column stride: every element must move
  for (size_t C = 0; C != 3; ++C) {
    EXPECT_DOUBLE_EQ(A.at(0, C), static_cast<double>(2 * C + 1));
    EXPECT_DOUBLE_EQ(A.at(1, C), static_cast<double>(2 * C + 2));
    EXPECT_DOUBLE_EQ(A.at(2, C), 0);
    EXPECT_DOUBLE_EQ(A.at(3, C), 0);
  }
}

TEST(CowValueTest, ReserveHintChangesNothingObservable) {
  Value A = iota(1, 3);
  Value Before = A;
  A.reserveHint(500);
  EXPECT_TRUE(A.equals(Before));
  A.growTo(1, 4);
  A.at(0, 3) = 9;
  EXPECT_DOUBLE_EQ(A.at(0, 2), 3);
  EXPECT_DOUBLE_EQ(A.at(0, 3), 9);

  // Hinting a scalar or an empty value must not change its shape.
  Value S = Value::scalar(2);
  S.reserveHint(100);
  EXPECT_TRUE(S.isScalar());
  EXPECT_DOUBLE_EQ(S.scalarValue(), 2);
  Value E;
  E.reserveHint(100);
  EXPECT_TRUE(E.isEmpty());
}

TEST(CowValueTest, VectorAppendIsAmortized) {
  // 20k element-at-a-time appends complete instantly under the geometric
  // policy; the quadratic seed implementation made this test take seconds.
  Value A;
  for (size_t I = 0; I != 20000; ++I) {
    A.growTo(1, I + 1);
    A.at(0, I) = static_cast<double>(I);
  }
  EXPECT_EQ(A.cols(), 20000u);
  EXPECT_DOUBLE_EQ(A.at(0, 19999), 19999.0);
}

TEST(CowInterpreterTest, SelfIndexAssignment) {
  // A = A(...) reads and writes the same variable; COW must keep the read
  // snapshot intact while the write replaces the slot.
  Interpreter I = runOk("A = [1 2 3 4];\n"
                        "A = A(4:-1:1);\n"
                        "B = [1 2; 3 4];\n"
                        "B(1, :) = B(2, :);\n");
  const Value *A = I.getVariable("A");
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->equals(Value::vector({4, 3, 2, 1}, /*Row=*/true)));
  const Value *B = I.getVariable("B");
  ASSERT_NE(B, nullptr);
  EXPECT_DOUBLE_EQ(B->at(0, 0), 3);
  EXPECT_DOUBLE_EQ(B->at(0, 1), 4);
  EXPECT_DOUBLE_EQ(B->at(1, 0), 3);
}

TEST(CowInterpreterTest, AliasedVariablesDivergeOnWrite) {
  // B = A then B(2) = 9: A must not see the write even though the engine
  // shared the payload at the copy.
  Interpreter I = runOk("A = [1 2 3];\nB = A;\nB(2) = 9;\n");
  EXPECT_TRUE(I.getVariable("A")->equals(Value::vector({1, 2, 3}, true)));
  EXPECT_TRUE(I.getVariable("B")->equals(Value::vector({1, 9, 3}, true)));
}

TEST(CowInterpreterTest, WorkspaceSnapshotIsolation) {
  Interpreter I = runOk("X = [1 2; 3 4];\n");
  std::map<std::string, Value> Snap = I.workspace();
  ASSERT_EQ(Snap.count("X"), 1u);

  // Mutate the live variable after snapshotting.
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("X(1, 1) = 100;\n", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_TRUE(I.run(R.Prog));

  EXPECT_DOUBLE_EQ(Snap.at("X").at(0, 0), 1);            // snapshot frozen
  EXPECT_DOUBLE_EQ(I.getVariable("X")->at(0, 0), 100.0); // live updated
}

TEST(CowInterpreterTest, SnapshotSurvivesClear) {
  Interpreter I = runOk("v = [5 6 7];\n");
  std::map<std::string, Value> Snap = I.workspace();
  I.clearWorkspace();
  EXPECT_EQ(I.getVariable("v"), nullptr);
  EXPECT_TRUE(Snap.at("v").equals(Value::vector({5, 6, 7}, true)));
}

//===----------------------------------------------------------------------===//
// Strided views
//===----------------------------------------------------------------------===//

TEST(ValueViewTest, TransposeAndSubscriptViewsShareUntilWritten) {
  Value X = iota(3, 4);
  Value T = transpose(X);
  EXPECT_TRUE(T.isView());
  EXPECT_TRUE(T.sharesBufferWith(X));
  EXPECT_EQ(T.rows(), 4u);
  EXPECT_EQ(T.cols(), 3u);
  for (size_t R = 0; R != 3; ++R)
    for (size_t C = 0; C != 4; ++C)
      EXPECT_DOUBLE_EQ(T.at(C, R), X.at(R, C));

  // A view of a view composes the steps: rows 2..3 of X' are columns 2..3
  // of X.
  Value V = T.view(2, 2, T.rowStep(), T.rowStep(), 2 * T.colStep(), false);
  EXPECT_DOUBLE_EQ(V.at(0, 0), X.at(0, 1));
  EXPECT_DOUBLE_EQ(V.at(1, 1), X.at(2, 2));
  EXPECT_DOUBLE_EQ(V.linear(3), X.at(2, 2));

  // Writing a view materializes it; the source never changes.
  T.at(0, 0) = 99;
  EXPECT_FALSE(T.isView());
  EXPECT_FALSE(T.sharesBufferWith(X));
  EXPECT_DOUBLE_EQ(X.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(T.at(1, 0), X.at(0, 1));

  // A transposed vector is dense: a plain value sharing the payload.
  Value Row = iota(1, 5);
  Value Col = transpose(Row);
  EXPECT_FALSE(Col.isView());
  EXPECT_TRUE(Col.sharesBufferWith(Row));
  EXPECT_EQ(Col.raw(), Row.raw());
}

TEST(ValueViewTest, ViewsChargeTheirCopyExactlyOnce) {
  Value X = iota(4, 4);
  ResourceGovernor G(0);
  GovernorScope Scope(&G);
  // A subscript view is prepaid: materializing it charges nothing more.
  Value S = X.view(2, 4, 0, 2, 4, false);
  EXPECT_EQ(S.owedBytes(), 0u);
  S.materialize();
  EXPECT_EQ(G.usedBytes(), 0u);
  EXPECT_FALSE(S.isView());
  // A transpose owes its copy until materialized, then owes nothing.
  Value T = transpose(X);
  EXPECT_EQ(T.owedBytes(), 16 * sizeof(double));
  T.materialize();
  EXPECT_EQ(G.usedBytes(), 16 * sizeof(double));
  EXPECT_EQ(T.owedBytes(), 0u);
  // A COW copy of a view shares no prepayment: it charges its own copy.
  Value V = X.view(3, 3, 5, 1, 4, false);
  Value Copy = V;
  Copy.materialize();
  EXPECT_EQ(G.usedBytes(), 25 * sizeof(double));
}

TEST(ValueViewTest, RepmatOfAVectorIsABroadcastView) {
  // Const throughout: a non-const element access is a write, which would
  // detach the payload or materialize the view.
  const Value Col = [] {
    Value V = iota(3, 1);
    V.linear(1) = 0; // a zero, so isTrue has an element to find
    return V;
  }();
  const Value Row = iota(1, 4);
  // A column repeated across columns has a column step of 0; a row
  // repeated down rows a row step of 0.
  const Value C = repmat(Col, 1, 4), R = repmat(Row, 3, 1);
  for (const Value *V : {&C, &R}) {
    EXPECT_TRUE(V->isView());
    EXPECT_EQ(V->rows(), 3u);
    EXPECT_EQ(V->cols(), 4u);
  }
  EXPECT_TRUE(C.sharesBufferWith(Col));
  EXPECT_TRUE(R.sharesBufferWith(Row));
  EXPECT_EQ(C.rowStep(), 1u);
  EXPECT_EQ(C.colStep(), 0u);
  EXPECT_EQ(R.rowStep(), 0u);
  EXPECT_EQ(R.colStep(), 1u);
  for (size_t I = 0; I != 12; ++I) {
    EXPECT_EQ(C.linear(I), Col.linear(I % 3));
    EXPECT_EQ(C.at(I % 3, I / 3), Col.linear(I % 3));
    EXPECT_EQ(R.linear(I), Row.linear(I / 3));
    EXPECT_EQ(R.at(I % 3, I / 3), Row.linear(I / 3));
  }
  double Dense[12];
  C.copyTo(Dense);
  for (size_t I = 0; I != 12; ++I)
    EXPECT_EQ(Dense[I], Col.linear(I % 3));
  EXPECT_FALSE(C.isTrue());
  EXPECT_TRUE(R.isTrue());

  // A materialized copy holds the same elements in a payload of its own.
  Value Copy = C;
  Copy.materialize();
  EXPECT_FALSE(Copy.isView());
  EXPECT_FALSE(Copy.sharesBufferWith(Col));
  EXPECT_TRUE(Copy.equals(C));
  EXPECT_TRUE(C.equals(Copy));
  EXPECT_FALSE(C.equals(R));

  // The transpose of a column broadcast is a row broadcast.
  Value T = transpose(C);
  EXPECT_TRUE(T.isView());
  EXPECT_EQ(T.rowStep(), 0u);
  EXPECT_EQ(T.colStep(), 1u);
  for (size_t Rw = 0; Rw != 4; ++Rw)
    for (size_t Cl = 0; Cl != 3; ++Cl)
      EXPECT_EQ(T.at(Rw, Cl), Col.linear(Cl));

  // Subscripts read the view where it stands: the step-composed view of
  // a range subscript, and the gather of an irregular one.
  Interpreter I;
  Value Sub = I.indexRead2(R, Value::vector({2, 3}, false),
                           Value::vector({2, 4}, true), SourceLoc());
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  EXPECT_TRUE(Sub.isView());
  EXPECT_EQ(Sub.rowStep(), 0u);
  Value Gather = I.indexRead2(C, Value::vector({3, 1}, false),
                              Value::vector({4, 2}, true), SourceLoc());
  Value Linear = I.indexRead1(C, Value::vector({12, 1, 5}, true), SourceLoc());
  ASSERT_FALSE(I.failed()) << I.errorMessage();
  for (size_t Cl = 0; Cl != 2; ++Cl)
    for (size_t Rw = 0; Rw != 2; ++Rw)
      EXPECT_EQ(Sub.at(Rw, Cl), Row.linear(2 * Cl + 1));
  EXPECT_EQ(Gather.at(0, 0), Col.linear(2));
  EXPECT_EQ(Gather.at(1, 1), Col.linear(0));
  EXPECT_EQ(Linear.linear(0), Col.linear(2));
  EXPECT_EQ(Linear.linear(1), Col.linear(0));
  EXPECT_EQ(Linear.linear(2), Col.linear(1));

  // A whole-array write never adopts a view's payload (it is not the
  // view's alone); the write materializes the view first.
  Value Src = C, Target(3, 4);
  EXPECT_FALSE(Target.adoptPayload(Src));
  EXPECT_TRUE(Src.isView());

  // Writing the view materializes it; its source never changes.
  Value W = C;
  W.at(0, 0) = 99;
  EXPECT_FALSE(W.isView());
  EXPECT_EQ(W.at(0, 1), 1);
  EXPECT_EQ(Col.linear(0), 1);
}

TEST(ValueViewTest, RepmatOfAMatrixScalarOrEmptyStaysACopy) {
  Value M = iota(2, 2), Col = iota(3, 1);
  Value Tile = repmat(M, 1, 3);
  EXPECT_FALSE(Tile.isView());
  EXPECT_FALSE(Tile.sharesBufferWith(M));
  EXPECT_EQ(Tile.at(1, 5), 4);
  // A vector tiled both ways, or not repeated at all, is a copy too.
  for (Value V : {repmat(Col, 2, 3), repmat(Col, 1, 1), repmat(Col, 1, 0)}) {
    EXPECT_FALSE(V.isView());
    EXPECT_FALSE(V.sharesBufferWith(Col));
  }
  Value S = repmat(Value::scalar(7), 2, 3);
  EXPECT_FALSE(S.isView());
  EXPECT_EQ(S.numel(), 6u);
  EXPECT_EQ(S.at(1, 2), 7);
  Value E = repmat(Value(), 2, 2);
  EXPECT_TRUE(E.isEmpty());
  EXPECT_FALSE(E.isView());
}

TEST(ValueViewTest, BroadcastViewChargesTheCopyItStandsFor) {
  // The view is charged, when made, the bytes of the copy it replaces: a
  // budget one byte short of that copy stops it, one that holds it does
  // not, and materializing or reading the view charges nothing more.
  Value Col = iota(100, 1);
  const size_t CopyBytes = 100 * 50 * sizeof(double);
  {
    ResourceGovernor Copy(0);
    GovernorScope Scope(&Copy);
    Value Same(100, 50); // what the copy's destination charged
    EXPECT_EQ(Copy.usedBytes(), CopyBytes);
  }
  {
    ResourceGovernor Short(CopyBytes - 1);
    GovernorScope Scope(&Short);
    EXPECT_THROW(repmat(Col, 1, 50), ResourceExhausted);
  }
  ResourceGovernor Exact(CopyBytes);
  GovernorScope Scope(&Exact);
  Value V = repmat(Col, 1, 50);
  EXPECT_TRUE(V.isView());
  EXPECT_EQ(Exact.usedBytes(), CopyBytes);
  EXPECT_EQ(V.owedBytes(), 0u);
  EXPECT_EQ(V.copyBytes(), 0u);
  V.materialize();
  EXPECT_FALSE(V.isView());
  EXPECT_EQ(Exact.usedBytes(), CopyBytes);
}

//===----------------------------------------------------------------------===//
// Payload recycler
//===----------------------------------------------------------------------===//

TEST(PayloadRecyclerTest, CapBoundsHeldBytes) {
  // Distinct large sizes die one after another: the oldest are returned
  // to the system so the cache never holds more than its cap.
  size_t Doubles = RecycleCapBytes / 16 / sizeof(double);
  for (size_t I = 0; I != 40; ++I) {
    Value V(1, Doubles + I);
    EXPECT_LE(payloadRecyclerStats().HeldBytes, RecycleCapBytes);
  }
  EXPECT_LE(payloadRecyclerStats().HeldBytes, RecycleCapBytes);
  EXPECT_GT(payloadRecyclerStats().HeldBytes, RecycleCapBytes / 2);
  // Small payloads bypass the cache entirely.
  PayloadRecyclerStats Before = payloadRecyclerStats();
  { Value Small(8, 8); }
  Value Small(8, 8);
  EXPECT_EQ(payloadRecyclerStats().Hits, Before.Hits);
  EXPECT_EQ(payloadRecyclerStats().Misses, Before.Misses);
}

TEST(PayloadRecyclerTest, CrossThreadFreeJoinsTheFreeingThread) {
  Value V(100, 100);
  const double *Payload = V.raw();
  size_t Bytes = V.numel() * sizeof(double);
  std::thread Worker([&V, Payload, Bytes] {
    // Dies on this thread, so it joins this thread's cache...
    size_t Held = payloadRecyclerStats().HeldBytes;
    V = Value();
    EXPECT_EQ(payloadRecyclerStats().HeldBytes, Held + Bytes);
    // ...and serves the next request of its size here. The block is
    // released when the thread exits.
    Value W(100, 100);
    EXPECT_EQ(W.raw(), Payload);
  });
  Worker.join();
  EXPECT_TRUE(V.isEmpty());
}

TEST(PayloadRecyclerTest, RepeatedKernelTakesEveryLargeBlockFromTheRecycler) {
  // The Table 2 repmat shape: the repmat is a broadcast view of C's
  // payload (no allocation), so the statement's one large allocation is
  // the sum, which the target adopts while its old payload dies. From the
  // second call on the recycler serves that allocation.
  DiagnosticEngine Diags;
  ParseResult Setup = parseMatlab(
      "B = rand(200,200);\nC = rand(200,1);\nA = zeros(200,200);\n", Diags);
  ParseResult Kernel = parseMatlab(
      "A(1:200,1:200) = B(1:200,1:200) + repmat(C(1:200),1,200);\n", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  Interpreter I;
  ASSERT_TRUE(I.run(Setup.Prog));
  ASSERT_TRUE(I.run(Kernel.Prog)) << I.errorMessage();
  PayloadRecyclerStats Warm = payloadRecyclerStats();
  for (int Call = 0; Call != 3; ++Call)
    ASSERT_TRUE(I.run(Kernel.Prog)) << I.errorMessage();
  PayloadRecyclerStats After = payloadRecyclerStats();
  EXPECT_EQ(After.Misses, Warm.Misses);
  EXPECT_GE(After.Hits, Warm.Hits + 3 * 1);
}

} // namespace
