//===- InterpreterTest.cpp - Interpreter integration tests ----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "frontend/Parser.h"
#include "resilience/ResourceGovernor.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

using namespace mvec;

namespace {

/// Runs a script and returns the interpreter for inspection.
Interpreter runOk(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Interp;
  EXPECT_TRUE(Interp.run(R.Prog)) << Interp.errorMessage();
  return Interp;
}

/// Runs a script expecting a runtime error.
std::string runError(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Interp;
  EXPECT_FALSE(Interp.run(R.Prog));
  return Interp.errorMessage();
}

double scalarVar(const Interpreter &Interp, const std::string &Name) {
  const Value *V = Interp.getVariable(Name);
  EXPECT_NE(V, nullptr) << "missing variable " << Name;
  if (!V || !V->isScalar())
    return std::nan("");
  return V->scalarValue();
}

TEST(InterpreterTest, ScalarArithmetic) {
  Interpreter I = runOk("x = 2+3*4;\ny = (2+3)*4;\nz = 2^3^2;\nw = -2^2;");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 14);
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 20);
  EXPECT_DOUBLE_EQ(scalarVar(I, "z"), 64); // left-assoc (2^3)^2
  EXPECT_DOUBLE_EQ(scalarVar(I, "w"), -4);
}

TEST(InterpreterTest, RangeConstruction) {
  Interpreter I = runOk("r = 1:5;\ns = 2:2:10;\ne = 5:1;\nd = 10:-2:5;");
  const Value *R = I.getVariable("r");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->rows(), 1u);
  EXPECT_EQ(R->cols(), 5u);
  EXPECT_DOUBLE_EQ(R->linear(4), 5);
  const Value *S = I.getVariable("s");
  EXPECT_EQ(S->cols(), 5u);
  EXPECT_DOUBLE_EQ(S->linear(4), 10);
  EXPECT_TRUE(I.getVariable("e")->isEmpty());
  const Value *D = I.getVariable("d");
  EXPECT_EQ(D->cols(), 3u);
  EXPECT_DOUBLE_EQ(D->linear(2), 6);
}

TEST(InterpreterTest, MatrixLiteralAndIndexing) {
  Interpreter I = runOk("A = [1 2 3; 4 5 6];\nx = A(2,3);\ny = A(4);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 6);
  // Column-major linear indexing: element 4 is row 2, col 2.
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 5);
}

TEST(InterpreterTest, ColumnMajorFlatten) {
  Interpreter I = runOk("A = [1 2; 3 4];\nv = A(:);");
  const Value *V = I.getVariable("v");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->rows(), 4u);
  EXPECT_EQ(V->cols(), 1u);
  EXPECT_DOUBLE_EQ(V->linear(0), 1);
  EXPECT_DOUBLE_EQ(V->linear(1), 3);
  EXPECT_DOUBLE_EQ(V->linear(2), 2);
  EXPECT_DOUBLE_EQ(V->linear(3), 4);
}

TEST(InterpreterTest, RowAndColumnSlices) {
  Interpreter I = runOk("A = [1 2 3; 4 5 6];\nr = A(2,:);\nc = A(:,2);");
  const Value *R = I.getVariable("r");
  EXPECT_EQ(R->rows(), 1u);
  EXPECT_EQ(R->cols(), 3u);
  EXPECT_DOUBLE_EQ(R->linear(2), 6);
  const Value *C = I.getVariable("c");
  EXPECT_EQ(C->rows(), 2u);
  EXPECT_EQ(C->cols(), 1u);
  EXPECT_DOUBLE_EQ(C->linear(1), 5);
}

TEST(InterpreterTest, VectorIndexKeepsBaseOrientation) {
  // MATLAB quirk the paper's dim rules rely on: indexing a column vector
  // with a row range yields a column.
  Interpreter I = runOk("A = [1;2;3;4];\nx = A(1:3);\nr = [1 2 3 4];\n"
                        "y = r((1:3)');");
  const Value *X = I.getVariable("x");
  EXPECT_EQ(X->rows(), 3u);
  EXPECT_EQ(X->cols(), 1u);
  const Value *Y = I.getVariable("y");
  EXPECT_EQ(Y->rows(), 1u);
  EXPECT_EQ(Y->cols(), 3u);
}

TEST(InterpreterTest, MatrixIndexTakesIndexShape) {
  // Indexing a row vector with a matrix index yields the index's shape.
  Interpreter I = runOk("t = [10 20 30 40];\nM = [1 2; 3 4];\nr = t(M);");
  const Value *R = I.getVariable("r");
  EXPECT_EQ(R->rows(), 2u);
  EXPECT_EQ(R->cols(), 2u);
  EXPECT_DOUBLE_EQ(R->at(0, 0), 10);
  EXPECT_DOUBLE_EQ(R->at(1, 1), 40);
}

TEST(InterpreterTest, EndKeyword) {
  Interpreter I = runOk("v = [1 2 3 4 5];\nx = v(end);\ny = v(end-1);\n"
                        "z = v(2:end);\nA = [1 2;3 4];\nw = A(end,end);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 5);
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 4);
  EXPECT_EQ(I.getVariable("z")->numel(), 4u);
  EXPECT_DOUBLE_EQ(scalarVar(I, "w"), 4);
}

TEST(InterpreterTest, AutoGrowVector) {
  Interpreter I = runOk("x(3) = 7;");
  const Value *X = I.getVariable("x");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->rows(), 1u);
  EXPECT_EQ(X->cols(), 3u);
  EXPECT_DOUBLE_EQ(X->linear(0), 0);
  EXPECT_DOUBLE_EQ(X->linear(2), 7);
}

TEST(InterpreterTest, AutoGrowMatrix) {
  Interpreter I = runOk("A(2,3) = 5;\nA(4,1) = 1;");
  const Value *A = I.getVariable("A");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->rows(), 4u);
  EXPECT_EQ(A->cols(), 3u);
  EXPECT_DOUBLE_EQ(A->at(1, 2), 5);
  EXPECT_DOUBLE_EQ(A->at(3, 0), 1);
}

TEST(InterpreterTest, GrowPreservesContents) {
  Interpreter I = runOk("A = [1 2; 3 4];\nA(3,3) = 9;");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(0, 0), 1);
  EXPECT_DOUBLE_EQ(A->at(1, 1), 4);
  EXPECT_DOUBLE_EQ(A->at(2, 2), 9);
  EXPECT_DOUBLE_EQ(A->at(0, 2), 0);
}

TEST(InterpreterTest, SlicedAssignment) {
  Interpreter I = runOk("A = zeros(3,3);\nA(2,:) = [1 2 3];\n"
                        "A(:,1) = [7;8;9];\nA(1:2,2:3) = [1 2; 3 4];");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(1, 0), 8);
  EXPECT_DOUBLE_EQ(A->at(0, 1), 1);
  EXPECT_DOUBLE_EQ(A->at(1, 2), 4);
}

TEST(InterpreterTest, OrientationMismatchedVectorAssignmentAllowed) {
  // MATLAB allows A(1,1:3) = [1;2;3].
  Interpreter I = runOk("A = zeros(2,3);\nA(1,1:3) = [1;2;3];");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(0, 2), 3);
}

TEST(InterpreterTest, ScalarBroadcastAssignment) {
  Interpreter I = runOk("A = ones(2,2);\nA(:,1) = 9;");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(0, 0), 9);
  EXPECT_DOUBLE_EQ(A->at(1, 0), 9);
  EXPECT_DOUBLE_EQ(A->at(0, 1), 1);
}

TEST(InterpreterTest, MatrixMultiply) {
  Interpreter I = runOk("A = [1 2; 3 4];\nB = [5 6; 7 8];\nC = A*B;");
  const Value *C = I.getVariable("C");
  EXPECT_DOUBLE_EQ(C->at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C->at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C->at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C->at(1, 1), 50);
}

TEST(InterpreterTest, DotProductRowTimesColumn) {
  Interpreter I = runOk("x = [1 2 3];\ny = [4;5;6];\nd = x*y;");
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 32);
}

TEST(InterpreterTest, InnerDimensionMismatchFails) {
  std::string Msg = runError("A = [1 2; 3 4];\nB = [1 2 3];\nC = A*B;");
  EXPECT_NE(Msg.find("inner matrix dimensions"), std::string::npos);
}

TEST(InterpreterTest, ElementwiseShapeMismatchFails) {
  std::string Msg = runError("x = [1 2 3] + [1 2];");
  EXPECT_NE(Msg.find("dimensions must agree"), std::string::npos);
}

TEST(InterpreterTest, NoImplicitRowColumnBroadcast) {
  // MATLAB 7 (the paper's target) rejects row + column.
  std::string Msg = runError("x = [1 2 3] + [1;2;3];");
  EXPECT_FALSE(Msg.empty());
}

TEST(InterpreterTest, Transpose) {
  Interpreter I = runOk("A = [1 2 3];\nB = A';\nC = (A+1)';");
  EXPECT_EQ(I.getVariable("B")->rows(), 3u);
  EXPECT_DOUBLE_EQ(I.getVariable("C")->linear(2), 4);
}

TEST(InterpreterTest, ForLoopAccumulation) {
  Interpreter I = runOk("s = 0;\nfor i=1:100, s = s + i; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 5050);
}

TEST(InterpreterTest, ForLoopWithStep) {
  Interpreter I = runOk("c = 0;\nfor i=2:2:10, c = c + 1; end\n"
                        "d = 0;\nfor j=10:-3:1, d = d + j; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 5);
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 22); // 10+7+4+1
}

TEST(InterpreterTest, ForLoopOverMatrixColumns) {
  Interpreter I = runOk("A = [1 2; 3 4];\ns = 0;\n"
                        "for col=A, s = s + col(1) + col(2); end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 10);
}

TEST(InterpreterTest, EmptyRangeLoopDoesNotRun) {
  Interpreter I = runOk("x = 0;\nfor i=5:1, x = 1; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 0);
}

TEST(InterpreterTest, WhileBreakContinue) {
  Interpreter I = runOk("i = 0; s = 0;\n"
                        "while 1\n"
                        "  i = i + 1;\n"
                        "  if i > 10, break; end\n"
                        "  if mod(i,2) == 0, continue; end\n"
                        "  s = s + i;\n"
                        "end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 25); // 1+3+5+7+9
}

TEST(InterpreterTest, IfElseChain) {
  Interpreter I = runOk("x = 5;\nif x < 3, y = 1; elseif x < 7, y = 2; "
                        "else y = 3; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 2);
}

TEST(InterpreterTest, LogicalOperators) {
  Interpreter I = runOk("a = 1 < 2 && 3 > 4;\nb = 1 < 2 || 3 > 4;\n"
                        "c = [1 0 1] & [1 1 0];\nd = ~[1 0];");
  EXPECT_DOUBLE_EQ(scalarVar(I, "a"), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "b"), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(0), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(1), 0);
  EXPECT_DOUBLE_EQ(I.getVariable("d")->linear(0), 0);
}

TEST(InterpreterTest, Builtins) {
  Interpreter I = runOk("A = zeros(2,3);\nr = size(A,1);\nc = size(A,2);\n"
                        "n = numel(A);\nl = length(A);\n"
                        "s = sum([1 2 3]);\ncs = cumsum([1 2 3]);\n"
                        "p = prod([2 3 4]);\nI2 = eye(2);\n"
                        "m = max([3 1 2]);\nmn = min(5, [7 2]);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "r"), 2);
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "n"), 6);
  EXPECT_DOUBLE_EQ(scalarVar(I, "l"), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 6);
  EXPECT_DOUBLE_EQ(I.getVariable("cs")->linear(2), 6);
  EXPECT_DOUBLE_EQ(scalarVar(I, "p"), 24);
  EXPECT_DOUBLE_EQ(I.getVariable("I2")->at(0, 0), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("I2")->at(0, 1), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "m"), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("mn")->linear(0), 5);
  EXPECT_DOUBLE_EQ(I.getVariable("mn")->linear(1), 2);
}

TEST(InterpreterTest, SumAlongDimensions) {
  Interpreter I = runOk("A = [1 2; 3 4];\nc = sum(A);\nr = sum(A,2);\n"
                        "t = sum(A(:));");
  const Value *C = I.getVariable("c");
  EXPECT_EQ(C->rows(), 1u);
  EXPECT_DOUBLE_EQ(C->linear(0), 4);
  EXPECT_DOUBLE_EQ(C->linear(1), 6);
  const Value *R = I.getVariable("r");
  EXPECT_EQ(R->cols(), 1u);
  EXPECT_DOUBLE_EQ(R->linear(0), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "t"), 10);
}

TEST(InterpreterTest, SumAndCumsumDimArgument) {
  // MATLAB returns the input for a dimension past the second (as a
  // double), and rejects a dimension that is not a positive integer.
  Interpreter I = runOk("A = [1 2; 3 4];\ns3 = sum(A, 3);\nc3 = cumsum(A, 3);\n"
                        "s9 = sum(A, 1e300);\nc2 = cumsum(A, 2);\n"
                        "M = A > 2;\nm3 = sum(M, 3);\nlm = islogical(m3);\n"
                        "disp(sum([1 2; 3 4], 3));\n");
  const Value *A = I.getVariable("A");
  for (const char *Name : {"s3", "c3", "s9"})
    EXPECT_TRUE(I.getVariable(Name)->equals(*A)) << Name;
  EXPECT_TRUE(I.getVariable("m3")->equals(*I.getVariable("M")));
  EXPECT_EQ(scalarVar(I, "lm"), 0);
  const Value *C2 = I.getVariable("c2");
  EXPECT_EQ(C2->at(0, 1), 3);
  EXPECT_EQ(C2->at(1, 1), 7);
  EXPECT_EQ(I.output(), runOk("disp([1 2; 3 4]);\n").output());
  for (const char *Fn : {"sum", "cumsum"}) {
    for (const char *Dim : {"0", "-1", "2.5", "0/0", "1/0", "-1/0"})
      EXPECT_EQ(runError(std::string("A = [1 2; 3 4];\nx = ") + Fn + "(A, " +
                         Dim + ");\n"),
                std::string("dimension argument to '") + Fn +
                    "' must be a positive integer")
          << Fn << " dim " << Dim;
    EXPECT_EQ(runError(std::string("x = ") + Fn + "([1 2], [1 2]);\n"),
              std::string("argument to '") + Fn + "' must be a scalar");
  }
}

/// True when \p A and \p B have one shape and the same bits per element.
bool sameBits(const Value &A, const Value &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols() ||
      A.isLogical() != B.isLogical())
    return false;
  for (size_t I = 0, E = A.numel(); I != E; ++I) {
    double X = A.linear(I), Y = B.linear(I);
    if (std::memcmp(&X, &Y, sizeof(double)) != 0)
      return false;
  }
  return true;
}

TEST(InterpreterTest, SumOfProductsMatchesTheTwoStepForm) {
  // sum(A .* B, d) runs in one pass; it must equal, bit for bit, the sum
  // of the product held in a variable, on plain, transposed, broadcast,
  // subscripted and scalar operands with IEEE specials among them.
  Interpreter I = runOk(
      "A = rand(6, 5); B = rand(6, 5); s = 3;\n"
      "A(2, 3) = 0/0; B(4, 1) = -1/0; A(5, 5) = -0; B(1, 2) = 1/0;\n"
      "P = A .* B; x1 = sum(A .* B, 1); y1 = sum(P, 1);\n"
      "x2 = sum(A .* B, 2); y2 = sum(P, 2);\n"
      "T = B' .* A'; x3 = sum(B' .* A', 2); y3 = sum(T, 2);\n"
      "R = repmat(A(:, 1), 1, 5) .* B; x4 = sum(repmat(A(:, 1), 1, 5) .* B, 1);"
      " y4 = sum(R, 1);\n"
      "Q = B .* repmat(A(2, :), 6, 1); x5 = sum(B .* repmat(A(2, :), 6, 1), 2);"
      " y5 = sum(Q, 2);\n"
      "S = s .* B; x6 = sum(s .* B, 1); y6 = sum(S, 1);\n"
      "U = A(1:2:5, 2:4) .* B(2:4, [1 3 5]); x7 = sum(A(1:2:5, 2:4) .* "
      "B(2:4, [1 3 5]), 1); y7 = sum(U, 1);\n"
      "x8 = sum(A .* B, 3); y8 = P;\n"
      "x9 = sum(s .* s, 2); y9 = sum(s * s, 2);\n");
  for (int K = 1; K <= 9; ++K) {
    std::string X = "x" + std::to_string(K), Y = "y" + std::to_string(K);
    EXPECT_TRUE(sameBits(*I.getVariable(X), *I.getVariable(Y))) << X;
  }

  // The operands draw from rand in the order the two-step form does.
  Interpreter Fused =
      runOk("x = sum(rand(3, 4) .* rand(3, 4), 2);\nr = rand(1);\n");
  Interpreter TwoStep = runOk(
      "a = rand(3, 4);\nb = rand(3, 4);\nx = sum(a .* b, 2);\nr = rand(1);\n");
  EXPECT_TRUE(sameBits(*Fused.getVariable("x"), *TwoStep.getVariable("x")));
  EXPECT_EQ(scalarVar(Fused, "r"), scalarVar(TwoStep, "r"));

  // A variable named sum is indexed, not called.
  EXPECT_EQ(scalarVar(runOk("sum = [5 6; 7 8];\nx = sum(1 .* 2, 1);\n"), "x"),
            7);
}

TEST(InterpreterTest, SumOfProductsErrorsAreTheTwoStepErrors) {
  // A shape mismatch is the product's error, at the product, before the
  // dimension argument is looked at.
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(
      "A = ones(2, 3);\nB = ones(3, 2);\nx = sum(A .* B, [1 2]);\n", Diags);
  Interpreter I;
  EXPECT_FALSE(I.run(R.Prog));
  EXPECT_EQ(I.errorMessage(), "matrix dimensions must agree (2x3 vs 3x2)");
  EXPECT_EQ(I.errorLoc().Line, 3u);
  EXPECT_EQ(I.errorLoc().Col, 11u);
  EXPECT_EQ(runError("A = ones(2, 3);\nx = sum(A .* A, [1 2]);\n"),
            "argument to 'sum' must be a scalar");
  EXPECT_EQ(runError("A = ones(2, 3);\nx = sum(A .* A, 0);\n"),
            "dimension argument to 'sum' must be a positive integer");
  EXPECT_EQ(runError("A = ones(2, 3);\nx = sum(A .* A, end);\n"),
            "':' and 'end' are not valid function arguments");
  // 'end' is unbound inside a call's arguments, even within a subscript.
  EXPECT_EQ(runError("v = 1:4;\nx = v(sum(v .* end, 2));\n"),
            "'end' outside of a subscript");
}

TEST(InterpreterTest, Repmat) {
  Interpreter I = runOk("v = [1;2];\nA = repmat(v, 1, 3);\n"
                        "B = repmat([1 2], [2 2]);");
  const Value *A = I.getVariable("A");
  EXPECT_EQ(A->rows(), 2u);
  EXPECT_EQ(A->cols(), 3u);
  EXPECT_DOUBLE_EQ(A->at(1, 2), 2);
  const Value *B = I.getVariable("B");
  EXPECT_EQ(B->rows(), 2u);
  EXPECT_EQ(B->cols(), 4u);
}

TEST(InterpreterTest, HistAndCumsum) {
  Interpreter I =
      runOk("x = [0 0 1 2 2 2];\nh = hist(x, [0 1 2]);\nc = cumsum(h);");
  const Value *H = I.getVariable("h");
  ASSERT_EQ(H->numel(), 3u);
  EXPECT_DOUBLE_EQ(H->linear(0), 2);
  EXPECT_DOUBLE_EQ(H->linear(1), 1);
  EXPECT_DOUBLE_EQ(H->linear(2), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(2), 6);
}

TEST(InterpreterTest, Diag) {
  Interpreter I = runOk("A = [1 2; 3 4];\nd = diag(A);\nD = diag([5 6]);");
  const Value *D1 = I.getVariable("d");
  EXPECT_EQ(D1->rows(), 2u);
  EXPECT_DOUBLE_EQ(D1->linear(1), 4);
  const Value *D2 = I.getVariable("D");
  EXPECT_DOUBLE_EQ(D2->at(1, 1), 6);
  EXPECT_DOUBLE_EQ(D2->at(0, 1), 0);
}

TEST(InterpreterTest, DispAndFprintf) {
  Interpreter I = runOk("disp(42);\nfprintf('x=%d y=%.2f\\n', 3, 1.5);");
  EXPECT_EQ(I.output(), "42\nx=3 y=1.50\n");
}

TEST(InterpreterTest, RandIsDeterministicPerSeed) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("x = rand(2,2);", Diags);
  Interpreter A, B;
  A.seedRandom(42);
  B.seedRandom(42);
  A.run(R.Prog);
  B.run(R.Prog);
  EXPECT_TRUE(A.getVariable("x")->equals(*B.getVariable("x")));
  Interpreter C;
  C.seedRandom(43);
  C.run(R.Prog);
  EXPECT_FALSE(A.getVariable("x")->equals(*C.getVariable("x")));
}

TEST(InterpreterTest, UndefinedVariableFails) {
  std::string Msg = runError("y = nope + 1;");
  EXPECT_NE(Msg.find("undefined"), std::string::npos);
}

TEST(InterpreterTest, OutOfBoundsReadFails) {
  std::string Msg = runError("v = [1 2 3];\nx = v(7);");
  EXPECT_NE(Msg.find("exceeds"), std::string::npos);
}

TEST(InterpreterTest, NonIntegerIndexFails) {
  std::string Msg = runError("v = [1 2 3];\nx = v(1.5);");
  EXPECT_NE(Msg.find("positive integers"), std::string::npos);
}

TEST(InterpreterTest, LinearGrowOfMatrixFails) {
  std::string Msg = runError("A = [1 2; 3 4];\nA(9) = 1;");
  EXPECT_FALSE(Msg.empty());
}

TEST(InterpreterTest, StepLimitStopsRunawayLoop) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("while 1\n x = 1;\nend", Diags);
  Interpreter I;
  I.setStepLimit(1000);
  EXPECT_FALSE(I.run(R.Prog));
  EXPECT_NE(I.errorMessage().find("step limit"), std::string::npos);
}

TEST(InterpreterTest, HistogramEqualizationPipelineRuns) {
  // The paper's Fig. 3 loop code on a small synthetic image.
  Interpreter I = runOk(
      "im = mod(reshape(0:24-1, 4, 6), 8);\n"
      "h = hist(im(:), [0:255]);\n"
      "heq = 255*cumsum(h(:))/sum(h(:));\n"
      "for i=1:size(im,1)\n"
      "  for j=1:size(im,2)\n"
      "    im2(i,j) = heq(im(i,j)+1);\n"
      "  end\n"
      "end");
  const Value *Im2 = I.getVariable("im2");
  ASSERT_NE(Im2, nullptr);
  EXPECT_EQ(Im2->rows(), 4u);
  EXPECT_EQ(Im2->cols(), 6u);
  // Equalized intensities are monotone in the input intensity.
  const Value *Im = I.getVariable("im");
  for (size_t A = 0; A != Im->numel(); ++A)
    for (size_t B = 0; B != Im->numel(); ++B)
      if (Im->linear(A) <= Im->linear(B)) {
        EXPECT_LE(Im2->linear(A), Im2->linear(B) + 1e-12);
      }
}

TEST(InterpreterTest, WorkspaceComparison) {
  Interpreter A = runOk("x = [1 2 3];");
  Interpreter B = runOk("x = [1 2 3];");
  EXPECT_EQ(compareWorkspaces(A, B), "");
  Interpreter C = runOk("x = [1 2 4];");
  EXPECT_NE(compareWorkspaces(A, C), "");
  Interpreter D = runOk("x = [1 2 3]; y = 1;");
  EXPECT_NE(compareWorkspaces(A, D), "");
}

} // namespace

namespace {

TEST(InterpreterTest, FindAnyAllNnz) {
  Interpreter I = runOk("v = [0 3 0 5];\nf = find(v);\n"
                        "a1 = any(v);\na2 = any([0 0]);\n"
                        "b1 = all(v);\nb2 = all([1 2]);\n"
                        "c = nnz(v);\n"
                        "M = [1 0; 1 1];\nam = any(M);\nal = all(M);");
  const Value *F = I.getVariable("f");
  ASSERT_EQ(F->numel(), 2u);
  EXPECT_TRUE(F->isRow());
  EXPECT_DOUBLE_EQ(F->linear(0), 2);
  EXPECT_DOUBLE_EQ(F->linear(1), 4);
  EXPECT_DOUBLE_EQ(scalarVar(I, "a1"), 1);
  EXPECT_DOUBLE_EQ(scalarVar(I, "a2"), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "b1"), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "b2"), 1);
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 2);
  EXPECT_DOUBLE_EQ(I.getVariable("am")->linear(1), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("al")->linear(1), 0);
}

TEST(InterpreterTest, FindOnColumnYieldsColumn) {
  Interpreter I = runOk("f = find([0;7;8]);");
  const Value *F = I.getVariable("f");
  EXPECT_TRUE(F->isColumn());
  EXPECT_EQ(F->numel(), 2u);
}

TEST(InterpreterTest, NormAndDot) {
  Interpreter I = runOk("n = norm([3 4]);\nd = dot([1 2 3],[4;5;6]);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "n"), 5);
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 32);
}

TEST(InterpreterTest, Flips) {
  Interpreter I = runOk("r = fliplr([1 2 3]);\nc = flipud([1;2;3]);\n"
                        "M = flipud([1 2;3 4]);");
  EXPECT_DOUBLE_EQ(I.getVariable("r")->linear(0), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(0), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("M")->at(0, 0), 3);
}

TEST(InterpreterTest, FindFeedsIndexing) {
  Interpreter I = runOk("v = [10 0 30 0 50];\nw = v(find(v));");
  const Value *W = I.getVariable("w");
  ASSERT_EQ(W->numel(), 3u);
  EXPECT_DOUBLE_EQ(W->linear(2), 50);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Logical values and mask indexing
//===----------------------------------------------------------------------===//

TEST(LogicalTest, ComparisonsProduceLogical) {
  Interpreter I = runOk("m = [1 5 3] > 2;\nn = ~m;\nd = double(m);\n"
                        "t = true; f = false;\nil = islogical(m);\n"
                        "id = islogical(d);");
  EXPECT_TRUE(I.getVariable("m")->isLogical());
  EXPECT_TRUE(I.getVariable("n")->isLogical());
  EXPECT_FALSE(I.getVariable("d")->isLogical());
  EXPECT_TRUE(I.getVariable("t")->isLogical());
  EXPECT_DOUBLE_EQ(scalarVar(I, "il"), 1);
  EXPECT_DOUBLE_EQ(scalarVar(I, "id"), 0);
}

TEST(LogicalTest, MaskReadSelectsElements) {
  Interpreter I = runOk("x = [10 20 30 40];\ny = x(x > 15);\n"
                        "c = [1;2;3];\nz = c(c >= 2);");
  const Value *Y = I.getVariable("y");
  ASSERT_EQ(Y->numel(), 3u);
  EXPECT_TRUE(Y->isRow()); // row base -> row result
  EXPECT_DOUBLE_EQ(Y->linear(0), 20);
  const Value *Z = I.getVariable("z");
  EXPECT_TRUE(Z->isColumn());
  EXPECT_EQ(Z->numel(), 2u);
}

TEST(LogicalTest, MaskWriteAssignsElements) {
  Interpreter I = runOk("x = [1 2 3 4 5];\nx(x > 3) = 0;\n"
                        "y = [1 2 3];\ny(y < 3) = [8 9];");
  const Value *X = I.getVariable("x");
  EXPECT_DOUBLE_EQ(X->linear(3), 0);
  EXPECT_DOUBLE_EQ(X->linear(4), 0);
  EXPECT_DOUBLE_EQ(X->linear(2), 3);
  const Value *Y = I.getVariable("y");
  EXPECT_DOUBLE_EQ(Y->linear(0), 8);
  EXPECT_DOUBLE_EQ(Y->linear(1), 9);
}

TEST(LogicalTest, MaskRowSelectionOnMatrix) {
  Interpreter I = runOk("A = [1 2; 3 4; 5 6];\nm = [1 0 1] > 0;\n"
                        "B = A(m', :);\nC = A(logical([0;1;0]), :);");
  const Value *B = I.getVariable("B");
  EXPECT_EQ(B->rows(), 2u);
  EXPECT_DOUBLE_EQ(B->at(1, 0), 5);
  const Value *C = I.getVariable("C");
  EXPECT_EQ(C->rows(), 1u);
  EXPECT_DOUBLE_EQ(C->at(0, 1), 4);
}

TEST(LogicalTest, MaskTooLongFails) {
  std::string Msg = runError("x = [1 2];\ny = x(logical([1 0 1]));");
  EXPECT_NE(Msg.find("logical index"), std::string::npos);
}

TEST(LogicalTest, ArithmeticStripsLogical) {
  Interpreter I = runOk("m = [1 0 1] > 0;\ns = m + 0;");
  EXPECT_FALSE(I.getVariable("s")->isLogical());
}

TEST(LogicalTest, CountingWithMasksMatchesBuiltins) {
  Interpreter I = runOk("v = [3 -1 4 -1 5];\nneg = sum(v < 0);\n"
                        "k = nnz(v < 0);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "neg"), 2);
  EXPECT_DOUBLE_EQ(scalarVar(I, "k"), 2);
}

TEST(LogicalTest, MaskSizeMismatchOnWriteFails) {
  std::string Msg = runError("x = [1 2 3];\nx(x > 1) = [7 8 9];");
  EXPECT_NE(Msg.find("mismatch"), std::string::npos);
}

} // namespace


//===----------------------------------------------------------------------===//
// Data movement: shared full-extent reads, column-run copies, A' * B
//===----------------------------------------------------------------------===//

namespace {

/// Column-major contents of variable \p Name, for compact comparisons.
std::vector<double> contents(const Interpreter &I, const std::string &Name) {
  const Value *V = I.getVariable(Name);
  EXPECT_NE(V, nullptr) << "missing variable " << Name;
  return V ? std::vector<double>(V->begin(), V->end()) : std::vector<double>();
}

TEST(InterpreterTest, FullExtentReadSharesUntilEitherSideWrites) {
  Interpreter I = runOk("A = [1 2; 3 4; 5 6];\nB = A(1:end, :);\n"
                        "C = A(1:3, 1:2);\nD = A(:, :);");
  const Value *A = I.getVariable("A");
  EXPECT_TRUE(I.getVariable("B")->sharesBufferWith(*A));
  EXPECT_TRUE(I.getVariable("C")->sharesBufferWith(*A));
  EXPECT_TRUE(I.getVariable("D")->sharesBufferWith(*A));

  // Writing the copy leaves the source alone, and the reverse.
  Interpreter W = runOk("A = [1 2; 3 4; 5 6];\nB = A(1:end, :);\nB(1) = 7;\n"
                        "C = [1 2; 3 4];\nD = C(1:2, :);\nC(4) = 9;");
  EXPECT_EQ(contents(W, "A"), (std::vector<double>{1, 3, 5, 2, 4, 6}));
  EXPECT_EQ(contents(W, "B"), (std::vector<double>{7, 3, 5, 2, 4, 6}));
  EXPECT_EQ(contents(W, "C"), (std::vector<double>{1, 3, 2, 9}));
  EXPECT_EQ(contents(W, "D"), (std::vector<double>{1, 3, 2, 4}));
}

TEST(InterpreterTest, EmptyExtentsKeepTheirShape) {
  Interpreter I = runOk("Z = zeros(3, 0);\nE = Z(1:3, :);\n"
                        "F = zeros(3,0)(1:3,:);\nG = zeros(0, 2)(:, 1:2);");
  for (const char *Name : {"E", "F"}) {
    EXPECT_EQ(I.getVariable(Name)->rows(), 3u) << Name;
    EXPECT_EQ(I.getVariable(Name)->cols(), 0u) << Name;
  }
  EXPECT_EQ(I.getVariable("G")->rows(), 0u);
  EXPECT_EQ(I.getVariable("G")->cols(), 2u);
}

TEST(InterpreterTest, LogicalFlagSurvivesEveryPath) {
  Interpreter I = runOk("M = [1 0 3; 0 5 0; 7 0 9] > 0;\nS = M(1:3, :);\n"
                        "R = M(2:3, [1 3]);\nV = M([2 3 4]);\nN = M + 0;\n"
                        "T = N(1:3, :);");
  for (const char *Name : {"M", "S", "R", "V"})
    EXPECT_TRUE(I.getVariable(Name)->isLogical()) << Name;
  EXPECT_FALSE(I.getVariable("T")->isLogical());
  EXPECT_EQ(contents(I, "R"), (std::vector<double>{0, 1, 0, 1}));
}

TEST(InterpreterTest, IrregularSubscriptsTakeTheGeneralPath) {
  Interpreter I = runOk("A = [1 2; 3 4; 5 6; 7 8];\nn = 4; k = 2;\n"
                        "R = A(n:-1:1, :);\nS = A(2*(1:k), :);\n"
                        "D = A([1 1], :);\nP = A([2 3], [2 1]);\n"
                        "Q = A(2:3, [2 2]);\n"
                        "m = [1 1] > 0;\nm(1) = 2;\nm(2) = 3;\nK = A(m, :);");
  EXPECT_EQ(contents(I, "R"), (std::vector<double>{7, 5, 3, 1, 8, 6, 4, 2}));
  EXPECT_EQ(contents(I, "S"), (std::vector<double>{3, 7, 4, 8}));
  EXPECT_EQ(contents(I, "D"), (std::vector<double>{1, 1, 2, 2}));
  EXPECT_EQ(contents(I, "P"), (std::vector<double>{4, 6, 3, 5}));
  EXPECT_EQ(contents(I, "Q"), (std::vector<double>{4, 6, 4, 6}));
  // A mask whose values happen to read 2, 3 still selects by mask.
  EXPECT_EQ(contents(I, "K"), (std::vector<double>{1, 3, 2, 4}));
  EXPECT_FALSE(I.getVariable("R")->sharesBufferWith(*I.getVariable("A")));
}

TEST(InterpreterTest, ColumnRunWritesAndRepmat) {
  Interpreter I = runOk("A = zeros(4, 3);\nA(2:3, [3 1]) = [1 2; 3 4];\n"
                        "B = zeros(2, 2);\nB(1:2, :) = 5;\nB(2:3, 2) = [6; 7];\n"
                        "C = repmat([1; 2], 2, 3);");
  EXPECT_EQ(contents(I, "A"),
            (std::vector<double>{0, 2, 4, 0, 0, 0, 0, 0, 0, 1, 3, 0}));
  EXPECT_EQ(contents(I, "B"), (std::vector<double>{5, 5, 0, 5, 6, 7}));
  const Value *C = I.getVariable("C");
  EXPECT_EQ(C->rows(), 4u);
  EXPECT_EQ(C->cols(), 3u);
  EXPECT_EQ(contents(I, "C"),
            (std::vector<double>{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2}));
}

TEST(InterpreterTest, TransposedProductsMatchTheMaterializedForm) {
  Interpreter I = runOk("A = [1 2; 3 4; 5 6];\nB = [1 0; 2 1; 0 3];\n"
                        "P = A' * B;\nQ = transpose(A) * B;\n"
                        "C = [1 2 3; 4 5 6];\nR = A' * C';\n"
                        "s = 2;\nS = s' * A;\nv = [1; 2; 3];\nw = v' * v;");
  EXPECT_EQ(contents(I, "P"), contents(I, "Q"));
  EXPECT_EQ(contents(I, "P"), (std::vector<double>{7, 10, 18, 22}));
  EXPECT_EQ(contents(I, "R"), (std::vector<double>{22, 28, 49, 64}));
  EXPECT_EQ(contents(I, "S"), (std::vector<double>{2, 6, 10, 4, 8, 12}));
  EXPECT_DOUBLE_EQ(scalarVar(I, "w"), 14);
  EXPECT_EQ(runError("A = ones(3, 2);\nB = ones(2, 2);\nC = A' * B;"),
            "inner matrix dimensions must agree (2x3 * 2x2)");
}

/// Every bad subscript reports the same text on the fast paths as on the
/// general path: the one-pass 1-D gather, the shared full extent, and
/// the column-run read and write.
TEST(InterpreterTest, BadSubscriptErrorsAreUnchanged) {
  const std::string Int = "subscript indices must be positive integers";
  const std::pair<const char *, std::string> Cases[] = {
      {"v = 1:5;\nx = v([2 0]);", Int},
      {"v = 1:5;\nx = v([2 1.5]);", Int},
      {"v = 1:5;\nx = v([2 0/0]);", Int},
      {"v = 1:5;\nx = v([2 1/0]);", Int},
      {"v = 1:5;\nx = v(-1/0);", Int},
      {"v = 1:5;\nx = v([2 6]);", "index 6 exceeds matrix dimension (5)"},
      {"v = 1:5;\nx = v(2:7);", "index 6 exceeds matrix dimension (5)"},
      {"A = ones(3, 2);\nx = A(1:3, [1 0]);", Int},
      {"A = ones(3, 2);\nx = A(1:3, [1 1.5]);", Int},
      {"A = ones(3, 2);\nx = A(1:3, [1 0/0]);", Int},
      {"A = ones(3, 2);\nx = A(1:3, [1 1/0]);", Int},
      {"A = ones(3, 2);\nx = A(1:3, 1:3);",
       "index 3 exceeds matrix dimension (2)"},
      {"A = ones(3, 2);\nx = A(2:4, :);",
       "index 4 exceeds matrix dimension (3)"},
      {"A = ones(3, 2);\nx = A(0:2, :);", Int},
      {"A = ones(3, 2);\nx = A([1 0/0], :);", Int},
      {"A = ones(3, 2);\nx = A([1.5 2.5], :);", Int},
      {"A = zeros(3, 3);\nA(1:3, [1 0]) = 1;", Int},
      {"A = zeros(3, 3);\nA(1:3, [1 1.5]) = 1;", Int},
      {"A = zeros(3, 3);\nA(1:3, [1 0/0]) = 1;", Int},
      {"A = zeros(3, 3);\nA(1:3, [1 1/0]) = 1;", Int},
      {"A = zeros(3, 3);\nA(0:2, 1) = 1;", Int},
      {"A = zeros(3, 3);\nA(1:2, 1:2) = [1 2 3];",
       "indexed assignment size mismatch"},
  };
  for (const auto &[Source, Message] : Cases)
    EXPECT_EQ(runError(Source), Message) << Source;
}

/// Subscripts too large for any array fail cleanly before anything is
/// cast to size_t or allocated: a read past 2^53, growth to a payload
/// over Interpreter::MaxArrayBytes, and a shape whose byte count would
/// overflow size_t.
TEST(InterpreterTest, HugeSubscriptsFailCleanly) {
  const std::string Int = "subscript indices must be positive integers";
  const std::string Max = " array exceeds the maximum array size";
  const std::pair<const char *, std::string> Cases[] = {
      {"v = [10 20 30];\nx = v(1e300);",
       "index 1e+300 exceeds matrix dimension (3)"},
      {"A = [1 2; 3 4];\nx = A(1e300, 1);",
       "index 1e+300 exceeds matrix dimension (2)"},
      {"v = [10 20 30];\nv(1e300) = 4;", "requested 1x1e+300" + Max},
      {"A = [1 2; 3 4];\nA(1e300, 1) = 4;", "requested 1e+300x2" + Max},
      {"v = [10 20 30];\nv(1e12) = 4;", "requested 1x1000000000000" + Max},
      {"A = [1 2; 3 4];\nA(2^40, 2^40) = 1;",
       "requested 1099511627776x1099511627776" + Max},
      {"e = [];\ne(1e300, :) = 1;", "requested 1e+300x0" + Max},
      {"A = [1 2; 3 4];\nA(1e300) = 4;",
       "linear indexed assignment cannot grow a matrix"},
      {"v = [10 20 30];\nv(1/0) = 4;", Int},
      {"v = [10 20 30];\nv([5 0]) = 4;", Int},
  };
  for (const auto &[Source, Message] : Cases)
    EXPECT_EQ(runError(Source), Message) << Source;
}

/// A rejected write leaves its target as it was: validation runs before
/// any growth.
TEST(InterpreterTest, RejectedWriteDoesNotGrow) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("v = [10 20 30];\nv([5 0]) = 4;", Diags);
  Interpreter Interp;
  EXPECT_FALSE(Interp.run(R.Prog));
  const Value *V = Interp.getVariable("v");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->numel(), 3u);
}

TEST(InterpreterTest, EndResolvesPerSubscript) {
  Interpreter I = runOk("v = [1 2 3 4 5];\nA = [1 2 3; 4 5 6];\n"
                        "a = v(end);\nc = A(end, 1);\nd = A(1, end);\n"
                        "e = v(v(end) - 3);\ng = A(end);\n");
  EXPECT_DOUBLE_EQ(scalarVar(I, "a"), 5);
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 4);
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "e"), 2);
  EXPECT_DOUBLE_EQ(scalarVar(I, "g"), 6);
  // Builtin arguments and matrix literals do not see the subscript's end.
  EXPECT_EQ(runError("v = 1:3;\nx = v(max(end + 0, 1));"),
            "'end' outside of a subscript");
  EXPECT_EQ(runError("v = 1:3;\nx = v([end 1]);"),
            "'end' outside of a subscript");
}

//===----------------------------------------------------------------------===//
// Strided views, whole-array writes, logical-flag builtins
//===----------------------------------------------------------------------===//

TEST(InterpreterTest, ViewsAreCopyOnWrite) {
  // Transposes and stepped subscripts are views of X; writing either
  // side leaves the other as it was.
  Interpreter I = runOk("X = [1 2 3; 4 5 6];\nB = X';\nB(1) = 7;\n"
                        "C = X(1:2:end, :);\nC(2) = 8;\nD = X';\nX(2) = 9;\n"
                        "E = transpose(X)(2:3, 1:2);\nF = X(1:2, 1:2:3)(2, :);\n"
                        "M = X > 2;\nL = transpose(M)(1:2:3, :);\n"
                        "l = islogical(L);\nG = X(:, 2:3)';\nG(:) = 0;\n");
  EXPECT_EQ(contents(I, "X"), (std::vector<double>{1, 9, 2, 5, 3, 6}));
  EXPECT_EQ(contents(I, "B"), (std::vector<double>{7, 2, 3, 4, 5, 6}));
  EXPECT_EQ(contents(I, "C"), (std::vector<double>{1, 8, 3}));
  EXPECT_EQ(contents(I, "D"), (std::vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(contents(I, "E"), (std::vector<double>{2, 3, 5, 6}));
  EXPECT_EQ(contents(I, "F"), (std::vector<double>{9, 6}));
  EXPECT_EQ(contents(I, "L"), (std::vector<double>{0, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(scalarVar(I, "l"), 1);
  EXPECT_EQ(contents(I, "G"), (std::vector<double>{0, 0, 0, 0}));
  for (const char *Name : {"B", "C", "D", "E", "F", "L", "G"})
    EXPECT_FALSE(I.getVariable(Name)->sharesBufferWith(*I.getVariable("X")))
        << Name;
}

/// A bad subscript on a view base reports exactly what it reports on the
/// same values stored as a plain matrix.
TEST(InterpreterTest, BadSubscriptErrorsOnViewsAreUnchanged) {
  const char *Setup = "X = [1 2 3; 4 5 6];\nT = X';\nS = X(1:2, 1:2:3);\n";
  const std::pair<const char *, const char *> Reads[] = {
      {"transpose(X)(1:4, 1)", "T(1:4, 1)"},
      {"transpose(X)(0:1, 1)", "T(0:1, 1)"},
      {"transpose(X)([1 1.5], :)", "T([1 1.5], :)"},
      {"transpose(X)(2, 0:1)", "T(2, 0:1)"},
      {"transpose(X)([1 7])", "T([1 7])"},
      {"transpose(X)(1:2:9, :)", "T(1:2:9, :)"},
      {"X(1:2, 1:2:3)(3, 1)", "S(3, 1)"},
      {"X(1:2, 1:2:3)(1, [2 0])", "S(1, [2 0])"},
      {"X(1:2, 1:2:3)(5)", "S(5)"},
  };
  for (const auto &[View, Plain] : Reads) {
    std::string Want = runError(std::string(Setup) + "y = " + Plain + ";");
    EXPECT_FALSE(Want.empty()) << Plain;
    EXPECT_EQ(runError(std::string(Setup) + "y = " + View + ";"), Want)
        << View;
  }
}

TEST(InterpreterTest, WholeArrayWriteAdoptsItsRightHandSide) {
  // A covering write takes the payload over; the target keeps its own
  // shape and logical flag, and a value that shared the target keeps the
  // old contents.
  Interpreter I = runOk("A = zeros(3, 4);\nK = A;\nB = rand(3, 4);\n"
                        "A(1:3, 1:4) = B + 1;\nM = rand(2, 2) > 2;\n"
                        "M(1:2, 1:2) = [1 0; 1 1];\nv = zeros(1, 6);\n"
                        "v(1:6) = (1:6)' * 2;\n");
  const Value *A = I.getVariable("A");
  const Value *B = I.getVariable("B");
  for (size_t K = 0; K != 12; ++K)
    EXPECT_DOUBLE_EQ(A->linear(K), B->linear(K) + 1);
  EXPECT_EQ(contents(I, "K"), std::vector<double>(12, 0.0));
  EXPECT_TRUE(I.getVariable("M")->isLogical());
  EXPECT_EQ(contents(I, "M"), (std::vector<double>{1, 1, 0, 1}));
  const Value *V = I.getVariable("v");
  EXPECT_EQ(V->rows(), 1u);
  EXPECT_EQ(contents(I, "v"), (std::vector<double>{2, 4, 6, 8, 10, 12}));
}

TEST(InterpreterTest, TrueAndFalseTakeSizeArguments) {
  Interpreter I = runOk("a = true(2, 3);\nb = false(1, 0);\nc = true;\n"
                        "d = false(2);\nn = numel(a);\ns = size(b);\n");
  EXPECT_DOUBLE_EQ(scalarVar(I, "n"), 6);
  EXPECT_EQ(contents(I, "s"), (std::vector<double>{1, 0}));
  EXPECT_EQ(contents(I, "a"), std::vector<double>(6, 1.0));
  EXPECT_EQ(contents(I, "d"), std::vector<double>(4, 0.0));
  for (const char *Name : {"a", "b", "c", "d"})
    EXPECT_TRUE(I.getVariable(Name)->isLogical()) << Name;
  EXPECT_EQ(I.getVariable("c")->numel(), 1u);
  EXPECT_EQ(runError("x = true(-1);"),
            "size argument to 'true/false' must be a nonnegative integer");
  EXPECT_EQ(runError("x = false(2, 1.5);"),
            "size argument to 'true/false' must be a nonnegative integer");
  EXPECT_EQ(runError("x = true([1 2]);"),
            "argument to 'true/false' must be a scalar");
}

TEST(InterpreterTest, RepmatFlipsAndConcatenationKeepTheLogicalFlag) {
  Interpreter I = runOk(
      "v = 1:10;\nk = v > 5;\na = v(repmat(k, 1, 1));\nb = v(fliplr(k));\n"
      "c = islogical([k, k]);\nd = islogical([k; k]);\n"
      "e = islogical(flipud(k'));\nf = islogical([k, []]);\n"
      "g = islogical([[], k]);\nh = islogical([k, 1]);\n"
      "r = islogical(repmat(k, 2, 2));\n");
  EXPECT_EQ(contents(I, "a"), (std::vector<double>{6, 7, 8, 9, 10}));
  EXPECT_EQ(contents(I, "b"), (std::vector<double>{1, 2, 3, 4, 5}));
  for (const char *Name : {"c", "d", "e", "f", "g", "r"})
    EXPECT_DOUBLE_EQ(scalarVar(I, Name), 1) << Name;
  // A double operand makes the result double; an empty operand is
  // dropped and leaves the other's class.
  EXPECT_DOUBLE_EQ(scalarVar(I, "h"), 0);
}

//===----------------------------------------------------------------------===//
// Scalar evaluator (scalar plans): bails before any effect, results and
// errors as on the general path
//===----------------------------------------------------------------------===//

/// The first \p N draws of a generator seeded like a fresh interpreter.
std::vector<double> draws(unsigned N) {
  Interpreter Ref;
  std::vector<double> Out;
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(Ref.nextRandom());
  return Out;
}

TEST(ScalarEvaluatorTest, BailsBeforeAdvancingTheRng) {
  // rand(1) is outside the subset: the statement is evaluated once, by the
  // general path, so each rand draws exactly once.
  std::vector<double> R = draws(4);
  Interpreter I = runOk("y = 2;\nx = y + rand(1);\nr = rand(1);\n"
                        "A = [1 2 3];\ni = 2;\nA(i) = A(i) + rand(1);\n"
                        "q = rand(1);\n");
  EXPECT_EQ(scalarVar(I, "x"), 2 + R[0]);
  EXPECT_EQ(scalarVar(I, "r"), R[1]);
  EXPECT_EQ(contents(I, "A"), (std::vector<double>{1, 2 + R[2], 3}));
  EXPECT_EQ(scalarVar(I, "q"), R[3]);
}

TEST(ScalarEvaluatorTest, SubscriptErrorsMatchTheGeneralPath) {
  struct Case {
    const char *K;
    const char *Message;
  };
  const Case Reads[] = {
      {"0", "subscript indices must be positive integers"},
      {"-1", "subscript indices must be positive integers"},
      {"1.5", "subscript indices must be positive integers"},
      {"0/0", "subscript indices must be positive integers"},
      {"1/0", "subscript indices must be positive integers"},
      {"1e300", "index 1e+300 exceeds matrix dimension (6)"},
      {"7", "index 7 exceeds matrix dimension (6)"},
  };
  for (const Case &C : Reads) {
    std::string Prefix = std::string("A = ones(2, 3);\nk = ") + C.K + ";\n";
    // Line 3, at the subscript's opening parenthesis.
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Prefix + "x = A(k);\n", Diags);
    Interpreter I;
    EXPECT_FALSE(I.run(R.Prog)) << C.K;
    EXPECT_EQ(I.errorMessage(), C.Message) << C.K;
    EXPECT_EQ(I.errorLoc().Line, 3u) << C.K;
    EXPECT_EQ(I.errorLoc().Col, 6u) << C.K;
    EXPECT_EQ(I.getVariable("x"), nullptr) << C.K;
  }
  // Two subscripts: each checked against its own extent.
  EXPECT_EQ(runError("A = ones(2, 3);\nx = A(3, 1);\n"),
            "index 3 exceeds matrix dimension (2)");
  EXPECT_EQ(runError("A = ones(2, 3);\nx = A(1, 4);\n"),
            "index 4 exceeds matrix dimension (3)");
  EXPECT_EQ(runError("A = ones(2, 3);\nk = 0/0;\nx = A(1, k);\n"),
            "subscript indices must be positive integers");
  // Writes: bad subscripts fail, and 1e300 fails the size check.
  EXPECT_EQ(runError("A = ones(2, 3);\nA(1.5) = 1;\n"),
            "subscript indices must be positive integers");
  EXPECT_EQ(runError("A = ones(2, 3);\nk = 1/0;\nA(1, k) = 1;\n"),
            "subscript indices must be positive integers");
  EXPECT_EQ(runError("v = ones(1, 3);\nv(1e300) = 1;\n"),
            "requested 1x1e+300 array exceeds the maximum array size");
  EXPECT_EQ(runError("A = ones(2, 3);\nA(7) = 1;\n"),
            "linear indexed assignment cannot grow a matrix");
}

TEST(ScalarEvaluatorTest, EndBindsPerSubscript) {
  Interpreter I = runOk("v = [4 5 6];\n"
                        "A = [1 2 3 4; 5 6 7 8; 9 10 11 12; 13 14 15 16];\n"
                        "B = [2 3];\n"
                        "a = v(end);\nb = A(end, end-1);\nc = A(B(end), end);\n"
                        "d = v(end) - v(end-2) * 2;\n");
  EXPECT_EQ(scalarVar(I, "a"), 6);
  EXPECT_EQ(scalarVar(I, "b"), 15);
  EXPECT_EQ(scalarVar(I, "c"), 12);
  EXPECT_EQ(scalarVar(I, "d"), -2);
}

TEST(ScalarEvaluatorTest, LogicalValuesKeepMaskSemantics) {
  Interpreter I = runOk("v = [5 6 7];\nt = 1 > 0;\nf = 1 < 0;\nx = v(t);\n"
                        "y = v(f);\nm = [1 0 1] > 0;\nz = m(2);\n"
                        "w = m(1) + 1;\n");
  EXPECT_EQ(scalarVar(I, "x"), 5);
  const Value *Y = I.getVariable("y");
  ASSERT_NE(Y, nullptr);
  EXPECT_EQ(Y->rows(), 1u);
  EXPECT_EQ(Y->cols(), 0u);
  ASSERT_NE(I.getVariable("z"), nullptr);
  EXPECT_TRUE(I.getVariable("z")->isLogical());
  EXPECT_FALSE(I.getVariable("w")->isLogical());
  EXPECT_EQ(scalarVar(I, "w"), 2);
}

TEST(ScalarEvaluatorTest, GrowthCreationAndCopyOnWrite) {
  Interpreter I = runOk("v = [1 2];\nv(4) = 9;\nA = eye(2);\nA(3, 1) = 5;\n"
                        "n(2) = 3;\nB = A;\nB(2) = 7;\n"
                        "s = 0;\nfor i = 1:4\n  s = s + v(i);\nend\n");
  EXPECT_EQ(contents(I, "v"), (std::vector<double>{1, 2, 0, 9}));
  EXPECT_EQ(I.getVariable("A")->rows(), 3u);
  EXPECT_EQ(contents(I, "n"), (std::vector<double>{0, 3}));
  EXPECT_EQ(contents(I, "A"), (std::vector<double>{1, 0, 5, 0, 1, 0}));
  EXPECT_EQ(contents(I, "B"), (std::vector<double>{1, 7, 5, 0, 1, 0}));
  EXPECT_EQ(scalarVar(I, "s"), 12);
  EXPECT_EQ(scalarVar(I, "i"), 4);
}

TEST(ScalarEvaluatorTest, BinaryChainPastTheDepthLimitFails) {
  // ((y + y) + y) + ...: a plan shares eval()'s depth budget, so the
  // general path reports the limit; a chain inside it evaluates.
  auto Chain = [](unsigned N) {
    ExprPtr E = std::make_unique<IdentExpr>("y");
    for (unsigned I = 1; I != N; ++I)
      E = std::make_unique<BinaryExpr>(BinaryOp::Add, std::move(E),
                                       std::make_unique<IdentExpr>("y"));
    return E;
  };
  for (unsigned N : {1500u, 2500u}) {
    Program P;
    P.Stmts.push_back(std::make_unique<AssignStmt>(
        std::make_unique<IdentExpr>("x"), Chain(N)));
    Interpreter I;
    I.setVariable("y", Value::scalar(1.0));
    bool Ok = I.run(P);
    if (N < Interpreter::MaxEvalDepth) {
      EXPECT_TRUE(Ok) << I.errorMessage();
      EXPECT_EQ(scalarVar(I, "x"), N);
    } else {
      EXPECT_FALSE(Ok);
      EXPECT_EQ(I.errorMessage(), Interpreter::EvalDepthMessage);
      EXPECT_EQ(I.getVariable("x"), nullptr);
    }
  }
}

/// Runs \p Source (null when it fails to parse), with its error message
/// in \p Error.
std::unique_ptr<Interpreter> runSource(const std::string &Source,
                                       std::string &Error) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Source << Diags.str();
  auto I = std::make_unique<Interpreter>();
  Error = I->run(R.Prog) ? std::string() : I->errorMessage();
  return I;
}

/// Empty when \p A and \p B hold the same names with sameBits values.
std::string workspaceBitsDiffer(const Interpreter &A, const Interpreter &B) {
  std::map<std::string, Value> WA = A.workspace(), WB = B.workspace();
  if (WA.size() != WB.size())
    return "different variable sets";
  for (const auto &[Name, V] : WA) {
    auto It = WB.find(Name);
    if (It == WB.end())
      return "'" + Name + "' missing";
    if (!sameBits(V, It->second))
      return "'" + Name + "' differs: " + V.str() + " vs " + It->second.str();
  }
  return std::string();
}

/// Runs \p Prefix then `Target = E;` in a one-iteration loop, where plans
/// compute E and its element reads, against two general-path forms: the
/// statement outside any loop (no plan at all) and `Target = [E];` in the
/// loop (a 1x1 literal, so only E's element reads have plans). Demands
/// the same error text and bit-identical workspaces.
void expectPlanMatchesGeneralPath(const std::string &Prefix,
                                  const std::string &Target,
                                  const std::string &E) {
  auto Loop = [&](const std::string &Rhs) {
    return Prefix + "for once = 1:1\n  " + Target + " = " + Rhs + ";\nend\n";
  };
  std::string PlanError, GeneralError, LiteralError;
  auto Plan = runSource(Loop(E), PlanError);
  auto General =
      runSource(Prefix + "once = 1;\n" + Target + " = " + E + ";\n",
                GeneralError);
  auto Literal = runSource(Loop("[" + E + "]"), LiteralError);
  std::string Where = Target + " = " + E;
  EXPECT_EQ(PlanError, GeneralError) << Where;
  EXPECT_EQ(PlanError, LiteralError) << Where;
  EXPECT_EQ(workspaceBitsDiffer(*Plan, *General), "") << Where;
  EXPECT_EQ(workspaceBitsDiffer(*Plan, *Literal), "") << Where;
}

TEST(ScalarEvaluatorTest, PlansMatchTheGeneralPathBitForBit) {
  // a is a NaN and b a NaN of the other sign, so an operand swap shows in
  // the result's sign bit; z is -0.
  const std::string Prefix =
      "a = 0/0;\nb = -a;\nc = 3;\nz = -0;\nh = 1/0;\n"
      "A = [1 2 3 4; 5 6 7 8; 9 10 11 12];\nB = [2 3];\nv = [4 5 6];\n"
      "t = 1 > 0;\nm = [1 0 1] > 0;\ni = 2;\nj = 3;\nf = 1.5;\n"
      "E = zeros(1, 0);\n";
  const char *Exprs[] = {
      // -0, NaN and Inf.
      "z", "-z", "z * -1", "0 * -1", "z + 0", "-0 + z", "1/z", "a", "-a",
      "a + b", "b + a", "a - b", "b - a", "a*b", "b*a", "a/b", "b/a",
      "-a*b", "h - h", "h * 0", "-h / h", "z / z",
      // A product operand is the left addend.
      "a + b*c", "b*c + a", "a - b*c", "b*c - a", "a + b.*c", "a*c + b",
      "a*c + b*c", "(a + b)*c", "a + c*b + a", "a/c + b", "a' + b",
      // 'end' binds per subscript, nested reads included.
      "A(B(end), end)", "A(end, B(1))", "v(end) - v(end-2)*2", "A(i, j)'",
      "-A(end)", "A(B(2))", "A(end)", "A(end, end) / v(end)",
      "v(B(end - 1) - 1)", "A(v(1) - 2, end - 1)", "A(end - 10, 1)",
      "A(1, end - 9)", "A(end - 10)", "A(1, v(end) - 3)",
      // Guards: the general path then reports or computes.
      "A(4, 1)", "A(1, 5)", "A(0)", "A(13)", "v(1.5)", "v(a)", "v(h)",
      "v(-1)", "v(z)", "A(i, :)", "E(1)",
      // Logical scalars, pi, builtin names and undefined names.
      "t", "t + 1", "-t", "v(t)", "m(2)", "m(1) + 1", "v(m(3))", "pi",
      "pi * 2", "-pi", "rand", "rand + 1", "numel(v)", "abs(-c)", "q",
      "q + 1", "A(q)", "c + eps",
  };
  // Targets: a variable, in-range elements, growth, creation, and
  // subscripts the general write reports.
  const char *Targets[] = {"y",       "v(2)",    "v(7)", "A(2, 3)",
                           "A(4, 5)", "A(end)",  "w(3)", "v(f)",
                           "A(0, 1)", "v(B(1))", "c"};
  for (const char *Target : Targets)
    for (const char *E : Exprs)
      expectPlanMatchesGeneralPath(Prefix, Target, E);
}

TEST(ScalarEvaluatorTest, VariablesRetypedMidLoop) {
  // x turns into a matrix and v into a logical mask mid-loop: the plans
  // that read them bail from then on and the general path takes over.
  auto Program = [](bool Literal) {
    auto Rhs = [Literal](const std::string &E) {
      return Literal ? "[" + E + "]" : E;
    };
    return "v = [10 20 30 40];\nx = 1;\ns = 0;\nfor i = 1:4\n"
           "  s = " + Rhs("s + x*2") + ";\n"
           "  r(i) = " + Rhs("v(i) + 1") + ";\n"
           "  if i == 2\n    x = [1 2];\n    v = v > 15;\n  end\n"
           "end\n";
  };
  std::string PlanError, GeneralError;
  auto Plan = runSource(Program(false), PlanError);
  auto General = runSource(Program(true), GeneralError);
  EXPECT_EQ(PlanError, "");
  EXPECT_EQ(GeneralError, "");
  EXPECT_EQ(workspaceBitsDiffer(*Plan, *General), "");
  EXPECT_EQ(contents(*Plan, "s"), (std::vector<double>{8, 12}));
  EXPECT_EQ(contents(*Plan, "r"), (std::vector<double>{11, 21, 2, 2}));
  EXPECT_TRUE(Plan->getVariable("v")->isLogical());
}

TEST(ScalarEvaluatorTest, BackToBackProgramsRebuildTheirPlans) {
  // The second program reuses the interpreter (its workspace and slot
  // numbering persist) and, once the first is freed, likely its node
  // addresses; a stale plan would read the first program's slots.
  Interpreter I;
  {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab("A = [1 2 3];\nk = 2;\nfor r = 1:2\n"
                                "  y = A(k) + 1;\n  A(k) = y * 2;\nend\n",
                                Diags);
    ASSERT_TRUE(I.run(R.Prog)) << I.errorMessage();
  }
  EXPECT_EQ(scalarVar(I, "y"), 7);
  EXPECT_EQ(contents(I, "A"), (std::vector<double>{1, 14, 3}));
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("B = [7 8 9];\nj = 3;\nfor s = 1:2\n"
                              "  z = B(j) - 1;\n  B(j) = z / 2;\nend\n",
                              Diags);
  ASSERT_TRUE(I.run(R.Prog)) << I.errorMessage();
  EXPECT_EQ(scalarVar(I, "z"), 3);
  EXPECT_EQ(contents(I, "B"), (std::vector<double>{7, 8, 1.5}));
  // And the same program again, after B's reset.
  ASSERT_TRUE(I.run(R.Prog)) << I.errorMessage();
  EXPECT_EQ(scalarVar(I, "z"), 3);
  EXPECT_EQ(contents(I, "B"), (std::vector<double>{7, 8, 1.5}));
  EXPECT_EQ(contents(I, "A"), (std::vector<double>{1, 14, 3}));
}

TEST(ScalarEvaluatorTest, LoopBodyPlansShareTheDepthBudget) {
  // BinaryChainPastTheDepthLimitFails inside a loop, where the chain has
  // a plan. The plan runs up to MaxEvalDepth frames and bails past it;
  // the general path, which takes no frame for a leaf variable, then
  // computes one more level and reports the depth error beyond that.
  auto Chain = [](unsigned N) {
    ExprPtr E = std::make_unique<IdentExpr>("y");
    for (unsigned I = 1; I != N; ++I)
      E = std::make_unique<BinaryExpr>(BinaryOp::Add, std::move(E),
                                       std::make_unique<IdentExpr>("y"));
    return E;
  };
  for (unsigned N : {1500u, 2000u, 2001u, 2002u, 2500u}) {
    std::vector<StmtPtr> Body;
    Body.push_back(std::make_unique<AssignStmt>(
        std::make_unique<IdentExpr>("x"), Chain(N)));
    Program P;
    P.Stmts.push_back(std::make_unique<ForStmt>(
        "k",
        std::make_unique<RangeExpr>(std::make_unique<NumberExpr>(1.0),
                                    nullptr,
                                    std::make_unique<NumberExpr>(2.0)),
        std::move(Body)));
    Interpreter I;
    I.setVariable("y", Value::scalar(1.0));
    bool Ok = I.run(P);
    if (N <= Interpreter::MaxEvalDepth + 1) {
      EXPECT_TRUE(Ok) << N << I.errorMessage();
      EXPECT_EQ(scalarVar(I, "x"), N);
    } else {
      EXPECT_FALSE(Ok) << N;
      EXPECT_EQ(I.errorMessage(), Interpreter::EvalDepthMessage);
      EXPECT_EQ(I.getVariable("x"), nullptr);
    }
  }
}

TEST(ScalarEvaluatorTest, OneProgramRunsOnFourThreads) {
  // Plans belong to each interpreter; the shared AST is only read.
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(
      "n = 40;\nA = zeros(n, n);\nv = zeros(1, n);\ns = 0;\n"
      "for i = 1:n\n  for j = 1:n\n    A(i, j) = i*0.5 - j/3;\n"
      "    s = s + A(i, j)*v(end - j + 1) + A(i, end);\n  end\n"
      "  v(i) = s / n;\nend\n",
      Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Reference;
  ASSERT_TRUE(Reference.run(R.Prog)) << Reference.errorMessage();
  std::vector<Interpreter> Interps(4);
  std::vector<char> Ok(4, 0);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != Interps.size(); ++T)
    Threads.emplace_back([&, T] {
      for (int Rep = 0; Rep != 3; ++Rep)
        Ok[T] = Interps[T].run(R.Prog);
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t T = 0; T != Interps.size(); ++T) {
    EXPECT_TRUE(Ok[T]) << Interps[T].errorMessage();
    EXPECT_EQ(workspaceBitsDiffer(Interps[T], Reference), "") << T;
  }
}

TEST(InterpreterTest, SizeArgumentsFailBeforeAnyCastOrAllocation) {
  auto TooLarge = [](const char *Shape) {
    return std::string("requested ") + Shape +
           " array exceeds the maximum array size";
  };
  auto NotASize = [](const char *Name) {
    return std::string("size argument to '") + Name +
           "' must be a nonnegative integer";
  };
  struct Case {
    const char *Source;
    std::string Message;
  };
  const Case Cases[] = {
      {"x = ones(2^21, 2^20);", TooLarge("2097152x1048576")},
      {"x = true(1e7);", TooLarge("10000000x10000000")},
      {"x = false(1, 2^38);", TooLarge("1x274877906944")},
      {"x = rand(2^30);", TooLarge("1073741824x1073741824")},
      {"x = eye(1e300, 0);", TooLarge("1e+300x0")},
      {"x = repmat(ones(1024), 1024, 1024);", TooLarge("1048576x1048576")},
      {"x = repmat(zeros(0, 1), 1e300, 1);", TooLarge("1e+300x1")},
      {"x = linspace(0, 1, 1e300);", TooLarge("1x1e+300")},
      {"x = reshape([], 1e300, 0);", TooLarge("1e+300x0")},
      {"x = ones(1/0);", NotASize("zeros/ones")},
      {"x = eye(0/0);", NotASize("eye")},
      {"x = repmat(1, 1/0, 1);", NotASize("repmat")},
      {"x = repmat(1, [0/0 1]);", NotASize("repmat")},
      {"x = repmat(1, [1 -1/0]);", NotASize("repmat")},
      {"x = repmat([1 2], [-1 2]);", NotASize("repmat")},
      {"x = repmat([1 2], [2.7 1]);", NotASize("repmat")},
      {"x = zeros(1, 1/0);", NotASize("zeros/ones")},
      {"x = zeros(1e6, 1e6);", TooLarge("1000000x1000000")},
  };
  for (const Case &C : Cases)
    EXPECT_EQ(runError(C.Source), C.Message) << C.Source;
  // At the limit, and zero extents, still allocate normally.
  Interpreter I = runOk("a = zeros(0, 2^37);\nb = repmat([1 2], [0 3]);\n"
                        "c = ones(2, 0);\nd = repmat(7, [2 1]);\n");
  EXPECT_EQ(I.getVariable("a")->cols(), 137438953472u);
  EXPECT_EQ(I.getVariable("b")->cols(), 6u);
  EXPECT_EQ(contents(I, "d"), (std::vector<double>{7, 7}));
}

//===----------------------------------------------------------------------===//
// Walker pins: behaviour the walker/VM parity checks compare between the
// engines, fixed here on the walker alone.
//===----------------------------------------------------------------------===//

/// x = -(-(...-y)), Depth minus signs over y; the minus sign K levels
/// from the top sits at line 2, column K + 1, so a failing frame names
/// its depth.
Program deepMinusChain(unsigned Depth, bool DefineY) {
  ExprPtr E = std::make_unique<IdentExpr>("y", SourceLoc(2, Depth + 1));
  for (unsigned K = Depth; K != 0; --K)
    E = std::make_unique<UnaryExpr>(UnaryOp::Minus, std::move(E),
                                    SourceLoc(2, K));
  Program P;
  if (DefineY)
    P.Stmts.push_back(std::make_unique<AssignStmt>(
        std::make_unique<IdentExpr>("y"), std::make_unique<NumberExpr>(1.0)));
  P.Stmts.push_back(std::make_unique<AssignStmt>(
      std::make_unique<IdentExpr>("x"), std::move(E), SourceLoc(2, 1)));
  return P;
}

TEST(WalkerPinTest, DepthLimitMessageAndLocation) {
  // At MaxEvalDepth a defined innermost variable is read without a
  // frame; an undefined one fails the depth check at its own node, one
  // below the deepest minus sign.
  for (bool DefineY : {true, false}) {
    Interpreter I;
    bool Ok = I.run(deepMinusChain(Interpreter::MaxEvalDepth, DefineY));
    EXPECT_EQ(Ok, DefineY) << I.errorMessage();
    if (!DefineY) {
      EXPECT_EQ(I.errorMessage(), Interpreter::EvalDepthMessage);
      EXPECT_EQ(I.errorLoc().Line, 2u);
      EXPECT_EQ(I.errorLoc().Col, Interpreter::MaxEvalDepth + 1);
    }
  }
  // Past the limit the minus sign one level too deep fails, whatever
  // lies below it, and x is never bound.
  for (unsigned Depth : {2500u, 20000u}) {
    Interpreter I;
    EXPECT_FALSE(I.run(deepMinusChain(Depth, true))) << Depth;
    EXPECT_EQ(I.errorMessage(), Interpreter::EvalDepthMessage) << Depth;
    EXPECT_EQ(I.errorLoc().Line, 2u) << Depth;
    EXPECT_EQ(I.errorLoc().Col, Interpreter::MaxEvalDepth + 1) << Depth;
    EXPECT_EQ(I.getVariable("x"), nullptr) << Depth;
  }
}

TEST(WalkerPinTest, StepLimitStopsAtAnExactStep) {
  DiagnosticEngine Diags;
  ParseResult R =
      parseMatlab("s = 0;\nfor i = 1:100000\n  s = s + i;\nend\n", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  Interpreter I;
  I.setStepLimit(500);
  EXPECT_FALSE(I.run(R.Prog));
  EXPECT_EQ(I.interruptKind(), Interpreter::InterruptKind::StepLimit);
  // s = 0, the for statement and 498 bodies use up the budget of 500;
  // the body for i = 499 is step 501, refused before it runs.
  EXPECT_EQ(I.stepsExecuted(), 501u);
  EXPECT_EQ(I.errorMessage(), "execution step limit exceeded");
  EXPECT_EQ(I.errorLoc().Line, 3u);
  EXPECT_EQ(I.errorLoc().Col, 3u);
  EXPECT_EQ(scalarVar(I, "i"), 499);
  EXPECT_EQ(scalarVar(I, "s"), 124251);
}

TEST(WalkerPinTest, WallClockInterrupts) {
  // A deadline already passed stops a loop with a body and the two
  // bodiless loops (only the back-edge poll sees those); a raised cancel
  // flag stops the first.
  auto Past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  for (const char *Source : {"s = 0;\nwhile 1 > 0\n  s = s + 1;\nend\n",
                             "while 1 > 0\nend\n",
                             "for i = 1:2000000\nend\n"}) {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    ASSERT_FALSE(Diags.hasErrors());
    Interpreter I;
    I.setDeadline(Past);
    EXPECT_FALSE(I.run(R.Prog)) << Source;
    EXPECT_EQ(I.interruptKind(), Interpreter::InterruptKind::Deadline);
    EXPECT_EQ(I.errorMessage(), "execution deadline exceeded") << Source;
  }
  DiagnosticEngine Diags;
  ParseResult R =
      parseMatlab("s = 0;\nwhile 1 > 0\n  s = s + 1;\nend\n", Diags);
  std::atomic<bool> Cancel{true};
  Interpreter I;
  I.setCancelFlag(&Cancel);
  EXPECT_FALSE(I.run(R.Prog));
  EXPECT_EQ(I.interruptKind(), Interpreter::InterruptKind::Cancelled);
  EXPECT_EQ(I.errorMessage(), "execution cancelled");
}

TEST(WalkerPinTest, GovernorChargeTotals) {
  // The bytes an account-only governor sees for each script (seed 7).
  // The ones that allocate on the fast paths: elementwise and products,
  // accumulator growth, transposed and stepped views, whole-array writes
  // adopting their right-hand side, the one-pass sum of products and
  // broadcast views, and scalar loop bodies with a copy-on-write detach.
  const std::pair<const char *, size_t> Cases[] = {
      {"A = zeros(40, 40);\nB = A + 1;\nC = B * B;\n", 38400u},
      {"v = [];\nfor i = 1:50\n  v = [v, i];\nend\ns = sum(v);\n",
       10592u},
      {"x = rand(8, 8);\ny = x';\nz = x .* y + 3;\n", 1536u},
      {"A = rand(30, 20);\nB = A(1:30, :);\nB(1) = 0;\nC = A(2:29, :);\n"
       "D = A' * A(1:30, 3:7);\nv = A(:, 1);\nw = v([3 1 2]);\n",
       17688u},
      {"v = rand(1,50); s = 0; for i = 1:50; s = s + v(end) + v(end-1); "
       "end\n",
       800u},
      {"X = rand(30, 20);\nT = X';\nY = sum(X' .* X', 1);\nP = X' * X;\n"
       "Q = X * X';\nZ = rand(20, 20);\nR = Z' * Z';\n",
       52240u},
      {"X = rand(30, 20);\nS = X(1:2:end, 2:3:end);\nR = S * 2;\n"
       "Q = X(2*(1:10), :)' * X(1:10, :);\n",
       13616u},
      {"A = zeros(30, 20);\nB = rand(30, 20);\nA(1:30, 1:20) = B + 1;\n"
       "C = A;\nA(1:30, 1:20) = B .* 2;\nv = zeros(1, 40);\n"
       "v(1:40) = 1:40;\n",
       25760u},
      {"A = rand(40, 30); B = rand(40, 30);\nx = sum(A .* B, 1);\n"
       "y = sum(A' .* B', 2);\nz = sum(A .* B, 3);\n"
       "C = A + repmat(B(:, 1), 1, 30);\nD = repmat(A(1, :), 40, 1) .* B;\n"
       "E = repmat(B(:, 2), 1, 30);\nE(1) = 0;\n"
       "W = zeros(40, 30);\nW(1:40, 1:30) = repmat(B(:, 3), 1, 30);\n"
       "W(1:40, 1:30) = repmat(A(2, :), 40, 1);\n",
       148480u},
      {"X = rand(20, 30);\nL = rand(20, 20);\nY = X;\nfor k = 1:30\n"
       "  for j = 1:19\n    Y(20, k) = Y(20, k) - L(20, j) * Y(j, k);\n"
       "  end\nend\ns = 0;\nfor i = 1:20\n  s = s + X(i, i) / 2;\n"
       "  a(i) = -s';\nend\n",
       18080u},
  };
  for (const auto &[Source, Bytes] : Cases) {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Source;
    ResourceGovernor G(0);
    {
      GovernorScope Scope(&G);
      Interpreter I;
      I.seedRandom(7);
      EXPECT_TRUE(I.run(R.Prog)) << I.errorMessage();
    }
    EXPECT_EQ(G.usedBytes(), Bytes) << Source;
  }
  // A budget that cannot hold the workload unwinds the run.
  DiagnosticEngine Diags;
  ParseResult Big = parseMatlab("A = zeros(200, 200);\n", Diags);
  ResourceGovernor G(1024);
  GovernorScope Scope(&G);
  Interpreter I;
  EXPECT_THROW(I.run(Big.Prog), ResourceExhausted);
}

TEST(WalkerPinTest, RowUpdateWritesItsTargetInPlace) {
  // The Table 3 ex.1 statement reads three views of X and writes one row
  // of it. The views die before the write, so X's payload is updated in
  // place (no copy-on-write detach), and the charges are those of the
  // copies the views stand for, the subscript vectors and the two
  // results: 504 bytes at i = 4, p = 6.
  Interpreter I = runOk("X = rand(5, 6);\nL = rand(5, 5);\ni = 4;\n");
  const double *Before = I.getVariable("X")->raw();
  std::vector<double> Row(6);
  for (size_t C = 0; C != 6; ++C)
    Row[C] = I.getVariable("X")->at(3, C);
  DiagnosticEngine Diags;
  ParseResult K =
      parseMatlab("X(i,:) = X(i,:) - L(i,1:i-1)*X(1:i-1,:);\n", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ResourceGovernor G(0);
  {
    GovernorScope Scope(&G);
    ASSERT_TRUE(I.run(K.Prog)) << I.errorMessage();
  }
  const Value *X = I.getVariable("X");
  EXPECT_EQ(X->raw(), Before);
  EXPECT_EQ(G.usedBytes(), 504u);
  bool Changed = false;
  for (size_t C = 0; C != 6; ++C)
    Changed |= X->at(3, C) != Row[C];
  EXPECT_TRUE(Changed);
}

TEST(WalkerPinTest, ShapeCapFailsTheWriteThatWidens) {
  // Caps as diffRunLimited sets them for `%! v(1,*)`: in-range writes
  // pass, the write that adds a second row fails at its statement.
  const char *InRange = "v = zeros(1, 3);\nfor i = 1:3\n  v(1, i) = i;\n"
                        "  v(i) = v(i) * 2;\nend\n";
  const char *Widening = "v = zeros(1, 3);\nfor i = 1:3\n  v(1, i) = i;\n"
                         "end\nv(2, 1) = 4;\n";
  for (const char *Source : {InRange, Widening}) {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    Interpreter I;
    I.setShapeCaps({{"v", {true, false}}});
    bool Ok = I.run(R.Prog);
    EXPECT_EQ(Ok, Source == InRange) << I.errorMessage();
    if (!Ok) {
      EXPECT_EQ(I.errorMessage(),
                "variable 'v' exceeds its annotated shape (2x3)");
      EXPECT_EQ(I.errorLoc().Line, 5u);
      EXPECT_EQ(I.errorLoc().Col, 1u);
    }
  }
}

TEST(WalkerPinTest, SumOfProductsDepthLimit) {
  // x = sum(((y + y) + y) + ... .* y, 1): the call, the product and the
  // chain's N - 1 additions take N + 1 frames, so the limit admits N up
  // to MaxEvalDepth - 1.
  std::vector<unsigned> Failed;
  for (unsigned N = Interpreter::MaxEvalDepth - 3;
       N != Interpreter::MaxEvalDepth + 2; ++N) {
    ExprPtr Chain = std::make_unique<IdentExpr>("y");
    for (unsigned I = 1; I != N; ++I)
      Chain = std::make_unique<BinaryExpr>(BinaryOp::Add, std::move(Chain),
                                           std::make_unique<IdentExpr>("y"));
    std::vector<ExprPtr> Args;
    Args.push_back(std::make_unique<BinaryExpr>(
        BinaryOp::DotMul, std::move(Chain), std::make_unique<IdentExpr>("y")));
    Args.push_back(std::make_unique<NumberExpr>(1.0));
    Program P;
    P.Stmts.push_back(std::make_unique<AssignStmt>(
        std::make_unique<IdentExpr>("y"), std::make_unique<NumberExpr>(1.0)));
    P.Stmts.push_back(std::make_unique<AssignStmt>(
        std::make_unique<IdentExpr>("x"),
        std::make_unique<IndexExpr>(std::make_unique<IdentExpr>("sum"),
                                    std::move(Args))));
    Interpreter I;
    if (!I.run(P)) {
      EXPECT_EQ(I.errorMessage(), Interpreter::EvalDepthMessage);
      Failed.push_back(N);
    }
  }
  EXPECT_EQ(Failed, (std::vector<unsigned>{Interpreter::MaxEvalDepth,
                                           Interpreter::MaxEvalDepth + 1}));
}

TEST(WalkerPinTest, SumOfProductsBudgetBoundary) {
  // The fused reduce charges the product it never builds: the script
  // needs exactly its account-only total, and one byte less stops it.
  const std::string Source =
      "A = rand(40, 30); B = rand(40, 30);\nx = sum(A .* B, 1);\n"
      "y = sum(A' .* B', 2);\nz = sum(A .* B, 3);\n"
      "C = A + repmat(B(:, 1), 1, 30);\nD = repmat(A(1, :), 40, 1) .* B;\n";
  auto Run = [&](size_t Cap, size_t *Used) -> std::string {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    ResourceGovernor G(Cap);
    GovernorScope Scope(&G);
    Interpreter I;
    std::string Outcome = "ok";
    try {
      if (!I.run(R.Prog))
        Outcome = "failed: " + I.errorMessage();
    } catch (const ResourceExhausted &E) {
      Outcome = E.what();
    }
    if (Used)
      *Used = G.usedBytes();
    return Outcome;
  };
  size_t Total = 0;
  ASSERT_EQ(Run(0, &Total), "ok");
  EXPECT_EQ(Total, 107200u);
  EXPECT_EQ(Run(Total, nullptr), "ok");
  EXPECT_EQ(Run(Total - 1, nullptr),
            "memory budget exceeded: 107200 bytes charged against a cap of "
            "107199");
}

} // namespace
