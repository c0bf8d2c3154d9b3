//===- VMTest.cpp - Bytecode tier tests -----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mvec::vm contract, pinned: golden disassembly for representative
/// lowerings (superinstructions included), deterministic compilation
/// (same source, same program), and byte-identical engine parity against
/// the tree-walker (values, errors, interrupts, governor charges).
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "resilience/ResourceGovernor.h"
#include "vm/Compiler.h"
#include "vm/Parity.h"
#include "vm/Serialize.h"
#include "vm/VM.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

using namespace mvec;

namespace {

ParseResult parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return R;
}

vm::CompiledProgram compile(const std::string &Source) {
  return vm::compileProgram(parseOk(Source).Prog, Source);
}

/// Strips trailing blanks per line so golden pins stay readable (the
/// disassembler pads the mnemonic column even when no operands follow).
std::string stripTrailing(const std::string &Text) {
  std::string Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t E = Line.find_last_not_of(' ');
    Out += E == std::string::npos ? std::string() : Line.substr(0, E + 1);
    Out += '\n';
  }
  return Out;
}

void expectDisasm(const std::string &Source, const std::string &Golden) {
  EXPECT_EQ(stripTrailing(vm::disassemble(compile(Source))), Golden)
      << "for source:\n"
      << Source;
}

//===----------------------------------------------------------------------===//
// Golden disassembly
//===----------------------------------------------------------------------===//

TEST(VMDisasm, ArithmeticFusesMulAdd) {
  // The constants fold into the FusedMulAdd and the store fuses too
  // (flags::StoreToSlot): one instruction for the whole statement.
  expectDisasm("x = 1 + 2 * 3;\n",
               "; regs=1 consts=3 strings=0 vars=1 loops=0 instrs=3\n"
               "   0  Step          @1:1\n"
               "   1  FusedMulAdd   v0:x, c1=2, c2=3, c0=1 "
               "[add,prod-right,store] @1:7 /@1:11\n"
               "   2  Halt\n");
}

TEST(VMDisasm, ForLoop) {
  // Loops are bottom-tested (ForNext at the bottom jumps back to the
  // body), the definedness analysis folds s and i straight into the
  // body's Binary, and the store fuses into it: the two-instruction
  // iteration (Step, Binary-with-store, ForNext aside) is the whole
  // point of the exercise.
  expectDisasm("s = 0;\nfor i = 1:10\n  s = s + i;\nend\n",
               "; regs=2 consts=3 strings=0 vars=2 loops=1 instrs=10\n"
               "   0  Step          @1:1\n"
               "   1  StoreVar      v0:s, c0=0 @1:1\n"
               "   2  Step          @2:1\n"
               "   3  MakeRange     r0, c1=1, one, c2=10 @2:10\n"
               "   4  ForPrep       r0, f0:i\n"
               "   5  Jump          ->8\n"
               "   6  Step          @3:3\n"
               "   7  Binary        v0:s, v0:s, v1:i [Add,store] @3:9\n"
               "   8  ForNext       r0, f0:i, ->6\n"
               "   9  Halt\n");
}

TEST(VMDisasm, FusedKernels) {
  // Elementwise a.*b+c fuses with the dotmul flag; M*V'-1 fuses the
  // subtraction and keeps the transpose explicit.
  expectDisasm("y = a .* b + c;\nz = M * V' - 1;\n",
               "; regs=4 consts=1 strings=0 vars=7 loops=0 instrs=11\n"
               "   0  Step          @1:1\n"
               "   1  LoadIdent     r1, v0:a @1:5\n"
               "   2  LoadIdent     r2, v1:b @1:10\n"
               "   3  LoadIdent     r3, v2:c @1:14\n"
               "   4  FusedMulAdd   v3:y, r1, r2, r3 "
               "[add,prod-left,dotmul,store] @1:12 /@1:7\n"
               "   5  Step          @2:1\n"
               "   6  LoadIdent     r1, v4:M @2:5\n"
               "   7  LoadIdent     r3, v5:V @2:9\n"
               "   8  Transpose     r2, r3\n"
               "   9  FusedMulAdd   v6:z, r1, r2, c0=1 [sub,prod-left,store] "
               "@2:12 /@2:7\n"
               "  10  Halt\n");
}

TEST(VMDisasm, TransposedProducts) {
  // A' * B and A * B' are a Transpose and a plain product: the product
  // reads the transpose view in place (or packs it), so no fused opcode
  // exists for them.
  expectDisasm("C = A' * B;\nD = A * B';\n",
               "; regs=4 consts=0 strings=0 vars=4 loops=0 instrs=11\n"
               "   0  Step          @1:1\n"
               "   1  LoadIdent     r2, v0:A @1:5\n"
               "   2  Transpose     r1, r2\n"
               "   3  LoadIdent     r2, v1:B @1:10\n"
               "   4  Binary        v2:C, r1, r2 [Mul,store] @1:8\n"
               "   5  Step          @2:1\n"
               "   6  LoadIdent     r1, v0:A @2:5\n"
               "   7  LoadIdent     r3, v1:B @2:9\n"
               "   8  Transpose     r2, r3\n"
               "   9  Binary        v3:D, r1, r2 [Mul,store] @2:7\n"
               "  10  Halt\n");
}

TEST(VMDisasm, CallsCarryArgPoolDepth) {
  // The undefined-at-compile-time identifier dispatches through
  // TestDefined: the defined path indexes, the undefined path calls the
  // builtin. Nested call arguments carry their ArgPool retention depth.
  // Constants fold into the IndexRead2 paths (a subscript read is a
  // side-effect-free consumer) but NOT into CallBuiltin argument slots,
  // which still materialize registers for the ArgPool.
  expectDisasm(
      "x = max(1, min(2, 3));\ndisp(x);\n",
      "; regs=5 consts=3 strings=3 vars=4 loops=0 instrs=31\n"
      "   0  Step          @1:1\n"
      "   1  TestDefined   v0:max, ->11\n"
      "   2  TestDefined   v1:min, ->5\n"
      "   3  IndexRead2    r1, v1:min, c1=2, c2=3 @1:15\n"
      "   4  Jump          ->9\n"
      "   5  CheckCallable v1:min, s0=\"undefined function or variable "
      "'min'\" @1:15\n"
      "   6  LoadConst     r2, c1=2\n"
      "   7  LoadConst     r3, c2=3\n"
      "   8  CallBuiltin   r1, v1:min, r2, #2 @1:15\n"
      "   9  IndexRead2    r0, v0:max, c0=1, r1 @1:8\n"
      "  10  Jump          ->21\n"
      "  11  CheckCallable v0:max, s1=\"undefined function or variable "
      "'max'\" @1:8\n"
      "  12  LoadConst     r1, c0=1\n"
      "  13  TestDefined   v1:min, ->16\n"
      "  14  IndexRead2    r2, v1:min, c1=2, c2=3 @1:15\n"
      "  15  Jump          ->20\n"
      "  16  CheckCallable v1:min, s0=\"undefined function or variable "
      "'min'\" @1:15\n"
      "  17  LoadConst     r3, c1=2\n"
      "  18  LoadConst     r4, c2=3\n"
      "  19  CallBuiltin   r2, v1:min, r3, #2 [depth=1] @1:15\n"
      "  20  CallBuiltin   r0, v0:max, r1, #2 @1:8\n"
      "  21  StoreVar      v2:x, r0 @1:1\n"
      "  22  Step          @2:1\n"
      "  23  TestDefined   v3:disp, ->26\n"
      "  24  IndexRead1    r0, v3:disp, v2:x @2:5\n"
      "  25  Jump          ->29\n"
      "  26  CheckCallable v3:disp, s2=\"undefined function or variable "
      "'disp'\" @2:5\n"
      "  27  LoadIdent     r1, v2:x @2:6\n"
      "  28  CallBuiltin   r0, v3:disp, r1, #1 @2:5\n"
      "  29  Drop          r0\n"
      "  30  Halt\n");
}

TEST(VMDisasm, IndexingFeatures) {
  std::string Text = vm::disassemble(compile(
      "v = [1 2 3];\nv(2) = v(end) + 1;\nw = v(:);\nu = v(1, end);\n"));
  // 'end' in a 1-d subscript reads numel; in the column position, cols.
  EXPECT_NE(Text.find("LoadExtent    r2, v0:v [numel]"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("LoadExtent    r1, v0:v [cols]"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("IndexReadAll  r0, v0:v"), std::string::npos) << Text;
  EXPECT_NE(Text.find("DefineRef     v0:v"), std::string::npos) << Text;
  // The write's constant subscript folds straight into the instruction.
  EXPECT_NE(Text.find("IndexWrite1   v0:v, c1=2, r0"), std::string::npos)
      << Text;
  // The undefined-base path must still report the walker's exact error.
  EXPECT_NE(
      Text.find("Fail          s1=\"':' and 'end' are not valid function "
                "arguments\""),
      std::string::npos)
      << Text;
}

//===----------------------------------------------------------------------===//
// Compile determinism
//===----------------------------------------------------------------------===//

TEST(VMCompile, DeterministicBytesAndKey) {
  const std::string Source =
      "A = rand(4, 4);\nB = A * A';\nfor i = 1:3\n  B = B + i;\nend\n";
  EXPECT_EQ(vm::disassemble(compile(Source)), vm::disassemble(compile(Source)))
      << "same source must lower to the same program";
}

TEST(VMCompile, EveryParseCompilesValid) {
  const char *Sources[] = {
      "x = 1;\n",
      "y = max(:, 1);\n",        // lowers to Fail, still valid bytecode
      "A = ones(2,2);\nx = A(1, 1, 1);\n",
      "for i = 1:3\n  disp(i);\nend\n",
  };
  for (const char *S : Sources)
    EXPECT_EQ(vm::validateProgram(compile(S)), "") << S;
}

//===----------------------------------------------------------------------===//
// Engine parity (tree-walker vs VM, byte-identical)
//===----------------------------------------------------------------------===//

TEST(VMParity, Battery) {
  // Every case runs under both engines via engineDiffRun, which demands
  // identical failure state, error message + location, interrupt kind,
  // step count, printed output (byte-for-byte) and workspace (tol 0).
  const char *Cases[] = {
      "x = 1 + 2 * 3;\n",
      "v = 1:10;\ns = sum(v);\n",
      "v = 10:-2:1;\n",
      "s = 0;\nfor i = 1:100\n  s = s + i * i;\nend\n",
      "a = zeros(1, 20);\nfor i = 1:20\n  a(i) = i * 2;\nend\n",
      "x = 0;\nwhile x < 10\n  x = x + 3;\nend\n",
      "x = 5;\nif x > 10\n  y = 1;\nelseif x > 3\n  y = 2;\nelse\n  y = 3;\n"
      "end\n",
      "s = 0;\nfor i = 1:10\n  if i == 3\n    continue;\n  end\n"
      "  if i == 7\n    break;\n  end\n  s = s + i;\nend\n",
      "A = [1 2 3; 4 5 6];\nB = [A; A];\nC = [A, A];\n",
      "v = zeros(1, 5);\nv(2) = 7;\nv(end) = 9;\nw = v(2:3);\nz = v(:);\n",
      "A = ones(3, 3);\nA(2, 2) = 5;\nx = A(2, :);\ny = A(:, 1);\n"
      "z = A(end, end);\n",
      "a = 1; b = 0;\nc = a && b;\nd = a || b;\ne = a & b;\nf = ~a;\n",
      "A = [1 2; 3 4];\nB = A';\n",
      "a = [1 2 3]; b = [4 5 6]; c = [7 8 9];\ny = a .* b + c;\n"
      "z = c - a .* b;\n",
      "A = [1 2; 3 4];\nB = [5 6; 7 8];\nC = A * B';\n",
      "x = max(3, 4);\ny = min([1 5 2]);\nz = sqrt(16);\nw = abs(-3);\n",
      "disp(42);\nfprintf('%d\\n', 7);\ndisp([1 2 3]);\n",
      "r = rand(2, 2);\ns = rand();\n",
      "s = 'hello';\nn = length(s);\n",
      "x = pi;\ny = 2 * pi;\n",
      "x = max(min(3, 5), abs(-2));\n",
      "y = nosuchvar + 1;\n",
      "y = nosuchfn(3);\n",
      "y = max(:, 1);\n",
      "A = ones(2,2);\nx = A(1, 1, 1);\n",
      "A = ones(2,2);\nA(1, 1, 1) = 5;\n",
      "v = [1 2 3];\nx = v(10);\n",
      "s = 0;\nfor i = 1:5\n  s = s + i;\n  if i == 3\n"
      "    q = undefinedvar;\n  end\nend\n",
      "e = [];\nn = numel(e);\n",
      "s = 0;\nfor i = 1:1000\n  s = s + i;\nend\n",
      "v = [1 2 3];\nx = max(v(end), 2);\n",
      "A = [1 2 3; 4 5 6];\ns = 0;\nfor c = A\n  s = s + sum(c);\nend\n",
      "s = 0;\nfor i = []\n  s = s + 1;\nend\n",
      "x = 0;\nn = 0;\nwhile x < 10 && n < 100\n  x = x + 1;\n  n = n + 2;\n"
      "end\n",
      "x = -(-5);\ny = ~~1;\nz = +7;\n",
      "x = 2 ^ 10;\ny = [1 2 3] .^ 2;\n",
      "x = 10 / 4;\ny = [4 6] ./ [2 3];\n",
      "A = [1 5 3];\nB = [2 4 3];\nm = A > B;\ne = A == B;\n",
      "s = 0;\nfor i = 1:5\n  for j = 1:5\n    s = s + i * j;\n  end\nend\n",
      "v = [10 20 30];\nidx = [1 3];\nw = v(idx);\n",
      "v = [1 5 2 8];\nm = v(v > 3);\n",
      "v = [1 2 3 4 5];\nx = v(end - 1);\ny = v(2:end);\n",
      "x = 1 < 2;\n",
      "A = [1 2; 3];\n",
      "s = ['ab' 'cd'];\n",
      "A = ones(2,2) * 3;\nB = A + 1;\n",
      "v = 0:0.5:2;\n",
      "x = ((1 + 2) * (3 + 4)) - ((5 - 6) / (7 + 8));\n",
      "for i = 1:3\n  i = i * 10;\nend\n",
      "x = mod(10, 3);\ny = rem(-10, 3);\n",
      "for i = 1:3\n  disp(i);\nend\n",
      // Engine-throughput workloads: a branchy scalar loop, a matrix
      // kernel, and an accumulator that grows its array by append.
      "s = 0;\nt = 1;\nfor i = 1:120\n  a = i * 2 + 1;\n  b = a - i / 3;\n"
      "  if mod(i, 3) == 0\n    s = s + a * b;\n  else\n    s = s - b;\n"
      "  end\n  t = t + s * 0.001;\nend\n",
      "A = rand(48, 48);\nB = rand(48, 48);\nC = A .* B + A;\nD = C * B;\n"
      "e = sum(sum(D));\nF = 2 * A + B;\ng = sum(F(:));\n",
      "n = 400;\nfor i = 1:n\n  A(i) = i * 0.5;\nend\ns = sum(A);\n",
  };
  for (const char *Source : Cases) {
    DiffOutcome Out = engineDiffRun(Source);
    EXPECT_TRUE(Out.agreed()) << "engines diverge on:\n"
                              << Source << "\n"
                              << Out.Message;
  }
}

// The parity check on four threads at once, over Table 2's pattern 1
// (sum of products) and pattern 2 (repmat) and an elementwise loop, in
// their loop and vectorized forms: the concurrency the VM sees in the
// fuzzer's `--engine both` batches. Run under -fsanitize=thread in CI.
TEST(VMParity, TableTwoScriptsRunConcurrently) {
  const std::string Scripts[] = {
      "n = 8; X = rand(n,n); Y = rand(n,n); a = zeros(1,n);\n"
      "%! X(*,*) Y(*,*) a(1,*) n(1)\n"
      "for i=1:n\n  a(i) = X(i,:)*Y(:,i);\nend\n",
      "m = 6; n = 5; B = rand(m,n); C = rand(m,1); A = zeros(m,n);\n"
      "%! A(*,*) B(*,*) C(*,1) m(1) n(1)\n"
      "for i=1:m\n for j=1:n\n  A(i,j) = B(i,j)+C(i);\n end\nend\n",
      "n = 8; x = rand(1,n); y = zeros(1,n);\n"
      "%! x(1,*) y(1,*) n(1)\n"
      "for i=1:n\n  y(i) = 2*x(i);\nend\n",
  };
  std::vector<std::string> Programs;
  for (const std::string &Source : Scripts) {
    PipelineResult P = vectorizeSource(Source);
    ASSERT_TRUE(P.succeeded()) << P.Diags.str();
    Programs.push_back(Source);
    Programs.push_back(P.VectorizedSource);
  }
  ASSERT_NE(Programs[1].find("sum("), std::string::npos) << Programs[1];
  ASSERT_NE(Programs[3].find("repmat("), std::string::npos) << Programs[3];

  constexpr int Threads = 4;
  constexpr int Rounds = 6;
  std::atomic<int> Agreed{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      for (int R = 0; R != Rounds; ++R)
        for (size_t I = 0; I != Programs.size(); ++I)
          if (engineDiffRun(Programs[I], {}, 100 * T + R).agreed())
            Agreed.fetch_add(1);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Agreed.load(), Threads * Rounds * int(Programs.size()));
}

TEST(VMParity, DataMovementFastPaths) {
  // Shared full-extent reads, column-run reads and writes, the one-pass
  // 1-D gather and the transpose-free product, each next to a subscript
  // that must keep the general path, and every bad-subscript error on
  // each fast path: both engines must agree byte for byte.
  const char *Cases[] = {
      "A = [1 2; 3 4; 5 6];\nB = A(1:end, :);\nB(1) = 7;\n",
      "A = [1 2; 3 4; 5 6];\nB = A(:, :);\nA(1) = 7;\nC = A(1:3, 1:2);\n",
      "Z = zeros(3, 0);\nE = Z(1:3, :);\nF = zeros(3,0)(1:3,:);\n",
      "M = [1 0 3; 0 5 0; 7 0 9] > 0;\nS = M(1:3, :);\nR = M(2:3, [1 3]);\n"
      "V = M([2 3 4]);\n",
      "A = rand(6, 5);\nn = 6; k = 3;\nR = A(n:-1:1, :);\nS = A(2*(1:k), :);\n"
      "D = A([1 1], :);\nQ = A(2:5, [2 2 4]);\n",
      "A = zeros(4, 3);\nA(2:3, [3 1]) = [1 2; 3 4];\nA(1:4, :) = A + 1;\n"
      "A(3:6, 2) = 9;\n",
      "C = repmat([1; 2], 2, 3);\nD = repmat(7, 2, 2);\nE = repmat([], 2, 2);\n",
      "A = rand(7, 5);\nB = rand(7, 3);\nP = A' * B;\nQ = A' * B(:, 1);\n"
      "s = 2;\nS = s' * A;\nT = A' * s;\nv = rand(7, 1);\nw = v' * v;\n",
      "A = rand(40, 40);\nB = rand(40, 40);\nC = B' * A;\nD = (C' * A')';\n",
      "A = ones(3, 2);\nB = ones(2, 2);\nC = A' * B;\n",
      "v = 1:5;\nx = v([2 0]);\n",
      "v = 1:5;\nx = v([2 1.5]);\n",
      "v = 1:5;\nx = v([2 0/0]);\n",
      "v = 1:5;\nx = v([2 1/0]);\n",
      "v = 1:5;\nx = v(2:7);\n",
      "A = ones(3, 2);\nx = A(1:3, [1 0]);\n",
      "A = ones(3, 2);\nx = A(1:3, [1 1.5]);\n",
      "A = ones(3, 2);\nx = A(1:3, [1 0/0]);\n",
      "A = ones(3, 2);\nx = A(1:3, [1 1/0]);\n",
      "A = ones(3, 2);\nx = A(2:4, :);\n",
      "A = ones(3, 2);\nx = A(0:2, :);\n",
      "A = zeros(3, 3);\nA(1:3, [1 0]) = 1;\n",
      "A = zeros(3, 3);\nA(1:3, [1 1/0]) = 1;\n",
      "A = zeros(3, 3);\nA(1:2, 1:2) = [1 2 3];\n",
  };
  for (const char *Source : Cases) {
    DiffOutcome Out = engineDiffRun(Source);
    EXPECT_TRUE(Out.agreed()) << "engines diverge on:\n"
                              << Source << "\n"
                              << Out.Message;
  }
}

TEST(VMParity, ScalarStatementsMatchTheVm) {
  // The walker evaluates these through its scalar evaluator where it can
  // and through the general path where it bails; the VM has no such path, so
  // every value, error text and location must still agree byte for byte.
  const char *Subscripts[] = {"0", "-1", "1.5", "0/0", "1/0", "1e300",
                              "7"};
  const char *Forms[] = {"x = A(k);",       "x = A(k, 1);", "x = A(1, k);",
                         "x = 1 + A(k)*2;", "A(k) = 5;",    "A(k, 1) = 5;",
                         "A(1, k) = 5;",    "v(k) = 5;"};
  for (const char *K : Subscripts)
    for (const char *Form : Forms) {
      std::string Source = std::string("A = ones(2, 3);\nv = [1 2 3];\nk = ") +
                           K + ";\n" + Form + "\n";
      DiffOutcome Out = engineDiffRun(Source);
      EXPECT_TRUE(Out.agreed()) << Source << Out.Message;
    }
  const char *Cases[] = {
      "v = [4 5 6];\nA = [1 2 3; 4 5 6; 7 8 9];\nB = [2 3];\n"
      "a = v(end);\nb = A(end, end-1);\nc = A(B(end), end);\n",
      "v = [5 6 7];\nt = 1 > 0;\nf = 1 < 0;\nx = v(t);\ny = v(f);\n"
      "m = [1 0 1] > 0;\nz = m(2);\nw = m(1) + 1;\n",
      "y = 2;\nx = y + rand(1);\nA = [1 2 3];\ni = 2;\n"
      "A(i) = A(i) + rand(1);\nr = rand(1);\n",
      "v = [1 2];\nv(4) = 9;\nA = eye(2);\nA(3, 1) = 5;\nn(2) = 3;\n"
      "B = A;\nB(2) = 7;\n",
      "a = 0/0;\nb = -a;\nc = 3;\nx = a + b*c;\ny = b*c + a;\n"
      "z = a - b*c;\nw = -(a')/c;\n",
      "x = 0.1;\ny = 0.2;\nz = 0.3;\nfor i = 1:50\n"
      "  x = x + y*z - z/y + x.*y./z;\n  y = -y + z*x;\nend\n",
      "s = 0;\nfor i = 1:10\n  s = s + i;\n  i = s;\nend\n",
      "for i = [1 2; 3 4]\n  x = i;\nend\n",
  };
  for (const char *Source : Cases) {
    DiffOutcome Out = engineDiffRun(Source);
    EXPECT_TRUE(Out.agreed()) << Source << Out.Message;
  }
}

TEST(VMParity, ShapeCapsFailScalarWritesThatWiden) {
  // An in-range scalar write never changes a shape; the widening write
  // grows on the general path and trips the annotated cap there.
  const std::string Widening = "%! v(1,*)\nv = zeros(1, 3);\n"
                               "for i = 1:3\n  v(1, i) = i;\nend\n"
                               "v(2, 1) = 4;\n";
  const std::string InRange = "%! v(1,*)\nv = zeros(1, 3);\n"
                              "for i = 1:3\n  v(1, i) = i;\n  v(i) = v(i) * 2;\n"
                              "end\n";
  // The cap diffRunLimited sets for v(1,*) (the walker's side is
  // PipelineTest.AnnotationCapsFailTheWriteThatWidens): the same error
  // on the widening write, none on the in-range ones.
  for (const std::string *Source : {&Widening, &InRange}) {
    Interpreter I;
    I.setShapeCaps({{"v", {true, false}}});
    bool Ok = vm::execute(compile(*Source), I);
    EXPECT_EQ(Ok, Source == &InRange) << *Source;
    if (!Ok) {
      EXPECT_EQ(I.errorMessage(),
                "variable 'v' exceeds its annotated shape (2x3)");
    }
  }
}

TEST(VMParity, HugeSubscriptsFailIdentically) {
  // Each fails before any cast or allocation, on the VM's scalar fast
  // paths as on the walker's general path, with the same message.
  const char *Cases[] = {
      "v = [10 20 30];\nx = v(1e300);\n",
      "v = [10 20 30];\nv(1e300) = 4;\n",
      "A = [1 2; 3 4];\nA(1e300, 1) = 4;\n",
      "v = [10 20 30];\nv(1e12) = 4;\n",
      "A = [1 2; 3 4];\nA(2^40, 2^40) = 1;\n",
      "A = [1 2; 3 4];\nA(1e300) = 4;\n",
      "v = [10 20 30];\nv([1 1e300]) = 4;\n",
  };
  for (const char *Source : Cases) {
    // engineDiffRun demands the same failure and message from both.
    DiffOutcome Out = engineDiffRun(Source);
    EXPECT_TRUE(Out.agreed()) << Source << "\n" << Out.Message;
    DiagnosticEngine Diags;
    Interpreter Ast;
    EXPECT_FALSE(Ast.run(parseMatlab(Source, Diags).Prog)) << Source;
  }
}

TEST(VMParity, StepLimitInterrupt) {
  const std::string Source = "s = 0;\nfor i = 1:100000\n  s = s + i;\nend\n";
  RunLimits Limits;
  Limits.MaxSteps = 500;
  // Step-limit interrupts are deterministic, so engineDiffRun compares
  // them exactly (kind and step count).
  EXPECT_TRUE(engineDiffRun(Source, Limits).agreed());

  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  ASSERT_FALSE(Diags.hasErrors());

  Interpreter Ast;
  Ast.setStepLimit(500);
  EXPECT_FALSE(Ast.run(R.Prog));
  EXPECT_EQ(Ast.interruptKind(), Interpreter::InterruptKind::StepLimit);

  Interpreter Vm;
  Vm.setStepLimit(500);
  vm::CompiledProgram CP = vm::compileProgram(R.Prog, Source);
  EXPECT_FALSE(vm::execute(CP, Vm));
  EXPECT_EQ(Vm.interruptKind(), Interpreter::InterruptKind::StepLimit);

  EXPECT_EQ(Ast.stepsExecuted(), Vm.stepsExecuted());
  EXPECT_EQ(Ast.errorMessage(), Vm.errorMessage());
}

TEST(VMParity, DeadlineInterrupt) {
  const std::string Source = "s = 0;\nwhile 1 > 0\n  s = s + 1;\nend\n";
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  auto Past = std::chrono::steady_clock::now() - std::chrono::seconds(1);

  Interpreter Ast;
  Ast.setDeadline(Past);
  EXPECT_FALSE(Ast.run(R.Prog));
  EXPECT_EQ(Ast.interruptKind(), Interpreter::InterruptKind::Deadline);

  Interpreter Vm;
  Vm.setDeadline(Past);
  vm::CompiledProgram CP = vm::compileProgram(R.Prog, Source);
  EXPECT_FALSE(vm::execute(CP, Vm));
  EXPECT_EQ(Vm.interruptKind(), Interpreter::InterruptKind::Deadline);
  EXPECT_EQ(Ast.errorMessage(), Vm.errorMessage());
}

TEST(VMParity, BodilessLoopsHonorDeadline) {
  // Neither body ever reaches a Step, so only the back-edge poll can
  // interrupt these; both engines used to spin past any deadline.
  for (const char *Source : {"while 1 > 0\nend\n", "for i = 1:2000000\nend\n"}) {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    ASSERT_FALSE(Diags.hasErrors());
    auto Past = std::chrono::steady_clock::now() - std::chrono::seconds(1);

    Interpreter Ast;
    Ast.setDeadline(Past);
    EXPECT_FALSE(Ast.run(R.Prog)) << Source;
    EXPECT_EQ(Ast.interruptKind(), Interpreter::InterruptKind::Deadline);

    Interpreter Vm;
    Vm.setDeadline(Past);
    vm::CompiledProgram CP = vm::compileProgram(R.Prog, Source);
    EXPECT_FALSE(vm::execute(CP, Vm)) << Source;
    EXPECT_EQ(Vm.interruptKind(), Interpreter::InterruptKind::Deadline);
  }
}

TEST(VMParity, CancelInterrupt) {
  const std::string Source = "s = 0;\nwhile 1 > 0\n  s = s + 1;\nend\n";
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  std::atomic<bool> Cancel{true};

  Interpreter Ast;
  Ast.setCancelFlag(&Cancel);
  EXPECT_FALSE(Ast.run(R.Prog));
  EXPECT_EQ(Ast.interruptKind(), Interpreter::InterruptKind::Cancelled);

  Interpreter Vm;
  Vm.setCancelFlag(&Cancel);
  vm::CompiledProgram CP = vm::compileProgram(R.Prog, Source);
  EXPECT_FALSE(vm::execute(CP, Vm));
  EXPECT_EQ(Vm.interruptKind(), Interpreter::InterruptKind::Cancelled);
  EXPECT_EQ(Ast.errorMessage(), Vm.errorMessage());
}

TEST(VMParity, GovernorChargesIdentically) {
  const char *Sources[] = {
      "A = zeros(40, 40);\nB = A + 1;\nC = B * B;\n",
      "v = [];\nfor i = 1:50\n  v = [v, i];\nend\ns = sum(v);\n",
      "x = rand(8, 8);\ny = x';\nz = x .* y + 3;\n",
      "A = rand(30, 20);\nB = A(1:30, :);\nB(1) = 0;\nC = A(2:29, :);\n"
      "D = A' * A(1:30, 3:7);\nv = A(:, 1);\nw = v([3 1 2]);\n",
      // 'end' resolves from the subscript's extent on both engines; no
      // rewritten copy of the subscript is allocated per evaluation.
      "v = rand(1,50); s = 0; for i = 1:50; s = s + v(end) + v(end-1); end\n",
      // A transposed view read in place, materialized by a store, and as
      // both product operands.
      "X = rand(30, 20);\nT = X';\nY = sum(X' .* X', 1);\nP = X' * X;\n"
      "Q = X * X';\nZ = rand(20, 20);\nR = Z' * Z';\n",
      // Stepped-subscript views, one of them transposed.
      "X = rand(30, 20);\nS = X(1:2:end, 2:3:end);\nR = S * 2;\n"
      "Q = X(2*(1:10), :)' * X(1:10, :);\n",
      // Whole-array writes adopting their right-hand side, the second
      // into a target shared with C.
      "A = zeros(30, 20);\nB = rand(30, 20);\nA(1:30, 1:20) = B + 1;\n"
      "C = A;\nA(1:30, 1:20) = B .* 2;\nv = zeros(1, 40);\nv(1:40) = 1:40;\n",
      // Scalar loop bodies (the walker's scalar evaluator): element reads
      // and writes, a COW detach on the first write into a shared target,
      // and accumulator growth with a reserve hint.
      // The one-pass sum of products and broadcast views.
      "A = rand(40, 30); B = rand(40, 30);\nx = sum(A .* B, 1);\n"
      "y = sum(A' .* B', 2);\nz = sum(A .* B, 3);\n"
      "C = A + repmat(B(:, 1), 1, 30);\nD = repmat(A(1, :), 40, 1) .* B;\n"
      "E = repmat(B(:, 2), 1, 30);\nE(1) = 0;\n"
      "W = zeros(40, 30);\nW(1:40, 1:30) = repmat(B(:, 3), 1, 30);\n"
      "W(1:40, 1:30) = repmat(A(2, :), 40, 1);\n",
      "X = rand(20, 30);\nL = rand(20, 20);\nY = X;\nfor k = 1:30\n"
      "  for j = 1:19\n    Y(20, k) = Y(20, k) - L(20, j) * Y(j, k);\n"
      "  end\nend\ns = 0;\nfor i = 1:20\n  s = s + X(i, i) / 2;\n"
      "  a(i) = -s';\nend\n",
  };
  for (const char *Source : Sources) {
    DiagnosticEngine D1, D2;
    ParseResult P1 = parseMatlab(Source, D1);
    ParseResult P2 = parseMatlab(Source, D2);
    ASSERT_FALSE(D1.hasErrors());

    // Account-only governors (cap 0 never throws) must see the same
    // cumulative allocation stream from both engines.
    ResourceGovernor GA(0), GV(0);
    {
      GovernorScope Scope(&GA);
      Interpreter I;
      I.seedRandom(7);
      EXPECT_TRUE(I.run(P1.Prog));
    }
    {
      GovernorScope Scope(&GV);
      Interpreter I;
      I.seedRandom(7);
      vm::CompiledProgram CP = vm::compileProgram(P2.Prog, Source);
      EXPECT_TRUE(vm::execute(CP, I));
    }
    EXPECT_EQ(GA.usedBytes(), GV.usedBytes()) << Source;
    EXPECT_GT(GA.usedBytes(), 0u) << Source;
  }

  // And under a budget that cannot hold the workload, both engines abort
  // with the same ResourceExhausted unwind.
  const std::string Big = "A = zeros(200, 200);\n";
  DiagnosticEngine D1, D2;
  ParseResult P1 = parseMatlab(Big, D1);
  ParseResult P2 = parseMatlab(Big, D2);
  {
    ResourceGovernor G(1024);
    GovernorScope Scope(&G);
    Interpreter I;
    EXPECT_THROW(I.run(P1.Prog), ResourceExhausted);
  }
  {
    ResourceGovernor G(1024);
    GovernorScope Scope(&G);
    Interpreter I;
    vm::CompiledProgram CP = vm::compileProgram(P2.Prog, Big);
    EXPECT_THROW(vm::execute(CP, I), ResourceExhausted);
  }
}

/// Runs \p Source on the tree-walker and on the VM (same seed) and
/// expects success on both and every variable equal bit for bit: shape,
/// logical flag and each element's bits, so -0.0 and NaN payloads count.
void expectSameBitsOnBothEngines(const std::string &Source) {
  std::map<std::string, Value> Spaces[2];
  for (int UseVM = 0; UseVM != 2; ++UseVM) {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    Interpreter I;
    I.seedRandom(7);
    if (UseVM) {
      vm::CompiledProgram CP = vm::compileProgram(R.Prog, Source);
      ASSERT_TRUE(vm::execute(CP, I)) << I.errorMessage() << "\n" << Source;
    } else {
      ASSERT_TRUE(I.run(R.Prog)) << I.errorMessage() << "\n" << Source;
    }
    Spaces[UseVM] = I.workspace();
  }
  ASSERT_EQ(Spaces[0].size(), Spaces[1].size()) << Source;
  for (const auto &[Name, A] : Spaces[0]) {
    const Value &B = Spaces[1].at(Name);
    ASSERT_EQ(A.rows(), B.rows()) << Name << " in\n" << Source;
    ASSERT_EQ(A.cols(), B.cols()) << Name << " in\n" << Source;
    EXPECT_EQ(A.isLogical(), B.isLogical()) << Name << " in\n" << Source;
    for (size_t I = 0, E = A.numel(); I != E; ++I) {
      double X = A.linear(I), Y = B.linear(I);
      EXPECT_EQ(std::memcmp(&X, &Y, sizeof(double)), 0)
          << Name << "(" << I + 1 << "): " << X << " vs " << Y << " in\n"
          << Source;
    }
  }
}

TEST(VMParity, SumOfProductsMatchesTheTwoStepVm) {
  // The walker reduces sum(A .* B, d) in one pass; the VM builds the
  // product and sums it. Results must agree bit for bit on every operand
  // form, and errors in text and location.
  const char *Values[] = {
      // Plain, scalar, row and column operands.
      "A = rand(7, 5); B = rand(7, 5); s = 3;\n"
      "A(2, 3) = 0/0; B(4, 1) = -1/0; A(5, 5) = -0; B(1, 2) = 1/0;\n"
      "d1 = sum(A .* B, 1); d2 = sum(A .* B, 2);\n"
      "e1 = sum(s .* B, 1); e2 = sum(A .* s, 2); e3 = sum(s .* s, 1);\n"
      "r = rand(1, 9); c = rand(9, 1);\n"
      "f1 = sum(r .* r, 1); f2 = sum(r .* r, 2);\n"
      "g1 = sum(c .* c, 1); g2 = sum(c .* c, 2);\n",
      // Transposed, broadcast and subscripted operands.
      "A = rand(7, 5); X = rand(5, 7); r = rand(1, 9); c = rand(9, 1);\n"
      "t1 = sum(X' .* A, 1); t2 = sum(A .* X', 2);\n"
      "b1 = sum(repmat(c(1:7), 1, 5) .* A, 1);\n"
      "b2 = sum(A .* repmat(r(1:5), 7, 1), 2);\n"
      "v1 = sum(A(2:6, 1:2:5) .* X(1:2:5, 3:7)', 1);\n"
      "v2 = sum(A(:, [1 3]) .* A(:, [2 5]), 2);\n",
      // Empties, dimensions past the second, logical operands, rand.
      "z1 = sum(zeros(0, 3) .* zeros(0, 3), 1);\n"
      "z2 = sum(zeros(3, 0) .* 1, 2); z3 = sum(zeros(3, 0) .* 1, 1);\n"
      "A = rand(4, 6); k = sum(A .* A, 3); n = sum(A .* 2, 7);\n"
      "M = A > 0.5; m = sum(M .* M, 1); l = sum(M .* M, 3);\n"
      "q = sum(rand(3, 4) .* rand(3, 4), 2); w = rand(1);\n",
      // The Table 2 pattern 1 and Fig. 4 shapes.
      "n = 40; X = rand(n, n); Y = rand(n, n); a = zeros(1, n);\n"
      "a(1:n) = sum(X(1:n, :)' .* Y(:, 1:n), 1);\n"
      "C = rand(20, 21); D = rand(21, 21);\n"
      "p = sum(C(2*(1:10), :)' .* D(:, 2*(1:10)), 1);\n",
  };
  for (const char *Source : Values) {
    expectSameBitsOnBothEngines(Source);
    DiffOutcome Out = engineDiffRun(Source);
    EXPECT_TRUE(Out.agreed()) << Source << "\n" << Out.Message;
  }
  const char *Errors[] = {
      "A = ones(2, 3);\nB = ones(3, 2);\nx = sum(A .* B, 1);\n",
      "A = ones(2, 3);\nB = ones(3, 2);\nx = sum(A .* B, nosuch);\n",
      "A = ones(2, 3);\nx = sum(A .* A, [1 2]);\n",
      "A = ones(2, 3);\nx = sum(A .* A, 2.5);\n",
      "A = ones(2, 3);\nx = sum(A .* A, -1);\n",
      "A = ones(2, 3);\nx = sum(A .* A, 0/0);\n",
      "A = ones(2, 3);\nx = sum(A .* A, :);\n",
      "A = ones(2, 3);\nx = sum(A .* A, end);\n",
      "A = ones(2, 3);\nx = sum(A .* nosuch, 1);\n",
      "v = 1:4;\nx = v(sum(v .* end, 2));\n",
      "A = ones(2, 3);\nx = sum(A .* A, 1, 2);\n",
      "x = cumsum([1 2], 0);\n",
  };
  for (const char *Source : Errors) {
    DiffOutcome Out = engineDiffRun(Source);
    EXPECT_TRUE(Out.agreed()) << Source << "\n" << Out.Message;
    Interpreter I;
    DiagnosticEngine Diags;
    EXPECT_FALSE(I.run(parseMatlab(Source, Diags).Prog)) << Source;
  }
}

TEST(VMParity, SumOfProductsNestsToTheSameDepth) {
  // x = sum(((y + y) + y) + ... .* y, 1): the call and the product are one
  // eval() frame each on the walker's fused path, as in the VM's compiled
  // image of the two-step path, so both engines meet the depth limit at
  // the same chain length, with the same error.
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
    DiffOutcome Out = engineDiffRun(P);
    EXPECT_TRUE(Out.agreed()) << N << ": " << Out.Message;
    Interpreter I;
    if (!I.run(P)) {
      EXPECT_EQ(I.errorMessage(), Interpreter::EvalDepthMessage);
      Failed.push_back(N);
    }
  }
  // The call, the product and the chain's N - 1 additions take N + 1
  // frames, so the limit admits N up to MaxEvalDepth - 1.
  EXPECT_EQ(Failed, (std::vector<unsigned>{Interpreter::MaxEvalDepth,
                                           Interpreter::MaxEvalDepth + 1}));
}

TEST(VMParity, SumOfProductsMeetsTheBudgetIdentically) {
  // Under every cap the two-step VM and the one-pass walker either both
  // finish or both stop with the same ResourceExhausted text: the fused
  // reduce charges the product it never builds, in the same order.
  const std::string Source =
      "A = rand(40, 30); B = rand(40, 30);\nx = sum(A .* B, 1);\n"
      "y = sum(A' .* B', 2);\nz = sum(A .* B, 3);\n"
      "C = A + repmat(B(:, 1), 1, 30);\nD = repmat(A(1, :), 40, 1) .* B;\n";
  auto Run = [&](bool UseVM, size_t Cap, size_t *Used) -> std::string {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    ResourceGovernor G(Cap);
    GovernorScope Scope(&G);
    Interpreter I;
    std::string Outcome = "ok";
    try {
      if (UseVM) {
        vm::CompiledProgram CP = vm::compileProgram(R.Prog, Source);
        if (!vm::execute(CP, I))
          Outcome = "failed: " + I.errorMessage();
      } else if (!I.run(R.Prog)) {
        Outcome = "failed: " + I.errorMessage();
      }
    } catch (const ResourceExhausted &E) {
      Outcome = E.what();
    }
    if (Used)
      *Used = G.usedBytes();
    return Outcome;
  };
  size_t Total = 0, VmTotal = 0;
  ASSERT_EQ(Run(false, 0, &Total), "ok");
  ASSERT_EQ(Run(true, 0, &VmTotal), "ok");
  ASSERT_EQ(Total, VmTotal);
  unsigned Stopped = 0;
  for (size_t Step = 1; Step != 64; ++Step) {
    size_t Cap = Total * Step / 64;
    std::string Walker = Run(false, Cap, nullptr);
    EXPECT_EQ(Walker, Run(true, Cap, nullptr)) << "cap " << Cap;
    Stopped += Walker != "ok";
  }
  EXPECT_EQ(Run(false, Total - 1, nullptr), Run(true, Total - 1, nullptr));
  EXPECT_NE(Run(false, Total - 1, nullptr), "ok");
  EXPECT_EQ(Run(false, Total, nullptr), "ok");
  EXPECT_GT(Stopped, 0u);
}

TEST(VMParity, RowUpdateNeverDetachesItsTarget) {
  // The Table 3 ex.1 statement reads three views of X and writes one row
  // of it. The views die before the write, so X's payload is updated in
  // place (no copy-on-write detach), and the charges are those of the
  // copies the views stand for, the subscript vectors and the two
  // results: 504 bytes at i = 4, p = 6.
  const std::string Setup = "X = rand(5, 6);\nL = rand(5, 5);\ni = 4;\n";
  const std::string Kernel = "X(i,:) = X(i,:) - L(i,1:i-1)*X(1:i-1,:);\n";
  for (bool UseVM : {false, true}) {
    DiagnosticEngine D1, D2;
    ParseResult S = parseMatlab(Setup, D1);
    ParseResult K = parseMatlab(Kernel, D2);
    ASSERT_FALSE(D1.hasErrors() || D2.hasErrors());
    Interpreter I;
    ASSERT_TRUE(I.run(S.Prog));
    const double *Before = I.getVariable("X")->raw();
    std::vector<double> Row(6);
    for (size_t C = 0; C != 6; ++C)
      Row[C] = I.getVariable("X")->at(3, C);
    ResourceGovernor G(0);
    {
      GovernorScope Scope(&G);
      if (UseVM) {
        vm::CompiledProgram CP = vm::compileProgram(K.Prog, Kernel);
        ASSERT_TRUE(vm::execute(CP, I)) << I.errorMessage();
      } else {
        ASSERT_TRUE(I.run(K.Prog)) << I.errorMessage();
      }
    }
    const Value *X = I.getVariable("X");
    EXPECT_EQ(X->raw(), Before) << (UseVM ? "vm" : "ast");
    EXPECT_EQ(G.usedBytes(), 504u) << (UseVM ? "vm" : "ast");
    bool Changed = false;
    for (size_t C = 0; C != 6; ++C)
      Changed |= X->at(3, C) != Row[C];
    EXPECT_TRUE(Changed);
  }
}

TEST(VMParity, LogicalFlagBuiltins) {
  const char *Cases[] = {
      "a = true(2, 3);\nb = false(1, 0);\nn = numel(a);\ns = size(b);\n"
      "c = true;\nd = false(2);\n",
      "x = true(-1);\n",
      "v = 1:10;\nk = v > 5;\na = v(repmat(k, 1, 1));\nb = v(fliplr(k));\n"
      "c = [k, k];\nd = [k; k];\ne = flipud(k');\nf = [k, []];\n"
      "h = [k, 1];\nw = v(c(1:10));\n",
  };
  for (const char *Source : Cases) {
    DiffOutcome Out = engineDiffRun(Source);
    EXPECT_TRUE(Out.agreed()) << "engines diverge on:\n"
                              << Source << "\n"
                              << Out.Message;
  }
}

/// Demands the runtime error \p Message from the walker, and the same
/// failure, message and location from the VM.
void expectErrorOnBothEngines(const std::string &Source,
                              const std::string &Message) {
  DiffOutcome Walker = diffRunLimited(Source, Source, RunLimits{});
  EXPECT_EQ(Walker.Status, DiffStatus::Error) << Source;
  EXPECT_NE(Walker.Message.find(Message), std::string::npos)
      << Source << "\n" << Walker.Message;
  DiffOutcome Out = engineDiffRun(Source);
  EXPECT_TRUE(Out.agreed()) << Source << "\n" << Out.Message;
}

TEST(VMParity, RepmatRejectsANegativeSizeVector) {
  expectErrorOnBothEngines(
      "x = repmat([1 2], [-1 2]);\n",
      "size argument to 'repmat' must be a nonnegative integer");
}

TEST(VMParity, RepmatRejectsAFractionalSizeVector) {
  expectErrorOnBothEngines(
      "x = repmat([1 2], [2.7 1]);\n",
      "size argument to 'repmat' must be a nonnegative integer");
}

TEST(VMParity, ZerosRejectsAnInfiniteSize) {
  expectErrorOnBothEngines(
      "x = zeros(1, 1/0);\n",
      "size argument to 'zeros/ones' must be a nonnegative integer");
}

TEST(VMParity, ZerosPastTheArrayLimitFails) {
  expectErrorOnBothEngines(
      "x = zeros(1e6, 1e6);\n",
      "requested 1000000x1000000 array exceeds the maximum array size");
}

} // namespace
