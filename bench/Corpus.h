//===- Corpus.h - The paper's program corpus --------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every loop program the paper discusses, as annotated MATLAB sources
/// with small default sizes. Read by the perfbench engine and by the
/// feature-ablation test in VectorizerTest.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_BENCH_CORPUS_H
#define MVEC_BENCH_CORPUS_H

#include <string>
#include <vector>

namespace mvecbench {

struct CorpusProgram {
  std::string Name;
  std::string Source;
};

inline std::vector<CorpusProgram> paperCorpus() {
  return {
      {"sec2.2-transpose",
       "m = 8; n = 6;\n"
       "B = rand(n,m); C = rand(m,n); A = zeros(m,n);\n"
       "%! A(*,*) B(*,*) C(*,*)\n"
       "for i=1:m\n for j=1:n\n  A(i,j) = B(j,i)+C(i,j);\n end\nend\n"},
      {"table2-pattern1-dot",
       "n = 8; X = rand(n,n); Y = rand(n,n); a = zeros(1,n);\n"
       "%! X(*,*) Y(*,*) a(1,*) n(1)\n"
       "for i=1:n\n  a(i) = X(i,:)*Y(:,i);\nend\n"},
      {"table2-pattern2-repmat",
       "m = 8; n = 6; B = rand(m,n); C = rand(m,1); A = zeros(m,n);\n"
       "%! A(*,*) B(*,*) C(*,1)\n"
       "for i=1:m\n for j=1:n\n  A(i,j) = B(i,j)+C(i);\n end\nend\n"},
      {"table2-pattern3-diagonal",
       "n = 8; A = rand(n,n); b = rand(1,n); a = zeros(1,n);\n"
       "%! A(*,*) b(1,*) a(1,*) n(1)\n"
       "for i=1:n\n  a(i) = A(i,i)*b(i);\nend\n"},
      {"fig3-histeq",
       "im = mod(reshape(0:47, 6, 8), 16);\nim2 = zeros(6,8);\n"
       "%! im(*,*) im2(*,*) heq(1,*) h(1,*)\n"
       "h = hist(im(:),[0:255]);\n"
       "heq = 255*cumsum(h(:))/sum(h(:));\n"
       "for i=1:size(im,1)\n for j=1:size(im,2)\n"
       "  im2(i,j) = heq(im(i,j)+1);\n end\nend\n"},
      {"fig4-compound",
       "A = rand(16,17); B = rand(16,17); C = rand(16,17); D = rand(17,17);\n"
       "a = rand(1,40);\n"
       "%! A(*,*) B(*,*) C(*,*) D(*,*) a(1,*) ind(1,*)\n"
       "ind = 1:8;\n"
       "for i=2:2:16\n"
       " B(i,1) = D(i,i)*A(i,i)+C(i,:)*D(:,i);\n"
       " for j=3:2:17\n"
       "  A(i,j) = B(i,ind)*C(ind,j)+D(j,i)'-a(2*i-1);\n"
       " end\nend\n"},
      {"fig5-ex1-forward-elim",
       "i = 5; p = 8;\nX = rand(6,p); L = rand(6,6);\n"
       "%! X(*,*) L(*,*) i(1) p(1)\n"
       "for k=1:p\n for j=1:(i-1)\n"
       "  X(i,k) = X(i,k) - L(i,j)*X(j,k);\n end\nend\n"},
      {"fig5-ex2-phi",
       "N = 6; k = 1;\n"
       "a = rand(N,N); x_se = rand(N,1); f = rand(N,1); phi = zeros(1,2);\n"
       "%! a(*,*) x_se(*,1) f(*,1) phi(1,*) N(1) k(1)\n"
       "for i=1:N\n for j=1:N\n"
       "  phi(k) = phi(k) + a(i,j)*x_se(i)*f(j);\n end\nend\n"},
      {"fig5-ex3-quad",
       "n = 4;\nx = rand(n,1); A = rand(n,n); B = rand(n,n); C = rand(n,n);\n"
       "y = zeros(n,1);\n"
       "%! x(*,1) A(*,*) B(*,*) C(*,*) y(*,1) n(1)\n"
       "for i=1:n\n for j=1:n\n  for k=1:n\n   for l=1:n\n"
       "    y(i) = y(i) + x(j)*A(i,k)*B(l,k)*C(l,j);\n"
       "   end\n  end\n end\nend\n"},
      {"scalar-accumulator",
       "n = 8; x = rand(1,n); s = 0;\n%! x(1,*) s(1)\n"
       "for i=1:n\n  s = s + x(i);\nend\n"},
      {"pointwise-simple",
       "n = 8; x = rand(1,n); y = rand(1,n); z = zeros(1,n);\n"
       "for i=1:n\n  z(i) = 2*x(i)+y(i)^2;\nend\n"},
  };
}

} // namespace mvecbench

#endif // MVEC_BENCH_CORPUS_H
