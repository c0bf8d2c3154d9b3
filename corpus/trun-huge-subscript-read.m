% fuzz-finding: kind=transformed-run-error status=fixed
% bucket: trun:index #e+# exceeds matrix dimension (#)
% family: manual:huge-subscript
% Subscripts far past any extent, in a loop that runs zero times. The
% interpreter used to cast such a subscript to size_t before checking
% it, so v(1e300) read out of bounds on both engines and returned
% garbage; both now fail with "index 1e+300 exceeds matrix dimension".
% The original never reaches the reads, so a transformed program that
% evaluates them eagerly is a finding, and mutants that make the loop
% run send the subscripts to both engines.
k = zeros(1,2);
v = [10 20 30];
A = [1 2; 3 4];
x = zeros(1,3);
y = zeros(1,3);
%! k(1,*) v(1,*) A(*,*) x(1,*) y(1,*)
for i=1:k(1)
  x(i) = v(1e300*i);
  y(i) = A(1e300*i, 1);
end
