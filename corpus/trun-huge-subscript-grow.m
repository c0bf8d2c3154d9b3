% fuzz-finding: kind=transformed-run-error status=fixed
% bucket: trun:requested #x#e+# array exceeds the maximum array size
% family: manual:huge-subscript
% Growing writes far past any extent, in a loop that runs zero times.
% The interpreter used to cast the largest subscript to size_t and grow
% the target before validating it: v(1e300)=4 and A(1e300,1)=4 freed
% memory twice, and v(1e12)=4 threw std::bad_alloc. Both engines now
% refuse any shape over the maximum array size before growing. The
% original never reaches the writes, so a transformed program that
% performs them eagerly is a finding, and mutants that make the loop run
% send the subscripts to both engines.
k = zeros(1,2);
v = [10 20 30];
w = [10 20 30];
A = [1 2; 3 4];
%! k(1,*) v(1,*) w(1,*) A(*,*)
for i=1:k(1)
  v(1e300*i) = 4;
  w(1e12*i) = 4;
  A(1e300*i, 1) = 4;
end
