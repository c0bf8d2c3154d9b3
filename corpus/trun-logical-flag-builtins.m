% fuzz-finding: kind=transformed-run-error status=fixed
% bucket: trun:subscript indices must be positive integers
% family: manual:logical-flag-builtins
% repmat, fliplr/flipud and matrix concatenation built fresh doubles and
% dropped their operands' logical flag, so a mask passed through them
% selected by position: v(fliplr(k)) failed with "subscript indices must
% be positive integers" on both engines, and islogical([k, k]) was 0. A
% result is now logical when every operand is. The loop below is
% vectorized, and the masks select from its result.
n = 10;
v = 1:n;
k = v > 5;
m = [fliplr(k), repmat(k, 1, 1)];
w = v(flipud(k')');
a = zeros(1,n);
%! v(1,*) a(1,*) n(1)
for i=1:n
  a(i) = v(i) * 2;
end
s = sum(a(m(1:n))) + sum(a(w));
