% both entries reach r/2 at one call pattern, under different variable
% names; the first trace that unfolds it gives its resultants
p(X) :- r(X, N), s(N).
q(X) :- r(X, K), s(K).
r(0, 0).
r(s(N), M) :- r(N, M).
s(_).
