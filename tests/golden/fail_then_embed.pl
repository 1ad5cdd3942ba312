p(X) :- r(X, Y), q(f(Y)).
r(b, c).
r(a, Z) :- Z = b, q(Z).
q(b).
