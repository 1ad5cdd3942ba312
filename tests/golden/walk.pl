walk(leaf, _, 0).
walk(node(L, R), D, N) :- walk(L, s(D), N1), walk(R, s(D), N2), N is N1+N2+1.
