q(X, Y) :-
    Y is X + 1.

p0(X,Y,Z) :- X >= 500, Y is X, Z is X.
p0(X,Y,Z) :- X < 500, q(X,A), p1(A,B,C), p2(X,Y,D), q(B,Z).
p1(X,Y,Z) :- X >= 500, Y is X, Z is X.
p1(X,Y,Z) :- X < 500, q(X,A), p2(A,B,C), p3(X,Y,D), q(B,Z).
p2(X,Y,Z) :- X >= 500, Y is X, Z is X.
p2(X,Y,Z) :- X < 500, q(X,A), p3(A,B,C), p4(X,Y,D), q(B,Z).
p3(X,Y,Z) :- X >= 500, Y is X, Z is X.
p3(X,Y,Z) :- X < 500, q(X,A), p4(A,B,C), p5(X,Y,D), q(B,Z).
p4(X,Y,Z) :- X >= 500, Y is X, Z is X.
p4(X,Y,Z) :- X < 500, q(X,A), p5(A,B,C), p6(X,Y,D), q(B,Z).
p5(X,Y,Z) :- X >= 500, Y is X, Z is X.
p5(X,Y,Z) :- X < 500, q(X,A), p6(A,B,C), p7(X,Y,D), q(B,Z).
p6(X,Y,Z) :- X >= 500, Y is X, Z is X.
p6(X,Y,Z) :- X < 500, q(X,A), p7(A,B,C), p8(X,Y,D), q(B,Z).
p7(X,Y,Z) :- X >= 500, Y is X, Z is X.
p7(X,Y,Z) :- X < 500, q(X,A), p8(A,B,C), p9(X,Y,D), q(B,Z).
p8(X,Y,Z) :- X >= 500, Y is X, Z is X.
p8(X,Y,Z) :- X < 500, q(X,A), p9(A,B,C), p10(X,Y,D), q(B,Z).
p9(X,Y,Z) :- X >= 500, Y is X, Z is X.
p9(X,Y,Z) :- X < 500, q(X,A), p10(A,B,C), p11(X,Y,D), q(B,Z).
p10(X,Y,Z) :- X >= 500, Y is X, Z is X.
p10(X,Y,Z) :- X < 500, q(X,A), p11(A,B,C), p12(X,Y,D), q(B,Z).
p11(X,Y,Z) :- X >= 500, Y is X, Z is X.
p11(X,Y,Z) :- X < 500, q(X,A), p12(A,B,C), p13(X,Y,D), q(B,Z).
p12(X,Y,Z) :- Y is X, Z is X.
p13(X,Y,Z) :- Y is X, Z is X.
