q(X, Y) :-
    Y is X + 1.

r(X0,Y0,X6,Y6) :-
    q(X0,X1),
    q(X1,X2),
    q(X2,X3),
    q(X3,X4),
    q(X4,X5),
    q(X5,X6),
    q(Y0,Y1),
    q(Y1,Y2),
    q(Y2,Y3),
    q(Y3,Y4),
    q(Y4,Y5),
    q(Y5,Y6).
