"""Shared generators for randomized matrix tests, and the Magnus oracle for
wedge classes."""

from fractions import Fraction

from invqm.linalg import identity, mat_mul, pair_basis, rref
from invqm.magnus import WedgeVec


def random_unimodular(rng, n, steps=8, bound=2):
    """Product of elementary integer row operations applied to the identity."""
    A = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-bound, bound)
        for c in range(n):
            A[i][c] += q * A[j][c]
        if rng.random() < 0.3:
            A[i] = [-x for x in A[i]]
    return A


def _sym(rng, l, bound=2):
    B = [[0] * l for _ in range(l)]
    for i in range(l):
        for j in range(i, l):
            B[i][j] = B[j][i] = rng.randint(-bound, bound)
    return B


def _block(tl, tr, bl, br):
    l = len(tl)
    out = []
    for i in range(l):
        out.append(list(tl[i]) + list(tr[i]))
    for i in range(l):
        out.append(list(bl[i]) + list(br[i]))
    return out


def integer_inverse(P):
    n = len(P)
    aug = [[Fraction(P[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    R, pivots = rref(aug)
    assert pivots == list(range(n))
    return [[int(R[i][n + j]) for j in range(n)] for i in range(n)]


def random_symplectic(rng, l, factors=4):
    """Product of elementary symplectic factors for the pairing
    [[0, I], [-I, 0]]: upper/lower symmetric shears and GL(l, Z) blocks."""
    n = 2 * l
    A = identity(n)
    Z = [[0] * l for _ in range(l)]
    I = identity(l)
    for _ in range(factors):
        kind = rng.randrange(3)
        if kind == 0:
            F = _block(I, _sym(rng, l), Z, I)
        elif kind == 1:
            F = _block(I, Z, _sym(rng, l), I)
        else:
            U = random_unimodular(rng, l, steps=4)
            Uinv_t = [list(col) for col in zip(*integer_inverse(U))]
            F = _block(U, Z, Z, Uinv_t)
        A = mat_mul(A, F)
    return A


def magnus_deg2(w):
    """Degree-1 vector and degree-2 coefficient matrix of the degree-2
    truncated Magnus expansion of w, which sends a_i to 1 + x_i and a_i^-1
    to 1 - x_i + x_i^2.  Q[i][j] is the coefficient of x_{i+1} x_{j+1}."""
    n = w.rank
    lin = [0] * n
    quad = [[0] * n for _ in range(n)]
    for x in w.letters:
        g = abs(x) - 1
        if x > 0:
            # (1 + L + Q)(1 + x_g): Q += L ⊗ x_g, L += x_g
            for i in range(n):
                if lin[i]:
                    quad[i][g] += lin[i]
            lin[g] += 1
        else:
            # (1 + L + Q)(1 - x_g + x_g^2)
            for i in range(n):
                if lin[i]:
                    quad[i][g] -= lin[i]
            quad[g][g] += 1
            lin[g] -= 1
    return lin, quad


def magnus_wedge_class(w):
    """Wedge class of a commutator-subgroup word read off the Magnus
    coefficients: (Q[i][j] - Q[j][i]) / 2 on the pair (i, j).  An oracle
    independent of the pair-sum routine in invqm.magnus."""
    lin, quad = magnus_deg2(w)
    assert not any(lin), "word has nonzero abelianization"
    return WedgeVec(w.rank, tuple(
        Fraction(quad[i - 1][j - 1] - quad[j - 1][i - 1], 2)
        for i, j in pair_basis(w.rank)))
