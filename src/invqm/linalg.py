"""Exact rational and integer linear algebra.

Matrices are dense, row-major lists of lists of ``int`` or
``fractions.Fraction``.  Rank, RREF, kernels and unimodularity all come
from one fraction-free (Bareiss) echelon routine over ``int``; rational
input rows are first scaled to integers.  No determinant is formed:
unimodularity is read off the last Bareiss pivot.  Invariant factors come
from a diagonal reduction without transforms, and the characteristic
polynomial from Berkowitz's division-free recursion.  Everything is exact: no
floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

MatZ = list[list[int]]
VecZ = list[int]


def identity(n: int) -> MatZ:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> list[list]:
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def _integerize_rows(A: Sequence[Sequence]) -> MatZ:
    """The nonzero rows of A, each scaled by the lcm of its denominators;
    preserves rank, row space and kernel."""
    out = []
    for row in filter(any, A):
        # integer rows, the common case, skip the costly Fraction round trip
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def _primitive(v: VecZ) -> VecZ:
    """Divide by the content and make the leading nonzero entry positive."""
    g = gcd(*v)
    if next((x for x in v if x), 0) < 0:
        g = -g
    return [x // g for x in v]


def echelon(A: Sequence[Sequence]) -> tuple[MatZ, list[int]]:
    """Fraction-free forward elimination (Bareiss 1968) of an integerized
    copy of the nonzero rows of A.

    Returns the nonzero echelon rows and their pivot columns.  Every entry
    stays an integer minor of the integerized, row-permuted input; the
    pivot of echelon row k is the leading (k+1)-minor on the pivot columns,
    so the last pivot is, up to sign, the determinant of the full pivot
    minor.
    """
    A = _integerize_rows(A)
    m = len(A)
    n = len(A[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        top = A[r]
        p = top[c]
        for i in range(r + 1, m):
            a = A[i][c]
            A[i] = [(p * x - a * y) // prev for x, y in zip(A[i], top)]
        prev = p
        pivots.append(c)
    return A[:len(pivots)], pivots


def rank(M: Sequence[Sequence]) -> int:
    """Rank over Q: the number of Bareiss pivots."""
    return len(echelon(M)[1])


def rref(M: Sequence[Sequence]) -> tuple[MatZ, list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot_columns).

    Each row is the RREF row scaled to an integer row with content 1, so its
    pivot is positive.  The echelon rows are back-substituted without
    fractions: with d the last pivot, d times the RREF is integral, and
    row k of it is (d E_k - sum_{j>k} E_k[p_j] R_j) / E_k[p_k].
    """
    rows, pivots = echelon(M)
    if rows:
        d = rows[-1][pivots[-1]]
        for k in range(len(rows) - 2, -1, -1):
            row = rows[k]
            acc = [d * x for x in row]
            for j in range(k + 1, len(rows)):
                f = row[pivots[j]]
                if f:
                    acc = [a - f * y for a, y in zip(acc, rows[j])]
            e = row[pivots[k]]
            rows[k] = [a // e for a in acc]
    return [_primitive(row) for row in rows], pivots


def kernel_basis(M: Sequence[Sequence]) -> list[VecZ]:
    """Basis of the right kernel of M over Q, as content-1 integer vectors
    with positive leading entry.

    Free variables are taken in increasing column order, so the output is
    deterministic.
    """
    n = len(M[0]) if M else 0
    R, pivots = rref(M)
    scale = lcm(*(row[p] for row, p in zip(R, pivots)))
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[fc] = scale
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(v))
    return basis


def kernel_dim(M: Sequence[Sequence]) -> int:
    n = len(M[0]) if M else 0
    return n - rank(M)


def charpoly(A: Sequence[Sequence[int]]) -> VecZ:
    """Coefficients of det(xI - A), leading 1 first, without division
    (Berkowitz 1984): bordering the trailing block A1 by a row R, a column
    C and a corner a is a lower triangular Toeplitz product with first
    column 1, -a, -R C, -R A1 C, ..."""
    p = [1]
    for i in reversed(range(len(A))):
        A1 = [row[i + 1:] for row in A[i + 1:]]
        R, v = A[i][i + 1:], [row[i] for row in A[i + 1:]]
        q = [1, -A[i][i]]
        for _ in A1:
            q.append(-sum(map(mul, R, v)))
            v = mat_vec(A1, v)
        p = [sum(q[t - j] * p[j] for j in range(min(t + 1, len(p))))
             for t in range(len(p) + 1)]
    return p


def invariant_factors(A: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, in order
    (d_i > 0, d_i | d_{i+1}); no transforms are kept."""
    D = [list(map(int, row)) for row in A]
    m = len(D)
    n = len(D[0]) if m else 0

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot of least size in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0:
                    if piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        D[t], D[piv[0]] = D[piv[0]], D[t]
        swap_cols(t, piv[1])
        while True:
            # clear row and column t
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    D[i] = [a - q * b for a, b in zip(D[i], D[t])]
                    if D[i][t] != 0:
                        D[t], D[i] = D[i], D[t]
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    for row in D:
                        row[j] -= q * row[t]
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # make the pivot divide every remaining entry
        bad = next((i for i in range(t + 1, m)
                    if any(D[i][j] % D[t][t] for j in range(t + 1, n))), None)
        if bad is None:
            t += 1
        else:
            D[t] = [a + b for a, b in zip(D[t], D[bad])]
    return [abs(D[i][i]) for i in range(t)]


# --- exterior square --------------------------------------------------------

def pair_basis(n: int) -> list[tuple[int, int]]:
    """Lexicographic list of pairs (i, j), 1 <= i < j <= n, used everywhere
    a wedge-square basis is needed."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def exterior_square(A: Sequence[Sequence]) -> list[list]:
    """Induced map on the wedge square; entry ((i,j),(k,l)) is the 2x2 minor
    A[ik]A[jl] - A[il]A[jk] (1-based pairs, lexicographic order)."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("exterior_square needs a square matrix")
    pairs = pair_basis(n)
    out = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            row.append(A[i - 1][k - 1] * A[j - 1][l - 1]
                       - A[i - 1][l - 1] * A[j - 1][k - 1])
        out.append(row)
    return out


def is_symplectic(A: Sequence[Sequence[int]]) -> bool:
    """True iff A^T J A = J with J = [[0, I], [-I, 0]]; requires even size."""
    n = len(A)
    if n % 2 != 0 or any(len(row) != n for row in A):
        raise ValueError("is_symplectic needs an even-dimensional square matrix")
    l = n // 2
    J = [[(j == i + l) - (i == j + l) for j in range(n)] for i in range(n)]
    At = [list(col) for col in zip(*A)]
    return mat_mul(mat_mul(At, J), A) == J


def is_unimodular(A: Sequence[Sequence[int]]) -> bool:
    """True iff the square integer matrix A has determinant +1 or -1: full
    rank, and a last Bareiss pivot (the determinant up to sign) of +-1."""
    rows, pivots = echelon(A)
    return len(pivots) == len(A) and (not A or abs(rows[-1][pivots[-1]]) == 1)
