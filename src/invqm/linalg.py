"""Exact rational and integer linear algebra.

Matrices are dense, row-major lists of lists of ``int`` or
``fractions.Fraction``.  Rank, RREF, kernels and determinants all come from
one fraction-free (Bareiss) echelon routine over ``int``; rational input
rows are first scaled to integers.  Invariant factors come from a
diagonal reduction without transforms.  Everything is exact: no floating
point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

MatZ = list[list[int]]
VecZ = list[int]


def identity(n: int) -> MatZ:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> MatZ:
    return [[0] * n for _ in range(m)]


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> list[list]:
    if not A:
        return []
    m, k, n = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _integerize_rows(A: Sequence[Sequence]) -> MatZ:
    """Scale each row by the lcm of its denominators; preserves rank, row
    space and kernel."""
    out = []
    for row in A:
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


def echelon(A: Sequence[Sequence]) -> tuple[MatZ, list[int], int]:
    """Fraction-free forward elimination (Bareiss 1968) of an integerized
    copy of A.

    Returns the nonzero echelon rows, their pivot columns and the sign of
    the row permutation.  Every entry stays an integer minor of the
    integerized, row-permuted input; the pivot of echelon row k is the
    leading (k+1)-minor on the pivot columns, so the last pivot is the
    determinant of the full pivot minor.
    """
    A = _integerize_rows(A)
    m = len(A)
    n = len(A[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        top = A[r]
        p = top[c]
        for i in range(r + 1, m):
            a = A[i][c]
            A[i] = [(p * x - a * y) // prev for x, y in zip(A[i], top)]
        prev = p
        pivots.append(c)
    return A[:len(pivots)], pivots, sign


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
    rows, pivots, _ = echelon(M)
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


def det(M: Sequence[Sequence]) -> Fraction:
    """Sign times the last Bareiss pivot, over the row-integerization
    scales; exact on rational input."""
    rows, pivots, sign = echelon(M)
    if len(pivots) < len(M):
        return Fraction(0)
    scale = prod(lcm(*(Fraction(x).denominator for x in row)) for row in M)
    return Fraction(sign * (rows[-1][pivots[-1]] if rows else 1), scale)


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


def pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(pair_basis(n))}


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
    J = zeros(n, n)
    for i in range(l):
        J[i][l + i] = 1
        J[l + i][i] = -1
    At = [list(col) for col in zip(*A)]
    return mat_mul(mat_mul(At, J), A) == J


def is_unimodular(A: Sequence[Sequence[int]]) -> bool:
    return abs(det(A)) == 1
