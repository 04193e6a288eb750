"""Independent evaluation routes for colored Jones values.

Two oracles, each consuming the shared plat template but computing through
entirely different formulas than the production fusion method:

* a brute-force Kauffman bracket state sum (dimension-two color only),
  resolving every crossing both ways and counting loops;

* a quantum-group vertex state sum: the braiding is solved numerically from
  the intertwining equation for an E^k (x) F^k ansatz on the N-dimensional
  irreducible representation, cups and caps are the (one-dimensional) spaces
  of invariant vectors and functionals, and the template is contracted slice
  by slice.  The overall crossing scalar and the cup/cap scales drop out of
  the final ratio, so the oracle is self-calibrating: values are divided by
  the zero-crossing template (an unknot) and framing-corrected with curl
  factors measured from one-crossing templates.

Both oracles are deliberately slow and simple; they exist to pin down the
fusion engine's conventions to nine digits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..twistknots import DoubleTwistKnot
from .diagram import PlatDiagram, plat_diagram, writhe
from .roots import RootOfUnityContext


class OracleTooExpensiveError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Kauffman bracket (N = 2)
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _bracket(diagram: PlatDiagram, A: complex) -> complex:
    """Kauffman bracket with the unknot normalized to 1.

    Every state contributes A^(a - b) * delta^(loops - 1) with
    delta = -A^2 - A^(-2).  For a positive letter (lower-left strand over)
    the A-smoothing is the identity smoothing; for a negative letter the two
    smoothings swap.
    """
    delta = -(A**2) - A ** (-2)
    crossings = diagram.crossings
    c = len(crossings)
    total = 0.0 + 0.0j
    for state in range(1 << c):
        uf = _UnionFind(diagram.node_count)
        for a, b in diagram.arcs:
            uf.union(a, b)
        exponent = 0
        for k, cr in enumerate(crossings):
            a_choice = not (state >> k) & 1
            exponent += 1 if a_choice else -1
            vertical = a_choice == cr.positive
            if vertical:
                uf.union(cr.bl, cr.tl)
                uf.union(cr.br, cr.tr)
            else:
                uf.union(cr.bl, cr.br)
                uf.union(cr.tl, cr.tr)
        loops = len({uf.find(i) for i in range(diagram.node_count)})
        total += A**exponent * delta ** (loops - 1)
    return total


def colored_jones_kauffman_oracle(
    knot: DoubleTwistKnot, ctx: RootOfUnityContext
) -> complex:
    """The Jones polynomial (N = 2 colored Jones) at t = q^2, by writhe-
    corrected brute-force Kauffman bracket.  Exponential in the crossing
    number; limited to |m| + |n| <= 14."""
    m, n = knot.m, knot.n
    if abs(m) + abs(n) > 14:
        raise OracleTooExpensiveError("Kauffman state sum beyond 14 crossings")
    diagram = plat_diagram(m, n)
    A = ctx.kauffman_A
    return (-A) ** (-3 * writhe(m, n)) * _bracket(diagram, A)


# ---------------------------------------------------------------------------
# Quantum-group vertex state sum
# ---------------------------------------------------------------------------


def _qnum(q: complex, k: int) -> complex:
    return (q**k - q**-k) / (q - q**-1)


@lru_cache(maxsize=64)
def _rep_matrices(N: int, r: int):
    """E, F, K matrices of the N-dimensional irreducible representation at
    q = exp(2 pi i / r), with K = q^H and F lowering: K v_i = q^(n-2i) v_i,
    E v_i = [n-i+1] v_(i-1), F v_i = [i+1] v_(i+1), so that
    [E, F] = (K - K^-1)/(q - q^-1)."""
    n = N - 1
    q = np.exp(2j * np.pi / r)
    E = np.zeros((N, N), dtype=complex)
    F = np.zeros((N, N), dtype=complex)
    K = np.zeros((N, N), dtype=complex)
    for i in range(N):
        K[i, i] = q ** (n - 2 * i)
        if i >= 1:
            E[i - 1, i] = _qnum(q, n - i + 1)
        if i + 1 <= n:
            F[i + 1, i] = _qnum(q, i + 1)
    return E, F, K, q


def _coproducts(N: int, r: int):
    """Matrices of Delta(E), Delta(F), Delta(K) and their opposites on the
    tensor square, for Delta(E) = E (x) K + 1 (x) E,
    Delta(F) = F (x) 1 + K^-1 (x) F, Delta(K) = K (x) K."""
    E, F, K, _ = _rep_matrices(N, r)
    eye = np.eye(N, dtype=complex)
    Kinv = np.linalg.inv(K)
    dE = np.kron(E, K) + np.kron(eye, E)
    dF = np.kron(F, eye) + np.kron(Kinv, F)
    dK = np.kron(K, K)
    dE_op = np.kron(K, E) + np.kron(E, eye)
    dF_op = np.kron(eye, F) + np.kron(F, Kinv)
    return dE, dF, dK, dE_op, dF_op


@lru_cache(maxsize=64)
def _braiding(N: int, r: int):
    """The braiding P R on V (x) V from the explicit universal R matrix.

    In these conventions R = C * sum_k q^(k(k-1)/2) (q - q^-1)^k / [k]! *
    E^k (x) F^k, where C weights v_i (x) v_j by q^((n-2i)(n-2j)/2).  The
    intertwining property against both comultiplication orders is checked
    numerically at construction.
    """
    n = N - 1
    E, F, _, q = _rep_matrices(N, r)
    dE, dF, _, dE_op, dF_op = _coproducts(N, r)
    sq = np.exp(1j * np.pi / r)
    cart = np.zeros((N * N,), dtype=complex)
    for i in range(N):
        for j in range(N):
            cart[i * N + j] = sq ** ((n - 2 * i) * (n - 2 * j))
    C = np.diag(cart)
    R = np.zeros((N * N, N * N), dtype=complex)
    Ek = np.eye(N, dtype=complex)
    Fk = np.eye(N, dtype=complex)
    coeff = 1.0 + 0.0j
    for k in range(N):
        if k > 0:
            Ek = Ek @ E
            Fk = Fk @ F
            coeff *= q ** (k - 1) * (q - 1 / q) / _qnum(q, k)
        R += coeff * np.kron(Ek, Fk)
    R = C @ R
    scale = float(np.abs(R).max())
    for dU, dU_op in ((dE, dE_op), (dF, dF_op)):
        residual = float(np.abs(R @ dU - dU_op @ R).max())
        if residual > 1e-8 * max(scale, 1.0):
            raise RuntimeError(
                f"universal R intertwining residual {residual:.2e} at N={N}, r={r}"
            )
    P = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N):
        for j in range(N):
            P[j * N + i, i * N + j] = 1.0
    braid = P @ R
    return braid, np.linalg.inv(braid)


@lru_cache(maxsize=64)
def _cup_cap(N: int, r: int):
    """Invariant vector (cup) and functional (cap) on V (x) V.

    Both spaces are one-dimensional; arbitrary nonzero scalings are fine
    because every template has the same cup/cap count and values are used
    only in ratios of template evaluations.
    """
    dE, dF, dK, _, _ = _coproducts(N, r)
    eye = np.eye(N * N, dtype=complex)
    stack_vec = np.vstack([dE, dF, dK - eye])
    vh = np.linalg.svd(stack_vec)[2]
    cup = vh[-1].conj()
    stack_fun = np.vstack([dE.T, dF.T, dK.T - eye])
    vh2 = np.linalg.svd(stack_fun)[2]
    cap = vh2[-1].conj()
    return cup.reshape(N, N), cap.reshape(N, N)


def _plat_value(diagram: PlatDiagram, N: int, r: int) -> complex:
    """Contract the template slice by slice over the four lanes.

    The universal R in these conventions realizes the negative template
    crossing (its spectrum is the conjugate of the positive half-twist
    eigenvalues), so its inverse serves the positive letters.
    """
    braid_neg, braid_pos = _braiding(N, r)
    cup, cap = _cup_cap(N, r)
    state = np.tensordot(cup, cup, axes=0)  # indices: lanes 1..4
    for c in diagram.crossings:
        op = (braid_pos if c.positive else braid_neg).reshape(N, N, N, N)
        # contract lanes (pos, pos+1) with the crossing's input legs
        state = np.tensordot(op, state, axes=([2, 3], [c.pos, c.pos + 1]))
        # output legs land in front; restore lane order
        perm = []
        src = 2
        for lane in range(4):
            if lane == c.pos:
                perm.append(0)
            elif lane == c.pos + 1:
                perm.append(1)
            else:
                perm.append(src)
                src += 1
        state = np.transpose(state, perm)
    inner = np.tensordot(cap, state, axes=([0, 1], [1, 2]))  # cap at (2,3)
    return complex(np.tensordot(cap, inner, axes=([0, 1], [0, 1])))


@lru_cache(maxsize=256)
def _calibration(N: int, r: int):
    """(unknot template value, curl factor per unit writhe).

    The curl factor is measured from the one-kink unknot D(0, 1), whose
    writhe comes from the same orientation tracer used for every knot, so
    the framing correction is consistent by construction.
    """
    base = _plat_value(plat_diagram(0, 0), N, r)
    if abs(base) < 1e-12:
        raise RuntimeError("degenerate unknot template value")
    kink = plat_diagram(0, 1)
    w = writhe(0, 1)
    value = _plat_value(kink, N, r) / base
    curl = value if w == 1 else 1.0 / value
    return base, curl


def colored_jones_rmatrix_oracle(
    knot: DoubleTwistKnot, N: int, ctx: RootOfUnityContext
) -> complex:
    """N-colored Jones value of D(m, n) by the quantum-group vertex sum,
    normalized so the unknot gives 1.  Bounded to |m| + |n| <= 12, N <= 8."""
    if N < 1:
        raise ValueError("the color dimension N must be positive")
    m, n = knot.m, knot.n
    if knot.is_link:
        raise ValueError(f"{knot} is a two-component link, not a knot")
    if abs(m) + abs(n) > 12 or N > 8:
        raise OracleTooExpensiveError("vertex state sum bounds exceeded")
    if N == 1:
        return 1.0 + 0.0j
    r = ctx.r
    if N - 1 > r - 2:
        raise ValueError(f"color dimension {N} outside the level-{r} range")
    base, curl = _calibration(N, r)
    value = _plat_value(plat_diagram(m, n), N, r)
    return complex(value / (base * curl ** writhe(m, n)))


__all__ = [
    "OracleTooExpensiveError",
    "colored_jones_kauffman_oracle",
    "colored_jones_rmatrix_oracle",
]
