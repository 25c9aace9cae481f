"""Lax matrices, conserved quantities, axis, presymplectic form.

The spectral data of A_lambda(P) packages every conserved quantity of the
2-2 dynamics; this module evaluates them directly from vertex data so that
conservation can be checked against the c-coordinate formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .continuants import c_product, trace_coefficients
from .errors import InfiniteVertexForIJK, OddN, ScalarAxisMatrix, InfiniteVertex
from .polygon import TwistedPolygon, apply_moebius, cross_ratios
from .projective import (
    Matrix2,
    MoebiusKind,
    classify,
    det2,
    loxodromic_matrix,
)
from .tolerances import DEFAULT, Tolerances


def lax_matrix(p: TwistedPolygon, lam: complex, tol: Tolerances = DEFAULT) -> Matrix2:
    """A_lambda(P) = M^-1 A_lambda(p_n, p_{n+1}) ... A_lambda(p_1, p_2).

    M is the stored monodromy representative, so det A = lam^n / det M.
    """
    p.require_nondegenerate(tol)
    m = p.monodromy.inverse()
    for i in range(p.n, 0, -1):
        m = m @ loxodromic_matrix(p.vertex(i), p.vertex(i + 1), lam, tol)
    return m


def lax_normalized_trace(p: TwistedPolygon, lam: complex,
                         tol: Tolerances = DEFAULT) -> complex:
    """tr^2/det of the Lax matrix with the determinant taken analytically.

    det A = lam^n / det M exactly; the entrywise ad - bc cancels
    catastrophically on long products, so it is never used here.
    """
    lam = complex(lam)
    a = lax_matrix(p, lam, tol)
    t = a.trace()
    return t * t * p.monodromy.det() / lam ** p.n


def trace_polynomial_value(c: Sequence[complex], lam: complex) -> complex:
    """(1/(c_[n] lam^n)) (sum_k (-1)^k F_k lam^k)^2, the Lax normalized trace."""
    lam = complex(lam)
    s = sum((-1.0) ** k * fk * lam ** k for k, fk in enumerate(trace_coefficients(c)))
    return s * s / (c_product(c) * lam ** len(c))


def e_alpha(c: Sequence[complex], alpha: complex) -> complex:
    """Casimir of the invariant bracket: the lam = 1/alpha trace value.

    Equals the normalized monodromy trace of the alpha^-1-scaled coordinates,
    and 2 + u_[n] + 1/u_[n] on the auxiliary chart.
    """
    return trace_polynomial_value(c, 1.0 / complex(alpha))


def g_coefficients(p: TwistedPolygon, tol: Tolerances = DEFAULT) -> list:
    """[G_0..G_{floor(n/2)}]: multi-ratio sums over cyclically sparse subsets.

    G_k = sum over cyclically sparse i_1 < .. < i_k of d(i_1, i_k+1)
    prod_s d(i_s, i_{s-1}+1)/d(i_s, i_s+1), d(i, j) = det(p_i, p_j): a chain
    sum with transfer matrix W[a, b] = d(b, a+1)/d(b, b+1), b >= a+2, in
    O(n^3). Homogeneous, so infinite vertices are fine. Meaningful for closed
    polygons; about 1e-14 relative per coefficient up to n = 128 against a
    100-digit reference.
    """
    p.require_nondegenerate(tol)
    n = p.n
    pts = [p.vertex(i) for i in range(1, n + 2)]
    num = np.array([v.num for v in pts])
    den = np.array([v.den for v in pts])
    d = np.outer(num, den) - np.outer(den, num)  # d[i, j] = det(p_{i+1}, p_{j+1})
    inv_edge = 1.0 / np.diagonal(d, 1)
    w = np.triu(d[:n, 1:].T, 2) * inv_edge
    # the closing factor d(s, b+1) is bilinear in (p_s, p_{b+1}): carry the
    # starts s > 1 weighted by num_s and by den_s, and s = 1 alone, whose
    # closing pair b = n is dropped (1 and n are cyclically adjacent)
    y = np.zeros((3, n), dtype=complex)
    y[0, 1:] = num[1:n] * inv_edge[1:]
    y[1, 1:] = den[1:n] * inv_edge[1:]
    y[2, 0] = inv_edge[0]
    out = [2.0 + 0j]
    for _ in range(n // 2):
        out.append(complex(y[0] @ den[1:] - y[1] @ num[1:] + y[2, :n - 1] @ d[0, 1:n]))
        y = y @ w
    return out


def g_from_f(fs: Sequence[complex], c_prod: complex) -> list:
    """G_l = (1/sqrt(c_[n])) sum_{k>=l} (-1)^k C(k,l) F_k, branch fixed by G_0 = 2.

    The alternating binomial sum cancels. Against a 100-digit reference its
    relative error per coefficient is about 1e-10 at n = 16, 2e-9 at n = 20,
    2e-7 at n = 32 and 6e-2 at n = 64, and no digit is left from about
    n = 80. It meets the library's 1e-9 tolerance for n <= 16 only; use it
    there as an identity check, and g_coefficients as the evaluation.
    """
    m = len(fs) - 1
    s = cmath.sqrt(c_prod)
    out = []
    for l in range(m + 1):
        out.append(sum((-1.0) ** k * math.comb(k, l) * fs[k] for k in range(l, m + 1)) / s)
    if abs(out[0] - 2.0) > abs(out[0] + 2.0):
        out = [-g for g in out]
    return out


def alternating_perimeter(p: TwistedPolygon, tol: Tolerances = DEFAULT) -> complex:
    """A(P) = prod (p_{2j-1} - p_{2j}) / prod (p_{2j} - p_{2j+1}) for even-gons.

    Computed homogeneously; the (-1)^{n/2} factor aligns the signed-determinant
    ratio with the lambda-length normalization, making G_{n/2} = A + 1/A hold
    with the trace-pinned branch of the G coefficients.
    """
    n = p.n
    if n % 2 != 0:
        raise OddN("alternating perimeter needs an even-gon")
    p.require_nondegenerate(tol)
    reps = {i: p.vertex(i) for i in range(1, n + 2)}
    num = den = 1.0 + 0j
    for j in range(1, n // 2 + 1):
        num *= det2(reps[2 * j - 1], reps[2 * j])
        den *= det2(reps[2 * j], reps[2 * j + 1])
    return (-1.0) ** (n // 2) * num / den


_GAUGE_ANGLES = (0.0, 0.37, 0.94, 1.51, 2.08, 2.65)


def _finite_gauge(p: TwistedPolygon, tol: Tolerances) -> Matrix2:
    """Rotation gauge that clears all vertices off infinity.

    The first rotation of a fixed list with a 0.05 margin on every |den| wins.
    When none clears it (dense polygons all round RP^1, from about n = 32),
    the rotation to the middle of the widest gap between the vertices' worst
    angles is taken, unless its margin is at the degeneracy tolerance.
    """
    # |den| after rotating by t is |num sin t + den cos t|; its square is
    # A + B cos 2t + C sin 2t, smallest at 2t = atan2(C, B) + pi
    num = np.array([v.num for v in p.vertices])
    den = np.array([v.den for v in p.vertices])
    b = (np.abs(den) ** 2 - np.abs(num) ** 2) / 2
    worst = np.sort(((np.arctan2((num * den.conj()).real, b) + np.pi) / 2) % np.pi)
    gaps = np.diff(np.append(worst, worst[0] + np.pi))
    widest = float(worst[np.argmax(gaps)] + np.max(gaps) / 2)
    for k, t in enumerate(_GAUGE_ANGLES + (widest,)):
        g = Matrix2(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))
        margin = min(abs((g.apply(v)).den) for v in p.vertices)
        if margin > (0.05 if k < len(_GAUGE_ANGLES) else tol.deg):
            return g
    raise InfiniteVertexForIJK("no rotation moves all vertices off infinity")


def ijk(p: TwistedPolygon, tol: Tolerances = DEFAULT, auto_gauge: bool = True):
    """(I, J, K, gauge): the three chart-dependent sums, in an all-finite gauge.

    I = sum 1/(p_i - p_{i+1}), J = (1/2) sum (p_i+p_{i+1})/(p_i-p_{i+1}),
    K = sum p_i p_{i+1} / (p_i - p_{i+1}); gauge is None when no move was needed.
    With auto_gauge=False the sums are taken in the polygon's own chart and an
    exactly infinite vertex raises.
    """
    gauge: Optional[Matrix2] = None
    q = p
    if not auto_gauge:
        if any(v.den == 0 for v in p.vertices):
            raise InfiniteVertexForIJK("vertex at infinity and auto gauge disabled")
    elif any(abs(v.den) <= 0.05 for v in p.vertices):
        gauge = _finite_gauge(p, tol)
        q = apply_moebius(gauge, p, tol)
    z = [v.affine() for v in q.vertices]
    n = q.n
    i_sum = j_sum = k_sum = 0.0 + 0j
    for t in range(n):
        a, b = z[t], z[(t + 1) % n]
        d = a - b
        i_sum += 1.0 / d
        j_sum += 0.5 * (a + b) / d
        k_sum += a * b / d
    return i_sum, j_sum, k_sum, gauge


def axis(p: TwistedPolygon, tol: Tolerances = DEFAULT):
    """Invariant line of the polygon: eigen-directions of [[-J+n/2, K], [-I, J+n/2]].

    Returns (pair of ProjectivePoints, degenerate flag); equivariant under the
    Moebius action, so the internal finite-vertex gauge is transparent.
    """
    i_sum, j_sum, k_sum, gauge = ijk(p, tol)
    half = p.n / 2.0
    m = Matrix2(-j_sum + half, k_sum, -i_sum, j_sum + half)
    if m.is_scalar(tol):
        raise ScalarAxisMatrix("axis matrix is scalar; axis undefined")
    cls = classify(m, tol)
    if cls.kind is not MoebiusKind.LOXODROMIC:
        pts = cls.fixed_points * 2 if len(cls.fixed_points) == 1 else cls.fixed_points
        degenerate = True
    else:
        pts, degenerate = cls.fixed_points, False
    if gauge is not None:
        ginv = gauge.inverse()
        pts = tuple(ginv.apply(q) for q in pts)
    return pts, degenerate


@dataclass
class IntegralReport:
    """Conserved quantities of one polygon (fields as serialized)."""

    F: list
    G: Optional[list]
    c_prod: complex
    E_alpha: complex
    alt_perimeter: Optional[complex]
    IJK: Optional[tuple]
    axis: Optional[tuple]
    axis_degenerate: bool = False
    ijk_gauge: Optional[Matrix2] = None

    def to_json(self) -> dict:
        def c2(z):
            return None if z is None else [z.real, z.imag]

        return {
            "F": [c2(v) for v in self.F],
            "G": None if self.G is None else [c2(v) for v in self.G],
            "c_prod": c2(self.c_prod),
            "E_alpha": c2(self.E_alpha),
            "alt_perimeter": c2(self.alt_perimeter),
            "IJK": None if self.IJK is None else [c2(v) for v in self.IJK],
            "axis": None
            if self.axis is None
            else [{"num": c2(q.num), "den": c2(q.den)} for q in self.axis],
            "axis_degenerate": self.axis_degenerate,
            "ijk_gauge": None
            if self.ijk_gauge is None
            else [c2(e) for e in self.ijk_gauge.entries()],
        }


def integrals(p: TwistedPolygon, alpha: complex, tol: Tolerances = DEFAULT) -> IntegralReport:
    """Every conserved quantity of the alpha-dynamics for this polygon.

    G, I/J/K, the alternating perimeter and the axis are reported only for
    closed polygons (they are not defined on twisted ones).
    """
    p.require_nondegenerate(tol)
    c = cross_ratios(p, tol).values
    fs = trace_coefficients(c)
    closed = p.is_closed(tol)
    g = ap = ijk_t = ax = None
    gauge = None
    degenerate = False
    if closed:
        q = p.normalized_closed(tol)
        g = g_coefficients(q, tol)
        if p.n % 2 == 0:
            ap = alternating_perimeter(q, tol)
        i_sum, j_sum, k_sum, gauge = ijk(q, tol)
        ijk_t = (i_sum, j_sum, k_sum)
        try:
            ax, degenerate = axis(q, tol)
        except ScalarAxisMatrix:
            ax, degenerate = None, True
    return IntegralReport(
        F=fs,
        G=g,
        c_prod=c_product(c),
        E_alpha=e_alpha(c, alpha),
        alt_perimeter=ap,
        IJK=ijk_t,
        axis=ax,
        axis_degenerate=degenerate,
        ijk_gauge=gauge,
    )


# --- presymplectic form ---------------------------------------------------------


def _affine_finite(p: TwistedPolygon) -> list:
    z = [v.affine() for v in p.vertices]
    if any(cmath.isinf(w) for w in z):
        raise InfiniteVertex("operation needs all vertices finite")
    return z


def presymplectic_eval(p: TwistedPolygon, t1: Sequence[complex], t2: Sequence[complex]) -> complex:
    """Omega(t1, t2) with Omega = sum dp_i ^ dp_{i+1} / (p_i - p_{i+1})^2."""
    z = _affine_finite(p)
    n = p.n
    total = 0.0 + 0j
    for i in range(n):
        j = (i + 1) % n
        total += (t1[i] * t2[j] - t1[j] * t2[i]) / (z[i] - z[j]) ** 2
    return total


def presymplectic_matrix(p: TwistedPolygon) -> np.ndarray:
    """Antisymmetric n x n matrix of Omega in the vertex coordinates."""
    z = _affine_finite(p)
    n = p.n
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        j = (i + 1) % n
        w = 1.0 / (z[i] - z[j]) ** 2
        m[i, j] += w
        m[j, i] -= w
    return m


def presymplectic_kernel(p: TwistedPolygon, tol: Tolerances = DEFAULT):
    """Kernel field of Omega: the edge-ratio field for odd n, else the
    one-parameter solution when the alternating perimeter is 1, else None."""
    n = p.n
    z = _affine_finite(p)
    if n % 2 == 1:
        from .dynamics import xi_field

        return xi_field(p, tol)
    a = alternating_perimeter(p, tol)
    if abs(a - 1.0) > 1e-8:
        return None
    # i_v Omega = 0 <=> v_{i+1} (p_{i-1} - p_i)^2 = v_{i-1} (p_i - p_{i+1})^2
    v = [0j] * n
    v[0] = v[1] = 1.0 + 0j
    for i in range(1, n - 1):
        v[i + 1] = v[i - 1] * ((z[i] - z[(i + 1) % n]) / (z[i - 1] - z[i])) ** 2
    return v
