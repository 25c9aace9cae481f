"""Continuants D_{i,j}, cyclically sparse sums, monodromy from c-coordinates.

Everything is evaluated through the three-term recurrence directly in the
c-variables, so no square roots enter; windows are 1-based and may run past n
(the coefficients repeat n-periodically).
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

from .errors import KOutOfRange, WindowOrderViolation, WindowTooLarge, ZeroCoordinate
from .polygon import Chart, CoordVector, _c_to_a
from .projective import Matrix2

EULER_WINDOW_LIMIT = 24


def _cs(c: Sequence[complex]):
    return [complex(v) for v in c]


def sparse_subsets(lo: int, hi: int) -> Iterator[tuple]:
    """Subsets of {lo..hi} without consecutive members, the empty set included."""
    if hi < lo:
        yield ()
        return
    for sub in sparse_subsets(lo, hi - 1):
        yield sub
    for sub in sparse_subsets(lo, hi - 2):
        yield sub + (hi,)


def cyclic_sparse_subsets(n: int, k: int) -> Iterator[tuple]:
    """Size-k subsets of {1..n} with no two cyclically consecutive members."""
    if k == 0:
        yield ()
        return
    for sub in sparse_subsets(2, n):  # subsets avoiding 1
        if len(sub) == k:
            yield sub
    for sub in sparse_subsets(3, n - 1):  # subsets containing 1 (so not 2, not n)
        if len(sub) == k - 1:
            yield (1,) + sub


def cyclic_sparse_count(n: int, k: int) -> int:
    """(n/(n-k)) C(n-k, k)."""
    if k == 0:
        return 1
    return n * comb(n - k, k) // (n - k)


def continuant(c: Sequence[complex], i: int, j: int, lam: complex = 1.0) -> complex:
    """D_{i,j}(lam c) by the recurrence D_{i,j} = D_{i,j-1} - lam c_j D_{i,j-2}.

    Initial values D_{i,i-2} = D_{i,i-1} = 1; running the recurrence backwards
    once more forces D_{i,i-3} = 0. Indices into c wrap mod n.
    """
    if j == i - 3:
        return 0.0 + 0j
    if j < i - 3:
        raise WindowOrderViolation(f"window [{i}, {j}] ends before it starts")
    c = _cs(c)
    n = len(c)
    lam = complex(lam)
    d2, d1 = 1.0 + 0j, 1.0 + 0j
    for k in range(i, j + 1):
        d2, d1 = d1, d1 - lam * c[(k - 1) % n] * d2
    return d1


def continuant_backward(c: Sequence[complex], i: int, j: int, lam: complex = 1.0) -> complex:
    """Same value via D_{i,j} = D_{i+1,j} - lam c_i D_{i+2,j}."""
    if j == i - 3:
        return 0.0 + 0j
    if j < i - 3:
        raise WindowOrderViolation(f"window [{i}, {j}] ends before it starts")
    c = _cs(c)
    n = len(c)
    lam = complex(lam)
    d2, d1 = 1.0 + 0j, 1.0 + 0j
    for k in range(j, i - 1, -1):
        d2, d1 = d1, d1 - lam * c[(k - 1) % n] * d2
    return d1


def continuant_by_euler(c: Sequence[complex], i: int, j: int, lam: complex = 1.0) -> complex:
    """D_{i,j}(lam c) as the signed sum over sparse subsets of the window.

    Exponential enumeration; a test oracle, refused beyond window length 24.
    """
    if j == i - 3:
        return 0.0 + 0j
    if j < i - 3:
        raise WindowOrderViolation(f"window [{i}, {j}] ends before it starts")
    if j - i + 1 > EULER_WINDOW_LIMIT:
        raise WindowTooLarge(f"window length {j - i + 1} > {EULER_WINDOW_LIMIT}")
    c = _cs(c)
    n = len(c)
    lam = complex(lam)
    total = 0.0 + 0j
    for sub in sparse_subsets(i, j):
        term = (-lam) ** len(sub)
        for k in sub:
            term *= c[(k - 1) % n]
        total += term
    return total


def _continuant_poly(c: Sequence[complex], i: int, j: int) -> list:
    """Coefficient list of D_{i,j}(lam) as a polynomial in lam."""
    n = len(c)
    d2, d1 = [1.0 + 0j], [1.0 + 0j]
    for k in range(i, j + 1):
        ck = c[(k - 1) % n]
        new = list(d1) + [0.0 + 0j] * (len(d2) + 1 - len(d1))
        for t, coef in enumerate(d2):
            new[t + 1] -= ck * coef
        d2, d1 = d1, new
    return d1


def trace_coefficients(c: Sequence[complex]) -> list:
    """[F_0, ..., F_{floor(n/2)}], the cyclically sparse sums of the c_i.

    Extracted from the generating split into subsets avoiding n and subsets
    containing n, so the cost is O(n^2) rather than exponential.
    """
    c = _cs(c)
    n = len(c)
    t = _continuant_poly(c, 1, n - 1)
    tail = _continuant_poly(c, 2, n - 2)
    m = n // 2
    coeffs = list(t) + [0.0 + 0j] * (m + 1 - len(t))
    for k, coef in enumerate(tail):
        if k + 1 <= m:
            coeffs[k + 1] -= c[n - 1] * coef
    return [(-1.0) ** k * coeffs[k] for k in range(m + 1)]


def f_k(c: Sequence[complex], k: int) -> complex:
    n = len(c)
    if not 0 <= k <= n // 2:
        raise KOutOfRange(f"k = {k} outside 0..{n // 2}")
    return trace_coefficients(c)[k]


def c_product(c: Sequence[complex]) -> complex:
    prod = 1.0 + 0j
    for v in c:
        prod *= complex(v)
    return prod


def trace_sum(c: Sequence[complex], lam: complex = 1.0) -> complex:
    """sum_k (-1)^k F_k lam^k, the trace of the scaled monodromy."""
    lam = complex(lam)
    return sum((-1.0) ** k * fk * lam ** k for k, fk in enumerate(trace_coefficients(c)))


def monodromy_from_c(c: Sequence[complex]) -> Matrix2:
    """Product of the step matrices [[0, c_i], [-1, 1]], i = 1..n."""
    c = _cs(c)
    if any(v == 0 for v in c):
        raise ZeroCoordinate("c-coordinates must be nonzero")
    m = Matrix2.identity()
    for v in c:
        m = m @ Matrix2(0.0, v, -1.0, 1.0)
    return m


def monodromy_closed_form(c: Sequence[complex]) -> Matrix2:
    """The same monodromy through continuants: [[-c_1 D_{3,n-1}, c_1 D_{3,n}], [-D_{2,n-1}, D_{2,n}]]."""
    c = _cs(c)
    n = len(c)
    return Matrix2(
        -c[0] * continuant(c, 3, n - 1),
        c[0] * continuant(c, 3, n),
        -continuant(c, 2, n - 1),
        continuant(c, 2, n),
    )


def closure_residuals(c: Sequence[complex], lam: complex = 1.0) -> list:
    """The n window continuants D_{i, n-3+i}(lam c); all vanish iff closed."""
    c = _cs(c)
    n = len(c)
    return [continuant(c, i, n - 3 + i, lam) for i in range(1, n + 1)]


def is_closed(c: Sequence[complex], tol: float = 1e-9) -> bool:
    return max(abs(r) for r in closure_residuals(c)) < tol


def parabolicity_residual(c: Sequence[complex]) -> complex:
    """(sum (-1)^k F_k)^2 - 4 c_[n]; zero iff the monodromy is parabolic or Id."""
    return trace_sum(c) ** 2 - 4.0 * c_product(c)


def identity_suite(c: Sequence[complex], closed: bool | None = None, tol: float = 1e-9) -> dict:
    """Max residuals of the classical continuant identities on this c.

    Closure-dependent identities are only evaluated when the input is closed
    (decided by the closure residuals unless `closed` is forced).
    """
    c = _cs(c)
    n = len(c)
    report: dict = {}

    mp = monodromy_from_c(c)
    mc = monodromy_closed_form(c)
    report["monodromy_forms"] = mp.entrywise_distance(mc)

    # Casoratian-corrected window identity, polynomial in c:
    # D_{1,m} D_{i,j} - D_{1,j} D_{i,m} = -(c_{i-1}..c_{j+1}) D_{1,i-3} D_{j+3,m}
    worst = 0.0
    for (i, j, m) in [(3, 3, 4), (3, 4, 6), (4, 5, 8), (3, 5, min(9, n + 2))]:
        lhs = continuant(c, 1, m) * continuant(c, i, j) - continuant(c, 1, j) * continuant(c, i, m)
        prod = 1.0 + 0j
        for k in range(i - 1, j + 2):
            prod *= c[(k - 1) % n]
        rhs = -prod * continuant(c, 1, i - 3) * continuant(c, j + 3, m)
        worst = max(worst, abs(lhs - rhs))
    report["continuant_identity"] = worst

    # forward vs backward recurrence
    report["recurrence_agreement"] = max(
        abs(continuant(c, i, n - 3 + i) - continuant_backward(c, i, n - 3 + i))
        for i in range(1, n + 1)
    )

    # four-term dependence between consecutive closure polynomials (identity in c)
    worst = 0.0
    for i in range(1, n + 1):
        val = (
            c[(i - 2) % n] * continuant(c, i, n - 3 + i)
            + (c[(i - 1) % n] - 1.0) * continuant(c, i + 1, n - 2 + i)
            - (c[(i - 1) % n] - 1.0) * continuant(c, i + 2, n - 1 + i)
            - c[i % n] * continuant(c, i + 3, n + i)
        )
        worst = max(worst, abs(val))
    report["four_term_dependence"] = worst

    if n % 2 == 1:
        # relcont: D_{i,j-1} = K_{i,j} / (a_i .. a_j) with c_i = 1/(a_i a_{i+1})
        a = _c_to_a(CoordVector(Chart.C, c)).values
        worst = 0.0
        for i in range(1, n + 1):
            for j in range(i, i + 3):
                k2, k1 = 0.0 + 0j, 1.0 + 0j
                for t in range(i, j + 1):
                    k2, k1 = k1, a[(t - 1) % n] * k1 - k2
                denom = 1.0 + 0j
                for t in range(i, j + 1):
                    denom *= a[(t - 1) % n]
                worst = max(worst, abs(continuant(c, i, j - 1) - k1 / denom))
        report["frieze_continuant"] = worst

    if closed is None:
        closed = is_closed(c, tol)
    if closed:
        half = trace_sum(c) / 2.0
        report["extended_windows"] = max(
            max(abs(continuant(c, i, n - 1 + i) - half), abs(continuant(c, i, n - 2 + i) - half))
            for i in range(1, n + 1)
        )
        fs = trace_coefficients(c)
        report["linear_relation"] = abs(
            sum((-1.0) ** k * (n - 2 * k) * fk for k, fk in enumerate(fs))
        )
        report["parabolicity"] = abs(parabolicity_residual(c))
        if n == 5:
            report["gauss_pentagon"] = abs((sum(c) - 2.0) ** 2 - c_product(c))
    return report
