"""Lax spectra, the two integral families, axis, presymplectic form."""

import cmath
import math

import numpy as np
import pytest

from crd.continuants import c_product, cyclic_sparse_subsets, trace_coefficients
from crd.dynamics import xi_field
from crd.errors import OddN
from crd.lax import (
    alternating_perimeter,
    axis,
    lax_normalized_trace,
    e_alpha,
    g_coefficients,
    g_from_f,
    ijk,
    integrals,
    lax_matrix,
    presymplectic_eval,
    presymplectic_kernel,
    presymplectic_matrix,
    trace_polynomial_value,
)
from crd.polygon import TwistedPolygon, apply_moebius, cross_ratios, index_shift
from crd.projective import Matrix2, ProjectivePoint, chordal, det2


def unit_circle_samples(count):
    return [cmath.exp(2j * math.pi * (k + 0.21) / count) for k in range(count)]


def g_by_enumeration(p):
    """G_k by their definition: one term per cyclically sparse k-subset
    (Lucas-number many), so only usable as an oracle for small n."""
    n = p.n
    reps = {i: p.vertex(i) for i in range(1, n + 2)}

    def d(i, j):
        return det2(reps[i], reps[j])

    out = [2.0 + 0j]
    for k in range(1, n // 2 + 1):
        total = 0.0 + 0j
        for sub in cyclic_sparse_subsets(n, k):
            idx = sorted(sub)
            num = d(idx[0], idx[-1] + 1)
            for s in range(1, k):
                num *= d(idx[s], idx[s - 1] + 1)
            den = 1.0 + 0j
            for i in idx:
                den *= d(i, i + 1)
            total += num / den
        out.append(total)
    return out


def g_reference_mp(p, dps=60):
    """G_k to `dps` digits, independently of the chain sum: the trace of the
    product of the steps [[0, lam c_i], [-1, 1]] is sum_k (-1)^k F_k lam^k,
    and its Taylor shift to lam = 1 + mu, over sqrt(c_[n]), is sum_l G_l mu^l
    (g_from_f's formula, which cancels too much in floating point)."""
    mp = pytest.importorskip("mpmath")
    n = p.n
    with mp.workdps(dps):
        vs = [(mp.mpc(v.num), mp.mpc(v.den)) for v in p.vertices]

        def d(i, j):
            a, b = vs[i % n], vs[j % n]
            return a[0] * b[1] - b[0] * a[1]

        c = [d(i, i - 1) * d(i + 1, i + 2) / (d(i, i + 2) * d(i + 1, i - 1)) for i in range(n)]
        zero = mp.mpc(0)

        def add(u, v):
            return [(u[t] if t < len(u) else zero) + (v[t] if t < len(v) else zero)
                    for t in range(max(len(u), len(v)))]

        # entries of the running product as coefficient lists in lam;
        # a row [x, y] times [[0, lam c], [-1, 1]] is [-y, lam c x + y]
        m = [[[mp.mpc(1)], []], [[], [mp.mpc(1)]]]
        for ci in c:
            for row in m:
                row[0], row[1] = [-a for a in row[1]], add([zero] + [ci * a for a in row[0]], row[1])
        trace = add(add(m[0][0], m[1][1]), [zero] * (n // 2 + 1))
        root = mp.sqrt(mp.fprod(c))
        g = [mp.fsum(mp.binomial(k, l) * trace[k] for k in range(l, n // 2 + 1)) / root
             for l in range(n // 2 + 1)]
        if abs(g[0] - 2) > abs(g[0] + 2):
            g = [-x for x in g]
        return [complex(x) for x in g]


def full_circle_real(n, seed=0):
    """Real closed n-gon with jittered angles all the way round RP^1, written
    homogeneously as (sin t/2, cos t/2) so a vertex at infinity is harmless."""
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    return TwistedPolygon.closed(
        [ProjectivePoint(math.sin(t / 2), math.cos(t / 2)) for t in theta], field="real")


def max_rel_error(g, ref):
    return max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(g, ref))


class TestLaxMatrix:
    def test_closed_at_one_is_scalar(self, make_closed):
        p = make_closed(6)
        a = lax_matrix(p, 1.0)
        assert a.is_scalar()

    def test_trace_polynomial(self, make_closed, make_twisted):
        for p in (make_closed(7), make_twisted(6)):
            c = cross_ratios(p).values
            for lam in unit_circle_samples(p.n // 2 + 3):
                lhs = lax_normalized_trace(p, lam)
                rhs = trace_polynomial_value(c, lam)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_determinant(self, make_twisted):
        p = make_twisted(5)
        lam = 0.6 - 0.8j
        a = lax_matrix(p, lam)
        expect = lam ** p.n / p.monodromy.det()
        assert abs(a.det() - expect) < 1e-9 * max(1.0, abs(expect))

    def test_shift_invariance_of_spectrum(self, make_closed):
        p = make_closed(8)
        lam = 1.4 + 0.3j
        a = lax_matrix(p, lam).normalized_trace()
        b = lax_matrix(index_shift(p, 3), lam).normalized_trace()
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


class TestGCoefficients:
    def test_g0_g1(self, make_closed):
        g = g_coefficients(make_closed(9))
        assert g[0] == 2.0
        assert abs(g[1] - 9.0) < 1e-10

    def test_trace_expansion(self, make_closed):
        p = make_closed(7)
        g = g_coefficients(p)
        for lam in (1.3, 0.6 + 0.8j, -0.4 + 0.2j):
            lhs = lax_matrix(p, lam).trace()
            rhs = sum(g[k] * (lam - 1.0) ** k for k in range(len(g)))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_binomial_transform(self, make_closed):
        p = make_closed(8)
        c = cross_ratios(p).values
        g = g_coefficients(p)
        g2 = g_from_f(trace_coefficients(c), c_product(c))
        assert max(abs(a - b) for a, b in zip(g, g2)) < 1e-9
        # F_l = sqrt(c) sum_k (-1)^k C(k, l) G_k on the matching branch
        s = None
        fs = trace_coefficients(c)
        for sign in (1.0, -1.0):
            root = sign * cmath.sqrt(c_product(c))
            val = root * sum(
                (-1.0) ** k * math.comb(k, 1) * g[k] for k in range(1, len(g))
            )
            if abs(val - fs[1]) < 1e-9 * max(1.0, abs(fs[1])):
                s = sign
        assert s is not None

    def test_moebius_invariance(self, make_closed):
        p = make_closed(7)
        psi = Matrix2(1.1, 0.2 - 0.3j, 0.1j, 0.9)
        g1 = g_coefficients(p)
        g2 = g_coefficients(apply_moebius(psi, p).normalized_closed())
        assert max(abs(a - b) for a, b in zip(g1, g2)) < 1e-9

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_enumeration(self, make_closed, field):
        for n in range(4, 17):
            p = make_closed(n, field)
            ref = g_by_enumeration(p)
            g = g_coefficients(p)
            assert len(g) == len(ref)
            assert max(abs(a - b) / abs(b) for a, b in zip(g, ref)) <= 1e-13, n

    def test_infinite_vertex(self):
        p = TwistedPolygon.closed([0.0, 1.0, 2.5, "inf", -3.0, -1.0, -0.4])
        assert max_rel_error(g_coefficients(p), g_by_enumeration(p)) <= 1e-13

    def test_twisted_matches_enumeration(self, make_twisted):
        # p_{n+1} = M p_1 differs from p_1, so the pair (1, n) is really excluded
        for n in (8, 9):
            p = make_twisted(n)
            assert max_rel_error(g_coefficients(p), g_by_enumeration(p)) <= 1e-13


@pytest.fixture(params=[("complex", 32), ("real", 32), ("complex", 64), ("real", 64)],
                ids=lambda fn: f"{fn[0]}{fn[1]}")
def large_closed(request, make_closed):
    field, n = request.param
    return make_closed(n) if field == "complex" else full_circle_real(n, seed=n)


class TestGLargeN:
    def test_trace_expansion(self, large_closed):
        # tr A_lam = sum_k G_k (lam - 1)^k, independent of any G formula
        g = g_coefficients(large_closed)
        for lam in (1.05, 1 + 0.04j, 0.97 - 0.02j):
            lhs = lax_matrix(large_closed, lam).trace()
            terms = [gk * (lam - 1.0) ** k for k, gk in enumerate(g)]
            assert abs(lhs - sum(terms)) <= 1e-13 * sum(abs(t) for t in terms)

    def test_mpmath_reference(self, large_closed):
        ref = g_reference_mp(large_closed)
        assert max_rel_error(g_coefficients(large_closed), ref) <= 1e-13

    def test_g_from_f_usable_range(self, make_closed):
        # the binomial transform cancels; its docstring promises 1e-9 up to n = 16
        p = make_closed(16)
        c = cross_ratios(p).values
        g = g_from_f(trace_coefficients(c), c_product(c))
        assert max_rel_error(g, g_reference_mp(p)) <= 1e-9


class TestRestrictionRelations:
    def test_closed_relations(self, make_closed):
        # sum (-1)^k F_k = 2 sqrt(c_[n]) and sum (-1)^k (n - 2k) F_k = 0
        p = make_closed(9)
        c = cross_ratios(p).values
        fs = trace_coefficients(c)
        t = sum((-1.0) ** k * fs[k] for k in range(len(fs)))
        assert abs(t * t - 4.0 * c_product(c)) < 1e-9
        lin = sum((-1.0) ** k * (9 - 2 * k) * fs[k] for k in range(len(fs)))
        assert abs(lin) < 1e-9


class TestAlternatingPerimeter:
    def test_square_symmetry(self):
        p = TwistedPolygon.closed([1.0, 1j, -1.0, -1j])
        a = alternating_perimeter(p)
        assert abs(a) == pytest.approx(1.0)
        assert abs(a * (1.0 / a) - 1.0) < 1e-14

    def test_squared_ratio(self, make_closed):
        p = make_closed(8)
        c = cross_ratios(p).values
        ratio = 1.0 + 0j
        for i in range(8):
            ratio = ratio * c[i] if (i + 1) % 2 == 0 else ratio / c[i]
        assert abs(alternating_perimeter(p) ** 2 - ratio) < 1e-9

    def test_middle_g(self, make_closed):
        p = make_closed(6)
        a = alternating_perimeter(p)
        g = g_coefficients(p)
        assert abs(g[3] - (a + 1.0 / a)) < 1e-9

    def test_related_pair_product(self, make_pair):
        p, q = make_pair(6, 0.8 + 0.5j)
        assert abs(alternating_perimeter(p) * alternating_perimeter(q) - 1.0) < 1e-9

    def test_odd_rejected(self, make_closed):
        with pytest.raises(OddN):
            alternating_perimeter(make_closed(7))


class TestIJK:
    def test_square_values(self):
        # hand evaluation of the three sums on (1, i, -1, -i):
        # I = 0, J = 2i, K = 0
        p = TwistedPolygon.closed([1.0, 1j, -1.0, -1j])
        i_s, j_s, k_s, gauge = ijk(p)
        assert gauge is None
        assert abs(i_s) < 1e-14
        assert abs(j_s - 2j) < 1e-14
        assert abs(k_s) < 1e-14

    def test_ik_minus_j_squared_relation(self, make_closed):
        # corrected closed-form: IK - J^2 = n^2/4 - n/2 - G_2
        #                                = (1/2) sum_{i != j} [p_i, p_{j+1}, p_j, p_{i+1}] - n^2/4
        for n in (4, 6, 9):
            p = make_closed(n)
            i_s, j_s, k_s, _ = ijk(p, auto_gauge=False)
            g2 = g_coefficients(p)[2]
            lhs = i_s * k_s - j_s * j_s
            assert abs(lhs - (n * n / 4.0 - n / 2.0 - g2)) < 1e-8 * max(1.0, abs(lhs))
            z = [v.affine() for v in p.vertices]
            from crd.projective import cross_ratio

            total = 0.0 + 0j
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    total += cross_ratio(
                        z[i], z[(j + 1) % n], z[j], z[(i + 1) % n]
                    )
            assert abs(lhs - (0.5 * total - n * n / 4.0)) < 1e-8 * max(1.0, abs(lhs))

    def test_ik_minus_j_squared_invariance(self, make_pair):
        p, q = make_pair(7, 0.6 + 0.4j)
        def quad(poly):
            i_s, j_s, k_s, _ = ijk(poly, auto_gauge=False)
            return i_s * k_s - j_s * j_s
        assert abs(quad(p) - quad(q)) < 1e-8 * max(1.0, abs(quad(p)))
        psi = Matrix2(1.2, 0.4 - 0.1j, 0.2j, 0.8)
        assert abs(quad(p) - quad(apply_moebius(psi, p))) < 1e-7 * max(1.0, abs(quad(p)))

    def test_gauge_reported_for_infinite_vertex(self):
        p = TwistedPolygon.closed([0.0, 1.0, "inf", -1.0])
        i_s, j_s, k_s, gauge = ijk(p)
        assert gauge is not None
        # the first listed rotation with a 0.05 margin is kept
        assert gauge.entrywise_distance(Matrix2(math.cos(0.37), -math.sin(0.37),
                                                math.sin(0.37), math.cos(0.37))) == 0.0

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_gauge_for_dense_full_circle(self, n):
        # no listed rotation clears 0.05 here; the widest-gap rotation must,
        # and the gauge-invariant IK - J^2 = n^2/4 - n/2 - G_2 must hold in it
        p = full_circle_real(n, seed=n)
        i_s, j_s, k_s, gauge = ijk(p)
        assert gauge is not None
        # the margin min |den| is within 10 % of the best over a fine grid of rotations
        num = np.array([v.num for v in p.vertices])
        den = np.array([v.den for v in p.vertices])
        t = np.linspace(0.0, np.pi, 4001)[:, None]
        rot_num = np.cos(t) * num - np.sin(t) * den
        rot_den = np.sin(t) * num + np.cos(t) * den
        best = np.max(np.min(np.abs(rot_den) / np.maximum(np.abs(rot_num), np.abs(rot_den)), axis=1))
        assert min(abs(gauge.apply(v).den) for v in p.vertices) >= 0.9 * best
        lhs = i_s * k_s - j_s * j_s
        rhs = n * n / 4.0 - n / 2.0 - g_coefficients(p)[2]
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


class TestAxis:
    def test_symmetric_quadrilateral(self):
        z, w = 1.3 + 0.4j, -0.2 + 1.1j
        p = TwistedPolygon.closed([z, w, -z, -w])
        pts, degenerate = axis(p)
        assert not degenerate
        vals = sorted(abs(q.affine()) if not q.is_infinity else math.inf for q in pts)
        assert vals[0] < 1e-10 and vals[1] == math.inf

    def test_invariance_under_relation(self, make_pair):
        p, q = make_pair(6, 0.7 + 0.3j)
        a1, _ = axis(p)
        a2, _ = axis(q)
        d = min(
            max(chordal(a1[0], a2[0]), chordal(a1[1], a2[1])),
            max(chordal(a1[0], a2[1]), chordal(a1[1], a2[0])),
        )
        assert d < 1e-8

    def test_equivariance(self, make_closed):
        p = make_closed(7)
        psi = Matrix2(0.9, 0.2 + 0.1j, -0.15j, 1.05)
        a1, _ = axis(p)
        a2, _ = axis(apply_moebius(psi, p).normalized_closed())
        mapped = tuple(psi.apply(q) for q in a1)
        d = min(
            max(chordal(mapped[0], a2[0]), chordal(mapped[1], a2[1])),
            max(chordal(mapped[0], a2[1]), chordal(mapped[1], a2[0])),
        )
        assert d < 1e-8


class TestPresymplectic:
    def test_antisymmetry(self, make_closed, rng):
        p = make_closed(6)
        v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
        assert abs(presymplectic_eval(p, v, v)) < 1e-14

    def test_odd_kernel(self, make_closed):
        p = make_closed(7)
        v = xi_field(p)
        m = presymplectic_matrix(p)
        assert np.abs(m @ np.array(v)).max() < 1e-10 * max(1.0, np.abs(m).max())

    def test_even_full_rank_when_perimeter_not_one(self, make_closed):
        p = make_closed(6)
        if abs(alternating_perimeter(p) - 1.0) < 1e-6:
            return
        m = presymplectic_matrix(p)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]
        assert presymplectic_kernel(p) is None


class TestIntegralReport:
    def test_closed_report(self, make_closed):
        p = make_closed(6)
        rep = integrals(p, -1.0 + 0j)
        assert rep.G is not None and rep.IJK is not None
        assert rep.alt_perimeter is not None
        assert abs(rep.E_alpha - e_alpha(cross_ratios(p).values, -1.0)) < 1e-12
        data = rep.to_json()
        assert set(data) >= {"F", "G", "c_prod", "E_alpha", "alt_perimeter", "IJK", "axis"}

    def test_twisted_report(self, make_twisted):
        rep = integrals(make_twisted(7), 2.0 + 0j)
        assert rep.G is None and rep.IJK is None and rep.alt_perimeter is None
