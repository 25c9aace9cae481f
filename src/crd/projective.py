"""Homogeneous arithmetic on the projective line, Moebius maps, cross-ratios.

Points of P^1 over R or C are stored as homogeneous pairs (num, den) with the
largest-modulus component divided out, so every point has a canonical
representative and infinity (1, 0) needs no special casing in formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CoincidentAxisPoints,
    DegenerateQuadruple,
    SingularMatrix,
    ZeroParameter,
)
from .tolerances import DEFAULT, Tolerances

INF = complex(math.inf, 0.0)


def is_inf_value(z: complex) -> bool:
    return cmath.isinf(z)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^1 as a canonical homogeneous pair num/den."""

    num: complex
    den: complex

    def __post_init__(self):
        n, d = complex(self.num), complex(self.den)
        if not (cmath.isfinite(n) and cmath.isfinite(d)):
            raise ValueError("homogeneous components must be finite")
        an, ad = abs(n), abs(d)
        if an == 0.0 and ad == 0.0:
            raise ValueError("(0, 0) is not a projective point")
        # canonical scaling: divide by the largest component (den preferred on
        # ties) so any representative of a point normalizes identically
        s = n if an > ad else d
        object.__setattr__(self, "num", n / s)
        object.__setattr__(self, "den", d / s)

    @classmethod
    def of(cls, value) -> "ProjectivePoint":
        """Build from an affine number, the string 'inf', or a point."""
        if isinstance(value, ProjectivePoint):
            return value
        if isinstance(value, str):
            if value == "inf":
                return cls(1.0, 0.0)
            raise ValueError(f"unrecognized point literal {value!r}")
        if value == INF or (isinstance(value, (int, float)) and math.isinf(value)):
            return cls(1.0, 0.0)
        return cls(complex(value), 1.0)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    def affine(self) -> complex:
        """Affine value num/den; INF for the point at infinity."""
        if self.den == 0:
            return INF
        return self.num / self.den

    def norm(self) -> float:
        return math.hypot(abs(self.num), abs(self.den))

    def is_real(self, tol: Tolerances = DEFAULT) -> bool:
        """True if the point lies on RP^1 (real affine value or infinity)."""
        cross = self.num * self.den.conjugate()
        return abs(cross.imag) <= tol.deg * max(abs(self.num), abs(self.den)) ** 2

    def __repr__(self):
        a = self.affine()
        return f"PP({'inf' if is_inf_value(a) else a})"


INFINITY = ProjectivePoint(1.0, 0.0)
ZERO = ProjectivePoint(0.0, 1.0)
ONE = ProjectivePoint(1.0, 1.0)


def det2(p: ProjectivePoint, q: ProjectivePoint) -> complex:
    """Determinant of the canonical representatives; vanishes iff p = q."""
    return p.num * q.den - q.num * p.den


def chordal(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Chordal distance |p x q| / (|p| |q|); a metric on P^1."""
    return abs(det2(p, q)) / (p.norm() * q.norm())


@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over C acting on P^1 as a Moebius map (row-major a b / c d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def is_singular(self, tol: Tolerances = DEFAULT) -> bool:
        s = self.scale()
        return abs(self.det()) <= tol.det * s * s

    def normalized_trace(self) -> complex:
        """tr^2/det: invariant under conjugation and scaling."""
        d = self.det()
        if d == 0:
            raise SingularMatrix("normalized trace of a singular matrix")
        t = self.trace()
        return t * t / d

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Matrix2":
        d = self.det()
        if d == 0:
            raise SingularMatrix("inverting a singular matrix")
        return Matrix2(self.d / d, -self.b / d, -self.c / d, self.a / d)

    def scalar_mul(self, s: complex) -> "Matrix2":
        return Matrix2(s * self.a, s * self.b, s * self.c, s * self.d)

    def apply(self, z: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(
            self.a * z.num + self.b * z.den,
            self.c * z.num + self.d * z.den,
        )

    def is_scalar(self, tol: Tolerances = DEFAULT) -> bool:
        s = self.scale()
        if s == 0:
            return False
        return (
            abs(self.b) <= tol.scalar * s
            and abs(self.c) <= tol.scalar * s
            and abs(self.a - self.d) <= tol.scalar * s
        )

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def entrywise_distance(self, other: "Matrix2") -> float:
        return max(abs(x - y) for x, y in zip(self.entries(), other.entries()))

    def projective_distance(self, other: "Matrix2") -> float:
        """Entrywise distance after best scalar alignment (PGL comparison)."""
        num = sum(x * y.conjugate() for x, y in zip(other.entries(), self.entries()))
        den = sum(abs(x) ** 2 for x in self.entries())
        s = num / den if den else 1.0
        return max(abs(s * x - y) for x, y in zip(self.entries(), other.entries())) / max(
            other.scale(), 1e-300
        )


IDENTITY = Matrix2.identity()


def normalized_trace(m: Matrix2) -> complex:
    return m.normalized_trace()


def cross_ratio(z1, z2, z3, z4, tol: Tolerances = DEFAULT) -> complex:
    """[z1,z2,z3,z4] = (z1-z3)(z2-z4) / ((z1-z4)(z2-z3)), computed homogeneously.

    Returns INF when z1=z4 or z2=z3 (and the numerator does not vanish);
    raises DegenerateQuadruple when three of the four points coincide.
    """
    z1, z2, z3, z4 = (ProjectivePoint.of(z) for z in (z1, z2, z3, z4))
    num = det2(z1, z3) * det2(z2, z4)
    den = det2(z1, z4) * det2(z2, z3)
    if abs(den) == 0.0 or abs(num) == 0.0:
        pts = (z1, z2, z3, z4)
        for i in range(4):
            close = sum(1 for j in range(4) if chordal(pts[i], pts[j]) <= tol.deg)
            if close >= 3:
                raise DegenerateQuadruple("three or more coincident points")
        if abs(den) == 0.0:
            return INF
    return num / den


def loxodromic_matrix(p, q, lam: complex, tol: Tolerances = DEFAULT) -> Matrix2:
    """GL(2) representative of the screw motion with axis pq and parameter lam.

    Built homogeneously as V diag(1, lam) V^-1 with the homogeneous pairs of p
    and q as columns of V; fixes p with eigenvalue 1 and q with eigenvalue lam,
    det = lam, and reproduces the affine-chart matrix
    [[p - q lam, pq(lam-1)], [1 - lam, p lam - q]] / (p - q).
    """
    p, q = ProjectivePoint.of(p), ProjectivePoint.of(q)
    if chordal(p, q) <= tol.deg:
        raise CoincidentAxisPoints("loxodromic axis needs two distinct points")
    lam = complex(lam)
    if lam == 0:
        raise ZeroParameter("loxodromic parameter must be nonzero")
    dv = det2(p, q)
    # V diag(1, lam) adj(V) / det(V)
    return Matrix2(
        (p.num * q.den - lam * q.num * p.den) / dv,
        (lam - 1.0) * p.num * q.num / dv,
        (1.0 - lam) * p.den * q.den / dv,
        (lam * p.num * q.den - q.num * p.den) / dv,
    )


class MoebiusKind(Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class MoebiusClass:
    kind: MoebiusKind
    fixed_points: tuple  # 0, 1 or 2 ProjectivePoints
    eigenvalue_ratio: complex  # 1 except for LOXODROMIC (larger/smaller modulus)


def _eigvec(m: Matrix2, mu: complex) -> ProjectivePoint:
    """Null direction of (m - mu I), choosing the better-conditioned column."""
    r1 = (m.b, mu - m.a)
    r2 = (mu - m.d, m.c)
    v = r1 if max(abs(r1[0]), abs(r1[1])) >= max(abs(r2[0]), abs(r2[1])) else r2
    return ProjectivePoint(v[0], v[1])


def _lex_key(p: ProjectivePoint):
    return (p.num.real, p.num.imag, p.den.real, p.den.imag)


def classify(m: Matrix2, tol: Tolerances = DEFAULT, det: complex | None = None) -> MoebiusClass:
    """Classify a Moebius map by its fixed points.

    Loxodromic fixed points come eigenvalue-of-larger-modulus first, ties
    broken lexicographically on the canonical homogeneous components.
    Callers that know the determinant analytically (e.g. Lax products, where
    ad - bc cancels catastrophically) may pass it as `det`.
    """
    d = m.det() if det is None else complex(det)
    if d == 0:
        raise SingularMatrix("classifying a singular matrix")
    if m.is_scalar(tol):
        return MoebiusClass(MoebiusKind.IDENTITY, (), 1.0)
    tr = m.trace()
    t = tr * tr / d
    if abs(t - 4.0) <= tol.cls:
        return MoebiusClass(MoebiusKind.PARABOLIC, (_eigvec(m, tr / 2.0),), 1.0)
    disc = cmath.sqrt(tr * tr - 4.0 * d)
    if abs(tr + disc) < abs(tr - disc):
        disc = -disc
    mu1 = (tr + disc) / 2.0  # larger-modulus root, taken without cancellation
    mu2 = d / mu1
    p1, p2 = _eigvec(m, mu1), _eigvec(m, mu2)
    if abs(mu1) == abs(mu2) and _lex_key(p1) > _lex_key(p2):
        mu1, mu2, p1, p2 = mu2, mu1, p2, p1
    return MoebiusClass(MoebiusKind.LOXODROMIC, (p1, p2), mu1 / mu2)


def complex_distance(u, v, r, s, tol: Tolerances = DEFAULT) -> complex:
    """Complex distance chi between the lines uv and rs.

    Defined by tanh^2(chi/2) = [r, s, u, v]; principal branches, and the real
    part is normalized to be >= 0 (the sign of the signed distance depends on
    an orientation of the common perpendicular we do not fix).
    """
    pts = [ProjectivePoint.of(z) for z in (u, v, r, s)]
    for i in range(4):
        for j in range(i + 1, 4):
            if chordal(pts[i], pts[j]) <= tol.deg:
                raise DegenerateQuadruple("complex distance needs 4 distinct points")
    cr = cross_ratio(pts[2], pts[3], pts[0], pts[1], tol)
    if is_inf_value(cr):
        raise DegenerateQuadruple("cross-ratio at infinity")
    chi = 2.0 * cmath.atanh(cmath.sqrt(cr))
    if chi.real < 0:
        chi = -chi
    return chi
