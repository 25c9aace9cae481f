"""Closed and twisted ideal polygons, coordinate charts, frieze lifts.

Vertices are stored as one period p_1..p_n (array slot j holds p_{j+1});
any out-of-period index is reached by pushing through the monodromy, never by
silent wrap-around. All public indices follow the 1-based cyclic convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from .errors import (
    ChartDomainViolation,
    DegenerateCoordinates,
    DegeneratePolygon,
    EvenN,
    EvenNForAChart,
    ParseError,
    SingularMatrix,
)
from .projective import (
    IDENTITY,
    INFINITY,
    Matrix2,
    ProjectivePoint,
    ZERO,
    chordal,
    classify,
    cross_ratio,
    MoebiusKind,
)
from .tolerances import DEFAULT, Tolerances


class Chart(Enum):
    C = "c"
    X = "x"
    U = "u"
    A = "a"
    FRIEZE_X = "frieze-x"


@dataclass(frozen=True)
class CoordVector:
    """n moduli coordinates in one chart (n-3 of them for FRIEZE_X)."""

    chart: Chart
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @property
    def n(self) -> int:
        if self.chart is Chart.FRIEZE_X:
            return len(self.values) + 3
        return len(self.values)

    def validate(self):
        bad = {
            Chart.C: lambda z: z == 0,
            Chart.X: lambda z: z == 0 or z == 1,
            Chart.U: lambda z: z == 0 or z == -1,
            Chart.A: lambda z: z == 0,
            Chart.FRIEZE_X: lambda z: z == 0,
        }[self.chart]
        if any(bad(v) for v in self.values):
            raise ChartDomainViolation(f"value outside the {self.chart.value}-chart domain")
        return self


def _field_of(values, explicit=None) -> str:
    if explicit is not None:
        return explicit
    return "real" if all(abs(complex(v).imag) == 0 for v in values) else "complex"


@dataclass(frozen=True)
class TwistedPolygon:
    """One period of an ideal twisted n-gon plus a monodromy representative."""

    vertices: tuple
    monodromy: Matrix2
    field: str = "complex"

    def __post_init__(self):
        vs = tuple(ProjectivePoint.of(v) for v in self.vertices)
        if len(vs) < 3:
            raise DegeneratePolygon("need n >= 3 vertices")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def closed(cls, vertices, field=None) -> "TwistedPolygon":
        return cls.twisted(vertices, IDENTITY, field)

    @classmethod
    def twisted(cls, vertices, monodromy: Matrix2, field=None) -> "TwistedPolygon":
        vs = [ProjectivePoint.of(v) for v in vertices]
        f = field or ("real" if all(v.is_real() for v in vs) else "complex")
        return cls(tuple(vs), monodromy, f)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> ProjectivePoint:
        """p_i for any integer i (1-based), seam crossings via the monodromy."""
        q, r = divmod(i - 1, self.n)
        p = self.vertices[r]
        if q == 0:
            return p
        m = self.monodromy if q > 0 else self.monodromy.inverse()
        for _ in range(abs(q)):
            p = m.apply(p)
        return p

    def is_closed(self, tol: Tolerances = DEFAULT) -> bool:
        return classify(self.monodromy, tol).kind is MoebiusKind.IDENTITY

    def normalized_closed(self, tol: Tolerances = DEFAULT) -> "TwistedPolygon":
        """Same polygon with the exact identity as the monodromy representative."""
        if not self.is_closed(tol):
            raise DegeneratePolygon("polygon is not closed")
        return TwistedPolygon(self.vertices, IDENTITY, self.field)

    def separation(self) -> float:
        """Minimal chordal distance over the non-degeneracy pairs (i,i+1), (i,i+2)."""
        n = self.n
        pts = list(self.vertices) + [self.monodromy.apply(self.vertices[0]),
                                     self.monodromy.apply(self.vertices[1])]
        sep = math.inf
        for j in range(n):
            sep = min(sep, chordal(pts[j], pts[j + 1]), chordal(pts[j], pts[j + 2]))
        return sep

    def is_nondegenerate(self, tol: Tolerances = DEFAULT) -> bool:
        return self.separation() > tol.deg

    def require_nondegenerate(self, tol: Tolerances = DEFAULT) -> "TwistedPolygon":
        if not self.is_nondegenerate(tol):
            raise DegeneratePolygon(f"vertex separation {self.separation():.3e} below tolerance")
        return self


def cross_ratios(p: TwistedPolygon, tol: Tolerances = DEFAULT) -> CoordVector:
    """Moduli coordinates c_i = [p_i, p_{i+1}, p_{i-1}, p_{i+2}]."""
    p.require_nondegenerate(tol)
    vals = [
        cross_ratio(p.vertex(i), p.vertex(i + 1), p.vertex(i - 1), p.vertex(i + 2), tol)
        for i in range(1, p.n + 1)
    ]
    if any(not cmath.isfinite(v) for v in vals):
        raise DegeneratePolygon("cross-ratio at 0 or infinity")
    return CoordVector(Chart.C, tuple(vals))


def _step_matrix(c: complex) -> Matrix2:
    return Matrix2(0.0, c, -1.0, 1.0)


def reconstruct(c: CoordVector, field=None, tol: Tolerances = DEFAULT) -> TwistedPolygon:
    """Twisted polygon with the given c-coordinates in the gauge p_0, p_1, p_2 = 1, inf, 0.

    Vertices come from the partial products of the step matrices [[0, c_i], [-1, 1]]
    (the k-th product maps (1, inf, 0) to (p_k, p_{k+1}, p_{k+2})); the monodromy
    is the full product.
    """
    if c.chart is not Chart.C:
        raise ChartDomainViolation("reconstruct consumes C-chart coordinates")
    c.validate()
    n = c.n
    verts = [INFINITY, ZERO]
    m = IDENTITY
    for k in range(1, n + 1):
        m = m @ _step_matrix(c.values[k - 1])
        if k <= n - 2:
            verts.append(m.apply(ZERO))
    poly = TwistedPolygon(tuple(verts), m, _field_of(c.values, field))
    if not poly.is_nondegenerate(tol):
        raise DegenerateCoordinates("coordinates reconstruct to a degenerate polygon")
    return poly


def apply_moebius(psi: Matrix2, p: TwistedPolygon, tol: Tolerances = DEFAULT) -> TwistedPolygon:
    """Vertex-wise Moebius action; the monodromy conjugates."""
    if psi.is_singular(tol):
        raise SingularMatrix("moebius action needs an invertible matrix")
    verts = tuple(psi.apply(v) for v in p.vertices)
    mono = psi @ p.monodromy @ psi.inverse()
    field = p.field if all(v.is_real(tol) for v in verts) else "complex"
    return TwistedPolygon(verts, mono, field)


def index_shift(p: TwistedPolygon, k: int) -> TwistedPolygon:
    """p'_i = p_{i+k}; the monodromy representative is unchanged."""
    verts = tuple(p.vertex(i + k) for i in range(1, p.n + 1))
    return TwistedPolygon(verts, p.monodromy, p.field)


# --- frieze lift --------------------------------------------------------------


def lift_to_vectors(p: TwistedPolygon, tol: Tolerances = DEFAULT):
    """Lift a closed odd-gon to vectors V_i in K^2 with [V_i, V_{i+1}] = 1.

    The lift is antiperiodic, V_{i+n} = -V_i; it exists exactly when n is odd.
    Returns a list of n pairs (complex, complex).
    """
    n = p.n
    if n % 2 == 0:
        raise EvenN("the normalized antiperiodic lift needs odd n")
    if not p.is_closed(tol):
        raise DegeneratePolygon("the lift is defined for closed polygons")
    p.require_nondegenerate(tol)
    w = [(v.num, v.den) for v in p.vertices]
    d = [w[i][0] * w[(i + 1) % n][1] - w[(i + 1) % n][0] * w[i][1] for i in range(n)]
    d[n - 1] = -d[n - 1]  # seam: [V_{n-1}, V_n] with V_n = -V_0
    t = [1.0 + 0j]
    for i in range(n - 1):
        t.append(1.0 / (t[-1] * d[i]))
    s = t[n - 1] * t[0] * d[n - 1]  # closing defect, fixed by t_i -> t_i tau^(+-1)
    tau = 1.0 / cmath.sqrt(s)
    return [
        (t[i] * tau ** (1 if i % 2 == 0 else -1) * w[i][0],
         t[i] * tau ** (1 if i % 2 == 0 else -1) * w[i][1])
        for i in range(n)
    ]


def lift_det(v1, v2) -> complex:
    return v1[0] * v2[1] - v2[0] * v1[1]


def frieze_entry(vs, i: int, j: int) -> complex:
    """[V_i, V_j] for 1-based i, j, extended antiperiodically."""
    n = len(vs)

    def vec(k):
        q, r = divmod(k - 1, n)
        sgn = -1.0 if q % 2 else 1.0
        return (sgn * vs[r][0], sgn * vs[r][1])

    return lift_det(vec(i), vec(j))


def frieze_table(p: TwistedPolygon, tol: Tolerances = DEFAULT):
    """Rows r = 0..n of the frieze [V_i, V_{i+r}], i = 1..n (zeros, ones, ..., zeros)."""
    vs = lift_to_vectors(p, tol)
    n = len(vs)
    return [[frieze_entry(vs, i, i + r) for i in range(1, n + 1)] for r in range(0, n + 1)]


# --- chart conversions ---------------------------------------------------------


def _c_to_a(c: CoordVector) -> CoordVector:
    n = c.n
    if n % 2 == 0:
        raise EvenNForAChart("the a-chart needs odd n")
    prod = 1.0 + 0j
    for v in c.values:
        prod *= v
    s = cmath.sqrt(prod)
    a = []
    for i in range(1, n + 1):
        num = 1.0 + 0j
        for k in range(i + 1, i + n - 1, 2):  # c_{i+1} c_{i+3} ... c_{i+n-2}
            num *= c.values[(k - 1) % n]
        a.append(num / s)
    return CoordVector(Chart.A, tuple(a))


def _a_to_c(a: CoordVector) -> CoordVector:
    n = a.n
    if n % 2 == 0:
        raise EvenNForAChart("the a-chart needs odd n")
    vals = [1.0 / (a.values[i] * a.values[(i + 1) % n]) for i in range(n)]
    return CoordVector(Chart.C, tuple(vals))


def _x_to_u(x: CoordVector) -> CoordVector:
    return CoordVector(Chart.U, tuple(1.0 / v - 1.0 for v in x.values))


def _u_to_x(u: CoordVector) -> CoordVector:
    return CoordVector(Chart.X, tuple(1.0 / (1.0 + v) for v in u.values))


def _fx_boundary(values, n):
    """Diagonal frieze coordinates extended by x_{-1} = x_{n-1} = 0, x_0 = x_{n-2} = 1."""

    def x(i):
        if i == -1 or i == n - 1:
            return 0.0 + 0j
        if i == 0 or i == n - 2:
            return 1.0 + 0j
        return values[i - 1]

    return x


def _friezex_to_u(fx: CoordVector) -> CoordVector:
    n = fx.n
    x = _fx_boundary(fx.values, n)
    return CoordVector(Chart.U, tuple(x(i - 2) / x(i) for i in range(2, n - 1)))


def _friezex_to_a(fx: CoordVector) -> CoordVector:
    n = fx.n
    x = _fx_boundary(fx.values, n)
    a = [(x(i - 2) + x(i)) / x(i - 1) for i in range(1, n)]
    a.append(sum(1.0 / (x(k) * x(k + 1)) for k in range(0, n - 2)))
    return CoordVector(Chart.A, tuple(a))


def _friezex_to_c(fx: CoordVector) -> CoordVector:
    return _a_to_c(_friezex_to_a(fx))


def _c_to_friezex(c: CoordVector, tol: Tolerances = DEFAULT) -> CoordVector:
    n = c.n
    if n % 2 == 0:
        raise EvenNForAChart("diagonal frieze coordinates need odd n")
    poly = reconstruct(c, tol=tol)
    if not poly.is_closed(tol):
        raise ChartDomainViolation("frieze coordinates need closed-polygon data")
    vs = lift_to_vectors(poly.normalized_closed(tol), tol)
    return CoordVector(Chart.FRIEZE_X, tuple(frieze_entry(vs, j + 1, n) for j in range(1, n - 2)))


_CONVERSIONS = {
    (Chart.C, Chart.A): lambda v, tol: _c_to_a(v),
    (Chart.A, Chart.C): lambda v, tol: _a_to_c(v),
    (Chart.X, Chart.U): lambda v, tol: _x_to_u(v),
    (Chart.U, Chart.X): lambda v, tol: _u_to_x(v),
    (Chart.FRIEZE_X, Chart.U): lambda v, tol: _friezex_to_u(v),
    (Chart.FRIEZE_X, Chart.A): lambda v, tol: _friezex_to_a(v),
    (Chart.FRIEZE_X, Chart.C): lambda v, tol: _friezex_to_c(v),
    (Chart.C, Chart.FRIEZE_X): _c_to_friezex,
}


def chart_convert(v: CoordVector, target: Chart, tol: Tolerances = DEFAULT) -> CoordVector:
    if v.chart is target:
        return v
    v.validate()
    try:
        f = _CONVERSIONS[(v.chart, target)]
    except KeyError:
        raise ChartDomainViolation(
            f"no conversion {v.chart.value} -> {target.value}"
        ) from None
    return f(v, tol)


# --- JSON schema ---------------------------------------------------------------


def _c2pair(z: complex):
    return [z.real, z.imag]


def polygon_to_json(p: TwistedPolygon) -> dict:
    mono = None
    if not (p.monodromy.entries() == IDENTITY.entries()):
        mono = [_c2pair(e) for e in p.monodromy.entries()]
    return {
        "field": p.field,
        "n": p.n,
        "vertices": [{"num": _c2pair(v.num), "den": _c2pair(v.den)} for v in p.vertices],
        "monodromy": mono,
    }


def _pair2c(value) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(f"expected [re, im], got {value!r}")
    return complex(float(value[0]), float(value[1]))


def polygon_from_json(data: dict) -> TwistedPolygon:
    try:
        field = data["field"]
        n = data["n"]
        raw = data["vertices"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"polygon JSON missing field: {e}") from None
    if field not in ("real", "complex"):
        raise ParseError(f"unknown field tag {field!r}")
    if len(raw) != n:
        raise ParseError(f"n = {n} but {len(raw)} vertices given")
    verts = []
    for item in raw:
        if isinstance(item, str):
            if item != "inf":
                raise ParseError(f"unrecognized vertex literal {item!r}")
            verts.append(INFINITY)
        elif isinstance(item, dict):
            verts.append(ProjectivePoint(_pair2c(item["num"]), _pair2c(item["den"])))
        elif isinstance(item, (list, tuple)):
            verts.append(ProjectivePoint.of(_pair2c(item)))
        elif isinstance(item, (int, float)):
            verts.append(ProjectivePoint.of(complex(item)))
        else:
            raise ParseError(f"unrecognized vertex entry {item!r}")
    mono = data.get("monodromy")
    if mono is None:
        return TwistedPolygon(tuple(verts), IDENTITY, field)
    if len(mono) != 4:
        raise ParseError("monodromy needs 4 entries (row-major)")
    m = Matrix2(*(_pair2c(e) for e in mono))
    return TwistedPolygon(tuple(verts), m, field)
