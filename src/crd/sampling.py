"""Seeded random polygon and coordinate generators shared by the CLI, the
verification suites, and the test-bench."""

from __future__ import annotations

import cmath
import math
import random
from .dynamics import RelationCount, alpha_related
from .errors import NoOrbitReadyPolygon
from .polygon import TwistedPolygon
from .projective import Matrix2
from .tolerances import DEFAULT, Tolerances


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def random_closed_polygon(rng: random.Random, n: int, field: str = "complex",
                          tol: Tolerances = DEFAULT) -> TwistedPolygon:
    """Boundary-ordered ideal n-gon with comfortable vertex separation."""
    while True:
        if field == "real":
            angs = sorted(rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05) for _ in range(n))
            if min(b - a for a, b in zip(angs, angs[1:])) < 0.5 / n:
                continue
            p = TwistedPolygon.closed([math.tan(a) for a in angs], field="real")
        else:
            zs = [
                cmath.exp(1j * (2 * math.pi * j / n + rng.uniform(-0.3, 0.3)))
                * (1.0 + rng.uniform(-0.2, 0.2))
                for j in range(n)
            ]
            p = TwistedPolygon.closed(zs, field="complex")
        if p.separation() > 10 * tol.deg:
            return p


def random_twisted_polygon(rng: random.Random, n: int, field: str = "complex",
                           tol: Tolerances = DEFAULT) -> TwistedPolygon:
    """Non-degenerate twisted polygon with a random loxodromic monodromy."""
    while True:
        base = random_closed_polygon(rng, n, field, tol)
        if field == "real":
            m = Matrix2(rng.uniform(1.2, 2.0), rng.uniform(-0.3, 0.3),
                        rng.uniform(-0.3, 0.3), rng.uniform(0.5, 0.9))
        else:
            m = Matrix2(
                complex(rng.uniform(1.2, 2.0), rng.uniform(-0.2, 0.2)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)),
                complex(rng.uniform(0.5, 0.9), rng.uniform(-0.2, 0.2)),
            )
        p = TwistedPolygon.twisted(base.vertices, m, field)
        if p.separation() > 10 * tol.deg:
            return p


def random_c_vector(rng: random.Random, n: int, field: str = "complex") -> list:
    if field == "real":
        return [rng.choice((-1, 1)) * rng.uniform(0.2, 1.8) + 0j for _ in range(n)]
    return [complex(rng.uniform(0.3, 1.6), rng.uniform(-0.6, 0.6)) for _ in range(n)]


def orbit_ready_polygon(rng: random.Random, n: int, field: str, alpha: complex,
                        tol: Tolerances = DEFAULT, max_tries: int = 400) -> TwistedPolygon:
    """Closed polygon whose Lax map at 1/alpha has the two fixed points the
    dynamics needs (real ones on the real field)."""
    for _ in range(max_tries):
        p = random_closed_polygon(rng, n, field, tol)
        if alpha_related(p, alpha, tol).classification is RelationCount.TWO:
            return p
    raise NoOrbitReadyPolygon(f"no orbit-ready polygon found for n={n}, alpha={alpha}")


def random_related_pair(rng: random.Random, n: int, alpha: complex,
                        field: str = "complex", tol: Tolerances = DEFAULT):
    """(P, Q) with P ~alpha Q, drawn from random closed polygons."""
    while True:
        p = orbit_ready_polygon(rng, n, field, alpha, tol)
        rel = alpha_related(p, alpha, tol)
        for q, bad in zip(rel.partners, rel.degenerate):
            if not bad:
                return p, q


def well_conditioned_orbit_report(rng: random.Random, n: int, field: str,
                                  alpha: complex, steps: int,
                                  min_branch: float = 1e-4,
                                  min_sep: float = 1e-5,
                                  max_tries: int = 20) -> dict:
    """Conservation report of an orbit that stays clear of the parabolic locus.

    Orbits passing close to a parabolic Lax point lose fixed-point accuracy in
    proportion to the fixed-point gap (a genuine condition number, reported by
    the orbit machinery); such draws are rejected and redrawn, matching the
    all-iterations-non-degenerate hypothesis under which the conserved
    quantities are claimed.
    """
    from .dynamics import orbit_conservation_report

    last = None
    for _ in range(max_tries):
        p = orbit_ready_polygon(rng, n, field, alpha)
        rep = orbit_conservation_report(p, alpha, steps)
        last = rep
        if rep["min_branch_separation"] >= min_branch and rep["min_separation"] >= min_sep:
            return rep
    return last
