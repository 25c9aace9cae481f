"""Seeded polygon inputs owned by the benchmark.

Nothing here imports `crd`: the inputs must not change when library code
changes, so generation and the orbit-readiness screen are plain numpy.
Vertices are homogeneous pairs (num, den), one row per vertex.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Screen margin on the normalized Lax trace t = tr^2/det: |t - 4| must exceed
# this, a million times the library's parabolic tolerance Tolerances.cls = 1e-9.
SCREEN_GAP = 1e-3
# Minimal chordal distance of the pairs (i, i+1), (i, i+2) of an input polygon.
MIN_SEPARATION = 1e-3
MAX_DRAWS = 200


def jittered_polygon(rng: np.random.Generator, n: int, field: str,
                     arc: float = 2.0 * np.pi) -> np.ndarray:
    """Jittered equally spaced angles; roots of unity (complex) or tan(theta/2) (real).

    A real polygon on an `arc` shorter than the circle has its angles centred
    on 0, so every vertex stays within |x| <= tan(arc / 4).
    """
    theta = arc * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    if arc < 2.0 * np.pi:
        theta -= arc * (n - 1) / (2 * n)
    if field == "complex":
        z = (1.0 + rng.uniform(-0.1, 0.1, n)) * np.exp(1j * theta)
        return np.stack([z, np.ones(n, dtype=complex)], axis=1)
    # tan(theta/2) homogeneously, so a vertex near theta = pi stays finite
    return np.stack([np.sin(theta / 2), np.cos(theta / 2)], axis=1).astype(complex)


def separation(v: np.ndarray) -> float:
    """Minimal chordal distance over the pairs (i, i+1) and (i, i+2), cyclically."""
    norms = np.linalg.norm(v, axis=1)
    worst = math.inf
    for shift in (1, 2):
        w = np.roll(v, -shift, axis=0)
        det = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        worst = min(worst, float(np.min(np.abs(det) / (norms * np.roll(norms, -shift)))))
    return worst


def lax_screen(v: np.ndarray, alpha: complex) -> bool:
    """True if the Lax map at lam = 1/alpha has two well separated fixed points,
    both real when the polygon and alpha are real.

    The product A(p_n, p_1) ... A(p_1, p_2) of screw motions
    V diag(1, lam) V^-1 is rescaled at every factor; det A = lam^n is
    tracked in logarithms, because the entrywise determinant cancels.
    """
    lam = 1.0 / complex(alpha)
    n = len(v)
    a = np.eye(2, dtype=complex)
    log_scale = 0.0
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        frame = np.array([[p[0], q[0]], [p[1], q[1]]])
        a = frame @ np.diag([1.0, lam]) @ np.linalg.inv(frame) @ a
        s = float(np.max(np.abs(a)))
        a /= s
        log_scale += math.log(s)
    tr = a[0, 0] + a[1, 1]
    if tr == 0:
        return False
    # log t = log tr^2 - log det, det = lam^n / (product of the rescalings)^2
    log_t = 2.0 * np.log(tr) + 2.0 * log_scale - n * np.log(lam)
    if log_t.real > 50.0:
        return True  # |t| ~ e^50: strongly loxodromic, fixed points apart and real if A is
    t = complex(np.exp(log_t))
    if abs(t - 4.0) <= SCREEN_GAP:
        return False
    if np.all(v.imag == 0) and lam.imag == 0:
        return t.real > 4.0 + SCREEN_GAP or t.real < 0.0
    return True


def draw(rng: np.random.Generator, n: int, field: str, alpha: complex | None,
         arc: float = 2.0 * np.pi) -> np.ndarray:
    """A polygon that passes the separation check and, given alpha, the Lax screen."""
    for _ in range(MAX_DRAWS):
        v = jittered_polygon(rng, n, field, arc)
        if separation(v) > MIN_SEPARATION and (alpha is None or lax_screen(v, alpha)):
            return v
    raise RuntimeError(f"no screened polygon for n={n}, field={field}, alpha={alpha}")


def moebius_image(rng: np.random.Generator, v: np.ndarray, field: str) -> np.ndarray:
    """The polygon under a seeded mild Moebius map (a real one on the real field)."""
    for _ in range(MAX_DRAWS):
        m = np.array([[rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3)],
                      [rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.2)]], dtype=complex)
        if field == "complex":
            m += 1j * rng.uniform(-0.2, 0.2, (2, 2))
        w = v @ m.T
        w /= np.max(np.abs(w), axis=1, keepdims=True)
        if separation(w) > MIN_SEPARATION:
            return w
    raise RuntimeError("no well separated Moebius image")


def polygon_json(v: np.ndarray, field: str) -> str:
    """Closed polygon in the library's JSON schema (homogeneous vertices)."""
    verts = [{"num": [float(a.real), float(a.imag)], "den": [float(b.real), float(b.imag)]}
             for a, b in v]
    return json.dumps({"field": field, "n": len(v), "vertices": verts, "monodromy": None},
                      sort_keys=True)
