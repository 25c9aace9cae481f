"""The three workloads: which CLI calls make one round, and how their output is checked.

A round calls every input of the run once, in a fixed order. Every workload
draws its inputs from numpy's PCG64 seeded with (--seed, workload id), so the
same seed gives byte-identical input files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from inputs import draw, moebius_image, polygon_json

REL_TOL = 1e-9  # Tolerances.rel, the library's relation-residual tolerance
# Real integrals polygons span this arc of angles, so every vertex and every
# Moebius image vertex stays far from infinity (see README, defects).
INTEGRALS_ARC = 4.0 * np.pi / 3.0


@dataclasses.dataclass
class Job:
    label: str  # input class, e.g. "n128-real"; latencies are summarized per class
    argv: list
    n: int = 0


@dataclasses.dataclass
class Checked:
    """What one round delivered: operation counts, per-result errors, schema status."""

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    errors: list = dataclasses.field(default_factory=list)
    readable: bool = True


def _alpha_arg(alpha: complex) -> str:
    return f"--alpha={alpha.real!r},{alpha.imag!r}"


def _write(workdir: Path, name: str, text: str, files: list) -> str:
    path = workdir / name
    path.write_text(text)
    files.append(path)
    return str(path)


def _rel(a, b) -> float:
    """Largest |a - b| / max(1, |a|) over paired complex values."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))


def _pairs(values) -> np.ndarray:
    return np.array([complex(re, im) for re, im in values])


class Orbit:
    """`crd orbit --steps S --branch no-backtrack` on screened real closed polygons, alpha = 2.

    Complex-field orbits are left out: from n = 16 (alpha = 0.3+0.2i) and
    n = 64 (alpha = -1) their branch-1 partners miss the relation tolerance
    (ROADMAP item 1), and no operation of a workload may fail. A traced run
    measures that defect on a probe orbit instead.
    """

    name, wid = "orbit", 1
    alpha = 2.0 + 0j
    probe_alpha = -1.0 + 0j

    def __init__(self, tiny: bool):
        self.sizes = (8, 12) if tiny else (32, 128)
        self.small_count = 2 if tiny else 8
        self.steps = 5 if tiny else 100

    def _argv(self, path: str, alpha: complex) -> list:
        return ["orbit", path, _alpha_arg(alpha), "--steps", str(self.steps),
                "--branch", "no-backtrack"]

    def _job(self, rng, workdir: Path, files: list, n: int, copy: int) -> Job:
        v = draw(rng, n, "real", self.alpha)
        path = _write(workdir, f"orbit-n{n}-{copy}.json", polygon_json(v, "real"), files)
        return Job(f"n{n}-real", self._argv(path, self.alpha), n)

    def prepare(self, rng, workdir: Path, files: list) -> list:
        small_n, big_n = self.sizes
        # Several small polygons average out their seed-dependent cost
        # and keep the median call among the small calls.
        small = [self._job(rng, workdir, files, small_n, k) for k in range(self.small_count)]
        big = self._job(rng, workdir, files, big_n, 0)
        v = draw(rng, big_n, "complex", self.probe_alpha)
        path = _write(workdir, "orbit-probe.json", polygon_json(v, "complex"), files)
        self.probe = Job("probe", self._argv(path, self.probe_alpha), big_n)
        half = len(small) // 2
        return small[:half] + [big] + small[half:]

    def warmups(self, jobs: list) -> list:
        first = {}
        for job in jobs:
            first.setdefault(job.n, job.argv[:3] + ["--steps", "2"] + job.argv[5:])
        return list(first.values())

    def _rows(self, job: Job, out: str):
        """The CSV as an array (steps + 1 rows), or None if its shape is wrong."""
        lines = out.strip().split("\n")
        width = 1 + 2 * job.n + 2 * (job.n // 2 + 1) + 3
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        if rows.shape != (self.steps + 1, width) or len(lines[0].split(",")) != width:
            return None
        return rows

    def check(self, jobs: list, outputs: list) -> Checked:
        res = Checked()
        for job, (rc, out) in zip(jobs, outputs):
            res.attempted += self.steps
            rows = self._rows(job, out) if rc == 0 else None
            if rows is None:  # no CSV is written when the orbit stops: every step is missing
                res.failed += self.steps
                res.readable &= rc == 2
                continue
            n = job.n
            c = rows[:, 1:1 + 2 * n:2] + 1j * rows[:, 2:2 + 2 * n:2]
            f1, prod = c.sum(axis=1), c.prod(axis=1)
            f1_col = rows[:, 2 * n + 3] + 1j * rows[:, 2 * n + 4]
            prod_col = rows[:, -3] + 1j * rows[:, -2]
            res.readable &= _rel(f1, f1_col) <= REL_TOL and _rel(prod, prod_col) <= REL_TOL
            res.failed += int(np.sum(rows[1:, -1] > REL_TOL))
            res.ops += self.steps
            res.errors.append(max(_rel(np.full_like(f1, f1[0]), f1),
                                  _rel(np.full_like(prod, prod[0]), prod)))
        return res

    def probe_defect(self, call) -> float:
        """Steps of the complex probe orbit that miss the relation tolerance or are missing."""
        rc, out = call(self.probe.argv)
        rows = self._rows(self.probe, out) if rc == 0 else None
        return float(self.steps if rows is None else np.sum(rows[1:, -1] > REL_TOL))


class Integrals:
    """`crd integrals` on closed polygons, each followed by a seeded Moebius image."""

    name, wid = "integrals", 2

    def __init__(self, tiny: bool):
        self.sizes = (6, 8) if tiny else (8, 16, 20)

    def prepare(self, rng, workdir: Path, files: list) -> list:
        jobs = []
        for n in self.sizes:
            for field, alpha in (("real", 2.0 + 0j), ("complex", 0.3 + 0.2j)):
                v = draw(rng, n, field, None, INTEGRALS_ARC)
                for k, w in enumerate((v, moebius_image(rng, v, field))):
                    path = _write(workdir, f"integrals-n{n}-{field}-{k}.json", polygon_json(w, field), files)
                    jobs.append(Job(f"n{n}-{field}", ["integrals", path, _alpha_arg(alpha)], n))
        return jobs

    def warmups(self, jobs: list) -> list:
        return [job.argv for job in jobs[::2]]

    def check(self, jobs: list, outputs: list) -> Checked:
        res = Checked()
        reports = []
        for rc, out in outputs:
            res.readable &= rc in (0, 2)  # 2 is a domain error, reported by the CLI
            try:
                reports.append(json.loads(out) if rc == 0 else None)
            except json.JSONDecodeError:
                reports.append(None)
                res.readable = False
        for a, b in zip(reports[::2], reports[1::2]):
            ok = [r is not None and r["G"] is not None and r["G"][0] == [2.0, 0.0] for r in (a, b)]
            res.attempted += 2
            res.ops += 2  # a call that ends in a domain error is completed, and failed
            if not all(ok):
                res.failed += ok.count(False)
                continue
            err = max(_rel(_pairs(a[k]), _pairs(b[k])) for k in ("F", "G"))
            err = max(err, *(_rel(_pairs([a[k]]), _pairs([b[k]])) for k in ("c_prod", "E_alpha")))
            res.errors.append(err)
            if err > REL_TOL:
                res.failed += 2
        return res


class Verify:
    """Per verify seed drawn from --seed: `crd verify --suite all --n 5`, then the
    suites other than conservation at n = 6..9.

    The conservation suite stops at n = 5 and the perimeter suite at n = 9:
    above, their records fail on some seeds (see README, defects), and no
    operation of a workload may fail.
    """

    name, wid = "verify", 3
    # exceptional and appendix do not depend on n and already ran in the n = 5 call
    others = "lax,monodromy,bianchi,poisson,rigidity,perimeter"

    def __init__(self, tiny: bool):
        self.sizes = "6" if tiny else "6..9"
        self.count = 1 if tiny else 6

    def prepare(self, rng, workdir: Path, files: list) -> list:
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, self.count)]
        _write(workdir, "verify-seeds.json", json.dumps(seeds), files)
        return [job for s in seeds for job in (
            Job("all-n5", ["verify", "--suite", "all", "--n", "5", "--seed", str(s)]),
            Job(f"others-n{self.sizes}",
                ["verify", "--suite", self.others, "--n", self.sizes, "--seed", str(s)]))]

    def warmups(self, jobs: list) -> list:
        return [jobs[0].argv]

    def check(self, jobs: list, outputs: list) -> Checked:
        res = Checked()
        for rc, out in outputs:
            try:
                records = json.loads(out)["records"] if rc in (0, 3) else None
            except (json.JSONDecodeError, KeyError):
                records = None
            if not records:
                res.attempted += 1
                res.failed += 1
                res.readable = False
                continue
            res.attempted += len(records)
            res.ops += len(records)
            res.failed += sum(not r["pass"] for r in records)
            res.errors.extend(r["max_residual"] for r in records)
        return res


WORKLOADS = {w.name: w for w in (Orbit, Integrals, Verify)}


def accuracy_decades(errors: list) -> float:
    """Mean over results of -log10(relative error), errors floored at machine
    epsilon; 0 when no result was checked."""
    eps = np.finfo(float).eps
    return float(np.mean([-math.log10(max(e, eps)) for e in errors])) if errors else 0.0
