"""Command-line interface: crd integrals|relate|orbit|exceptional|loxogon|
frieze|tetrahedron|verify|render.

Exit codes: 0 success, 1 parse/usage error, 2 domain error, 3 verification
failure. All floating output uses 17 significant digits so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .continuants import trace_coefficients, c_product
from .dynamics import (
    BranchPolicy,
    OrbitState,
    RelationCount,
    alpha_related,
    exceptional_classify,
    relation_residual,
    run_renormalized,
    step,
)
from .errors import CrdError, ParseError
from .lax import integrals
from .polygon import (
    Chart,
    CoordVector,
    TwistedPolygon,
    cross_ratios,
    frieze_table,
    polygon_from_json,
    polygon_to_json,
)
from .projective import ProjectivePoint
from .render import render_svg
from .special import (
    consistent_labeling,
    cube_complete,
    labeling_report,
    make_loxogon,
    verify_loxogon,
)
from .tolerances import DEFAULT, Tolerances
from .verify import SUITES, run_suites


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _cjson(z):
    z = complex(z)
    return [z.real, z.imag]


def parse_complex(text: str, flag: str) -> complex:
    """RE or RE,IM as a complex number; anything else is a ParseError naming `flag`."""
    parts = text.split(",")
    if len(parts) <= 2:
        try:
            return complex(*(float(x) for x in parts))
        except ValueError:
            pass
    raise ParseError(f"{flag} expects RE or RE,IM, got {text!r}")


def parse_tols(items) -> Tolerances:
    tol = DEFAULT
    for item in items or []:
        if "=" not in item:
            raise ParseError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        if name not in ("deg", "cls", "scalar", "det", "rel"):
            raise ParseError(f"unknown tolerance {name!r}")
        try:
            tol = tol.with_(**{name: float(value)})
        except ValueError:
            raise ParseError(f"--tol {name} expects a number, got {value!r}") from None
    return tol


def parse_sizes(text: str) -> list:
    out = []
    try:
        for part in text.split(","):
            if ".." in part:
                lo, hi = part.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise ParseError(f"--n expects sizes like 5..12 or 6,7, got {text!r}") from None
    return out


def _load_polygon(path: str) -> TwistedPolygon:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read polygon JSON: {e}") from None
    return polygon_from_json(data)


def _write(out_path, text: str):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_integrals(args) -> int:
    tol = parse_tols(args.tol)
    p = _load_polygon(args.polygon)
    rep = integrals(p, parse_complex(args.alpha, "--alpha"), tol)
    _write(args.out, json.dumps(rep.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_relate(args) -> int:
    tol = parse_tols(args.tol)
    p = _load_polygon(args.polygon)
    alpha = parse_complex(args.alpha, "--alpha")
    rel = alpha_related(p, alpha, tol)
    partners = [polygon_to_json(q) for q in rel.partners]
    if rel.classification is RelationCount.INFINITE and rel.sampler is not None:
        import random

        rng = random.Random(args.seed)
        for _ in range(3):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q1 = ProjectivePoint.of(z)
            if min(
                abs(q1.num * v.den - v.num * q1.den) for v in p.vertices
            ) > tol.deg:
                partners.append(polygon_to_json(rel.sampler(q1)))
    out = {
        "classification": rel.classification.value,
        "residual": rel.residual,
        "branch_separation": rel.branch_separation
        if rel.branch_separation != float("inf")
        else None,
        "partners": partners,
    }
    _write(args.out, json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_orbit(args) -> int:
    tol = parse_tols(args.tol)
    p = _load_polygon(args.polygon)
    alpha = parse_complex(args.alpha, "--alpha")
    policy = BranchPolicy(args.branch)
    n = p.n
    header = ["step"]
    for i in range(1, n + 1):
        header += [f"c{i}_re", f"c{i}_im"]
    for k in range(n // 2 + 1):
        header += [f"F{k}_re", f"F{k}_im"]
    header += ["c_prod_re", "c_prod_im", "residual"]
    rows = [",".join(header)]
    base_f = []
    drift = [0.0]
    seen = set()

    def emit(state, gauge):
        if state.step in seen:  # re-gauging does not change the moduli row
            return
        seen.add(state.step)
        c = cross_ratios(state.current, tol).values
        fs = trace_coefficients(c)
        residual = 0.0
        if state.previous is not None:
            residual = relation_residual(state.previous, state.current, alpha, tol)
        cells = [str(state.step)]
        for v in c:
            cells += [_g17(v.real), _g17(v.imag)]
        for v in fs:
            cells += [_g17(v.real), _g17(v.imag)]
        prod = c_product(c)
        cells += [_g17(prod.real), _g17(prod.imag), _g17(residual)]
        rows.append(",".join(cells))
        if not base_f:
            base_f.extend(fs)
        else:
            drift[0] = max(
                drift[0],
                max(abs(a - b) / max(1.0, abs(a)) for a, b in zip(base_f, fs)),
            )

    run_renormalized(p, alpha, args.steps, policy=policy, tol=tol, on_state=emit)
    _write(args.out, "\n".join(rows) + "\n")
    sys.stderr.write(f"steps: {args.steps}  max F-drift: {_g17(drift[0])}\n")
    return 0


def cmd_exceptional(args) -> int:
    tol = parse_tols(args.tol)
    alpha = parse_complex(args.alpha, "--alpha")
    if args.c:
        vals = [parse_complex(part, "--c") for part in args.c.split(";")]
        c = CoordVector(Chart.C, vals)
    else:
        c = cross_ratios(_load_polygon(args.polygon), tol)
    rep = exceptional_classify(c, alpha)
    out = {
        "classification": rep.classification,
        "closure_residual": rep.closure_residual,
        "parabolic_residual": rep.parabolic_residual,
        "u_sum_residual": rep.u_sum_residual,
        "u_prod_residual": rep.u_prod_residual,
    }
    _write(args.out, json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_loxogon(args) -> int:
    poly = make_loxogon(args.n, args.k, args.beta)
    alpha, residual = verify_loxogon(poly, args.k)
    data = polygon_to_json(poly)
    data["loxogon"] = {"k": args.k, "alpha": _cjson(alpha), "residual": residual}
    _write(args.out, json.dumps(data, indent=2, sort_keys=True))
    return 0


def cmd_frieze(args) -> int:
    tol = parse_tols(args.tol)
    p = _load_polygon(args.polygon)
    table = frieze_table(p.normalized_closed(tol), tol)
    lines = []
    for r, row in enumerate(table):
        cells = [f"{v.real: .6f}" if abs(v.imag) < 1e-12 else f"{v: .6f}" for v in row]
        lines.append(("   " * (r % 2)) + "  ".join(c.rjust(10) for c in cells))
    text = "\n".join(lines)
    payload = {
        "rows": [[_cjson(v) for v in row] for row in table],
        "text": text,
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True))
    if not args.out:
        sys.stderr.write(text + "\n")
    return 0


def cmd_tetrahedron(args) -> int:
    tol = parse_tols(args.tol)
    pts = [ProjectivePoint.of(part if part == "inf" else parse_complex(part, "--points"))
           for part in args.points.split(";")]
    c01 = parse_complex(args.c01, "--c01")
    t = consistent_labeling(pts, c01, tol)
    rep = labeling_report(t, tol)
    out = {
        "labels": {f"c{i}{j}": _cjson(t.label(i, j)) for i in range(4) for j in range(i + 1, 4)},
        "residuals": rep,
    }
    if args.v0 is not None:
        cc = cube_complete(t, parse_complex(args.v0, "--v0"), tol)
        out["cube"] = {
            "points": [{"num": _cjson(q.num), "den": _cjson(q.den)} for q in cc["points"]],
            "face_residual": cc["face_residual"],
            "cross_ratio_residual": cc["cross_ratio_residual"],
        }
    _write(args.out, json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    names = args.suite.split(",")
    for name in names:
        if name != "all" and name not in SUITES:
            raise ParseError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    ns = parse_sizes(args.n)
    records = run_suites(names, args.seed, ns)
    ok = all(r["pass"] for r in records)
    text = json.dumps({"records": records, "pass": ok}, indent=2, sort_keys=True)
    _write(args.out, text)
    for r in records:
        sys.stderr.write(
            f"{'PASS' if r['pass'] else 'FAIL'} {r['check']} n={r['n']} "
            f"max_residual={r['max_residual']:.3e}\n"
        )
    return 0 if ok else 3


def cmd_render(args) -> int:
    tol = parse_tols(args.tol)
    polys = [_load_polygon(args.polygon)]
    if args.alpha is not None and args.steps > 0:
        alpha = parse_complex(args.alpha, "--alpha")
        rel = alpha_related(polys[0], alpha, tol)
        if rel.classification is RelationCount.INFINITE:
            import random

            rng = random.Random(args.seed)
            for _ in range(args.steps):
                polys.append(rel.sampler(ProjectivePoint.of(
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))))
        else:
            state = OrbitState(polys[0], alpha)
            for _ in range(args.steps):
                state = step(state, tol)
                polys.append(state.current)
    _write(args.out, render_svg(polys, tol))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="crd",
                                  description="cross-ratio dynamics on ideal polygons")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, polygon=True):
        if polygon:
            p.add_argument("polygon", help="polygon JSON file")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("integrals", help="conserved quantities of a polygon")
    common(p)
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("relate", help="alpha-related partners")
    common(p)
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser("orbit", help="iterate the 2-2 dynamics, CSV trace")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--branch", default="no-backtrack",
                   choices=[b.value for b in BranchPolicy])
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("exceptional", help="fiber classification of c under alpha")
    common(p, polygon=False)
    p.add_argument("polygon", nargs="?", default=None)
    p.add_argument("--c", default=None, help="semicolon-separated c values (re[,im])")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_exceptional)

    p = sub.add_parser("loxogon", help="build an (n, k)-loxogon")
    common(p, polygon=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=cmd_loxogon)

    p = sub.add_parser("frieze", help="frieze table of a closed odd-gon")
    common(p)
    p.set_defaults(func=cmd_frieze)

    p = sub.add_parser("tetrahedron", help="consistent labeling and cube completion")
    common(p, polygon=False)
    p.add_argument("--points", required=True,
                   help="four ideal points 're,im;re,im;re,im;re,im' (or inf)")
    p.add_argument("--c01", required=True, help="edge label RE[,IM]")
    p.add_argument("--v0", default=None, help="optional cube seed RE[,IM]")
    p.set_defaults(func=cmd_tetrahedron)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, polygon=False)
    p.add_argument("--suite", default="all")
    p.add_argument("--n", default="5..9", help="sizes, e.g. 5..12 or 6,7")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="SVG in the Poincare disk")
    common(p)
    p.add_argument("--alpha", default=None)
    p.add_argument("--steps", type=int, default=0)
    p.set_defaults(func=cmd_render)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except CrdError as e:
        sys.stderr.write(f"domain error: {type(e).__name__}: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
