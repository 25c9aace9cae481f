"""Golden tests for every documented CLI invocation."""

import json
import math
import subprocess
import sys

import pytest

from crd.cli import main
from crd.polygon import TwistedPolygon, polygon_to_json


@pytest.fixture
def pentagon_file(tmp_path):
    p = TwistedPolygon.closed(
        [math.tan(math.pi * j / 5.0) for j in range(1, 6)], field="real"
    )
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(polygon_to_json(p)))
    return str(path)


@pytest.fixture
def hexagon_file(tmp_path):
    h = TwistedPolygon.closed([0.0, 1.0, 1j, "inf", -1.0, -1j])
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(polygon_to_json(h)))
    return str(path)


ALPHA_PENT = "0.1458980337503154"


class TestIntegrals:
    def test_pentagon_g1_is_five(self, pentagon_file, tmp_path):
        out = tmp_path / "ints.json"
        assert main(["integrals", pentagon_file, "--alpha", ALPHA_PENT,
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["G"][0] == [2.0, 0.0]
        assert abs(data["G"][1][0] - 5.0) < 1e-9
        assert data["alt_perimeter"] is None  # odd n

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["integrals", str(bad), "--alpha", "-1"]) == 1

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_closed_64_gon(self, tmp_path, field):
        # jittered angles all the way round: on RP^1 no listed gauge clears
        # every vertex off infinity, and G has 33 coefficients
        import random

        rng = random.Random(64)
        theta = [2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / 64 for j in range(64)]
        if field == "real":
            verts = [{"num": [math.sin(t / 2), 0.0], "den": [math.cos(t / 2), 0.0]} for t in theta]
        else:
            verts = [[math.cos(t), math.sin(t)] for t in theta]
        path = tmp_path / "p64.json"
        path.write_text(json.dumps({"field": field, "n": 64, "vertices": verts,
                                    "monodromy": None}))
        out = tmp_path / "ints.json"
        assert main(["integrals", str(path), "--alpha", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["G"]) == 33 and data["G"][0] == [2.0, 0.0]
        assert abs(data["G"][1][0] - 64.0) < 1e-9
        assert (data["ijk_gauge"] is not None) == (field == "real")

    def test_degenerate_polygon_exits_two(self, tmp_path):
        data = {"field": "real", "n": 4,
                "vertices": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                "monodromy": None}
        path = tmp_path / "degen.json"
        path.write_text(json.dumps(data))
        assert main(["integrals", str(path), "--alpha", "-1"]) == 2


class TestRelate:
    def test_hexagon_infinite(self, hexagon_file, tmp_path):
        out = tmp_path / "rel.json"
        assert main(["relate", hexagon_file, "--alpha", "-1", "--seed", "3",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["classification"] == "infinite"
        assert len(data["partners"]) == 3

    def test_chained_perimeter_product(self, tmp_path):
        import random

        from crd.sampling import random_closed_polygon

        p = random_closed_polygon(random.Random(8), 6, "complex")
        path = tmp_path / "hexa6.json"
        path.write_text(json.dumps(polygon_to_json(p)))
        out = tmp_path / "rel.json"
        assert main(["relate", str(path), "--alpha", "0.7,0.4",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["classification"] == "two"
        from crd.lax import alternating_perimeter
        from crd.polygon import polygon_from_json

        q = polygon_from_json(data["partners"][0])
        assert abs(alternating_perimeter(p) * alternating_perimeter(q) - 1.0) < 1e-9


class TestOrbit:
    def test_csv_shape_and_determinism(self, pentagon_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["orbit", pentagon_file, "--alpha", "-0.5", "--steps", "20",
                         "--branch", "no-backtrack", "--seed", "11",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert len(rows) == 22
        header = rows[0].split(",")
        assert header[0] == "step" and header[1] == "c1_re"
        assert header[-1] == "residual"


class TestExceptional:
    def test_pentagon_vector(self, tmp_path):
        c = "0.3819660112501051"
        arg = ";".join([c] * 5)
        out = tmp_path / "exc.json"
        assert main(["exceptional", "--c", arg, "--alpha", ALPHA_PENT,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["classification"] == "infinite"


class TestLoxogon:
    def test_build(self, tmp_path):
        out = tmp_path / "lox.json"
        assert main(["loxogon", "--n", "8", "--k", "3", "--beta", "0.2",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 8
        assert data["loxogon"]["residual"] < 1e-9


class TestFrieze:
    def test_pentagon_table(self, pentagon_file, tmp_path):
        out = tmp_path / "frieze.json"
        assert main(["frieze", pentagon_file, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 6
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        second = [abs(complex(*v)) for v in data["rows"][2]]
        assert max(abs(v - phi) for v in second) < 1e-9


class TestTetrahedron:
    def test_labeling_and_cube(self, tmp_path):
        out = tmp_path / "tet.json"
        assert main(["tetrahedron", "--points", "0.3,0.1;1.7,-0.4;-0.9,0.8;0.1,-1.3",
                     "--c01", "2,0.5", "--v0", "2.4,-0.7", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["residuals"]["matrix_identity"] < 1e-9
        assert data["cube"]["face_residual"] < 1e-9


class TestVerify:
    def test_bianchi_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "bianchi", "--seed", "7", "--n", "5,6",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True

    def test_poisson_suite(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "poisson", "--seed", "7", "--n", "6,7",
                     "--out", str(out)]) == 0

    def test_conservation_suite(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "conservation", "--seed", "7",
                     "--n", "5..6", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert all(r["pass"] for r in data["records"])

    def test_unknown_suite_exits_one(self):
        assert main(["verify", "--suite", "nope", "--n", "5"]) == 1


class TestParseErrors:
    """Malformed numbers exit 1 with one `error:` line, never a traceback."""

    def test_malformed_sizes(self, capsys):
        assert main(["verify", "--suite", "lax", "--n", "5..x"]) == 1
        assert capsys.readouterr().err == "error: --n expects sizes like 5..12 or 6,7, got '5..x'\n"

    def test_malformed_c_vector(self, capsys):
        assert main(["exceptional", "--c", "0.38;0.38,x;0.38", "--alpha", "0.5"]) == 1
        assert capsys.readouterr().err == "error: --c expects RE or RE,IM, got '0.38,x'\n"

    def test_malformed_points(self, capsys):
        assert main(["tetrahedron", "--points", "0.3,0.1;1.7;nope;inf", "--c01", "2"]) == 1
        assert capsys.readouterr().err == "error: --points expects RE or RE,IM, got 'nope'\n"

    def test_no_orbit_ready_polygon_is_a_domain_error(self, monkeypatch, capsys):
        # every draw classifies as ZERO, so the sampler gives up inside `verify`
        import crd.sampling
        from crd.dynamics import RelationCount

        class Zero:
            classification = RelationCount.ZERO

        monkeypatch.setenv("CRD_NUM_THREADS", "1")
        monkeypatch.setattr(crd.sampling, "alpha_related", lambda *args: Zero())
        assert main(["verify", "--suite", "bianchi", "--n", "5"]) == 2
        assert capsys.readouterr().err.startswith(
            "domain error: NoOrbitReadyPolygon: no orbit-ready polygon found for n=5")


class TestRender:
    def test_pentagon_svg(self, pentagon_file, tmp_path):
        out = tmp_path / "p.svg"
        assert main(["render", pentagon_file, "--alpha", ALPHA_PENT, "--steps", "3",
                     "--seed", "5", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "circle" in text and "path" in text

    def test_console_script(self, pentagon_file):
        proc = subprocess.run(
            [sys.executable, "-m", "crd.cli", "integrals", pentagon_file,
             "--alpha", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["c_prod"] is not None
