import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import inbody as ib
from inbody import projective
from inbody.cli import RunConfig, _default_resolutions, config_from_args, run
from tests.conftest import noisy_cone, wide_rows

# [-1, 1]^8 and the hull of 0 and the unit vectors of R^10
EIGHT_CUBE = {"dim": 8, "halfspaces": [{"a": row.tolist(), "b": 1}
                                       for row in np.vstack([np.eye(8), -np.eye(8)])]}
TEN_SIMPLEX = {"dim": 10, "vertices": np.vstack([np.zeros(10), np.eye(10)]).tolist()}


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    rows = []
    for i in range(3):
        e = [0.0] * 3
        e[i] = 1.0
        rows.append({"a": e, "b": 1.0})
        rows.append({"a": [-v for v in e], "b": 0.0})
    path.write_text(json.dumps({"dim": 3, "halfspaces": rows}))
    return path


@pytest.fixture
def wide_file(tmp_path):
    A, b = wide_rows()
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"dim": 12, "halfspaces": [
        {"a": a.tolist(), "b": float(bi)} for a, bi in zip(A, b)]}))
    return path


CANTOR = {"n": 1, "alphabet": ["a", "b"],
          "matrices": {"a": [[3, 2], [0, 1]], "b": [[1, 0], [2, 3]]},
          "seed_holes": [[[1 / 3], [2 / 3]]],
          "assume_measure_zero": True}


@pytest.fixture
def cantor_file(tmp_path):
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps(CANTOR))
    return path


def run_to_file(command, input_path, out, **kw):
    config = RunConfig(command=command, input_path=str(input_path),
                       output_path=str(out), **kw)
    return run(config), out


class TestCommands:
    def test_metrics_cube(self, cube_file, tmp_path):
        code, out = run_to_file("metrics", cube_file, tmp_path / "m.json")
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["volume"] == pytest.approx(1.0)
        assert rep["perimeter"] == pytest.approx(6.0)
        assert rep["inradius"] == pytest.approx(0.5)
        assert rep["satisfied"] is True
        assert rep["version"]
        assert rep["config"]["command"] == "metrics"

    def test_inner_and_bounds_refused(self, cube_file, tmp_path, capsys):
        code, out = run_to_file("inner", cube_file, tmp_path / "i.json", eps=0.1)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] is True
        assert rep["l"] == pytest.approx(1 - 0.8 ** 3)
        # "bounds" was an undocumented alias of "inner"; it is refused like
        # any unknown command, before the input is read
        code, out = run_to_file("bounds", cube_file, tmp_path / "b.json", eps=0.1)
        assert code == 2 and not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        with pytest.raises(SystemExit) as exc:
            config_from_args(["bounds", "--input", str(cube_file), "--eps", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("eps", [1e-10, 3e-9])
    def test_inner_ok_at_small_eps(self, tmp_path, eps):
        # README's unit square: g/n rounds above the chord by 1.7e-17 at
        # eps = 1e-10, inside the report tolerance
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"dim": 2, "halfspaces": [
            {"a": a, "b": b} for a, b in zip([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])]}))
        code, out = run_to_file("inner", path, tmp_path / "i.json", eps=eps)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["g_over_n"] > rep["chord"]
        assert rep["ok"] is True

    def test_inner_requires_eps(self, cube_file, tmp_path):
        code, _ = run_to_file("inner", cube_file, tmp_path / "x.json")
        assert code == 2

    def test_profile_csv_closed_form(self, cube_file, tmp_path):
        code, out = run_to_file("profile", cube_file, tmp_path / "p.csv", grid=11)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "eps,l_vol,g,g_over_n,chord,deriv"
        for line in lines[2:]:
            eps, l_vol = map(float, line.split(",")[:2])
            assert l_vol == pytest.approx(1 - (1 - 2 * eps) ** 3, abs=1e-9)

    def test_profile_square_closed_form(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps(
            {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
        code, out = run_to_file("profile", path, tmp_path / "sq.csv", grid=11)
        assert code == 0
        for line in out.read_text().strip().split("\n")[2:]:
            eps, l_vol = map(float, line.split(",")[:2])
            assert l_vol == pytest.approx(1 - (1 - 2 * eps) ** 2, abs=1e-9)

    def test_oracle_verdict(self, cube_file, tmp_path):
        code, out = run_to_file("oracle", cube_file, tmp_path / "o.json",
                                samples=50_000, seed=11, eps=0.1)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["volume_within_4_sigma"] is True
        assert rep["inner_within_4_sigma"] is True
        assert rep["mc_volume"]["samples"] == 50_000

    def test_oracle_verdict_on_tesseract(self, tmp_path):
        # a box fills its bounding box: the estimate is exact with stddev 0,
        # so the verdict rests on the report tolerance
        path = tmp_path / "tesseract.json"
        rows = [{"a": [s * (i == j) for j in range(4)], "b": (s + 1) / 2}
                for i in range(4) for s in (1.0, -1.0)]
        path.write_text(json.dumps({"dim": 4, "halfspaces": rows}))
        code, out = run_to_file("oracle", path, tmp_path / "o.json",
                                samples=50_000, seed=11, eps=0.1)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["mc_volume"]["stddev"] == 0.0
        assert rep["volume_within_4_sigma"] is True
        assert rep["inner_within_4_sigma"] is True

    def test_attractor_estimate(self, cantor_file, tmp_path):
        code, out = run_to_file("attractor", cantor_file, tmp_path / "a.json",
                                max_depth=10, tol=0.01)
        assert code == 0
        rep = json.loads(out.read_text())
        target = math.log(2) / math.log(3)
        assert abs(rep["s_star"] - target) <= 0.02
        assert abs(rep["box_counting"] - target) <= 0.05
        assert rep["bracket_width"] <= 0.01
        assert rep["assume_measure_zero"] is True

    def test_norms_estimate(self, cantor_file, tmp_path):
        code, out = run_to_file("norms", cantor_file, tmp_path / "n.json",
                                max_depth=10, tol=0.01)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["norm"] == "spectral"
        assert 0.0 <= rep["s_star"] <= 1.0


class TestResolutionLadder:
    @staticmethod
    def tiny_holes(n):
        body = np.vstack([np.zeros(n), np.eye(n)]) * 1e-9 + 0.25
        return ib.HoleTable(n=n, labels=["a"], points=[[body[None]]] * 3,
                            volume=[np.array([[1e-20]])] * 3,
                            inradius=[np.array([[1e-10]])] * 3)

    def test_plane_ladder_stops_at_the_cell_cap(self):
        res = _default_resolutions(self.tiny_holes(2))
        assert len(res) == 6       # down to 3^-7; 3^-8 would need 6562^2 cells
        assert res == pytest.approx([3.0 ** -k for k in range(2, 2 + len(res))])
        assert not any(projective._grid_too_fine(2, d) for d in res)
        assert projective._grid_too_fine(2, res[-1] / 3.0)

    def test_interval_ladder_ignores_the_cell_cap(self):
        assert len(_default_resolutions(self.tiny_holes(1))) == 16


class TestConfig:
    def test_parser_defaults_are_run_config_defaults(self):
        assert config_from_args(["metrics", "--input", "x.json"]) == RunConfig(
            command="metrics", input_path="x.json")


class TestDeterminism:
    def test_same_config_byte_identical(self, cube_file, tmp_path):
        _, out = run_to_file("oracle", cube_file, tmp_path / "r.json",
                             samples=50_000, seed=3)
        first = out.read_bytes()
        run_to_file("oracle", cube_file, tmp_path / "r.json",
                    samples=50_000, seed=3)
        assert out.read_bytes() == first

    def test_profile_byte_identical(self, cube_file, tmp_path):
        _, out = run_to_file("profile", cube_file, tmp_path / "p.csv", grid=9)
        first = out.read_bytes()
        run_to_file("profile", cube_file, tmp_path / "p.csv", grid=9)
        assert out.read_bytes() == first


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        code = run(RunConfig(command="metrics",
                             input_path=str(tmp_path / "nope.json")))
        assert code == 2

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(RunConfig(command="metrics", input_path=str(path))) == 2

    def test_schema_violation_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2}))
        assert run(RunConfig(command="metrics", input_path=str(path))) == 2

    @pytest.mark.parametrize("command, obj", [
        ("metrics", {"dim": None, "vertices": [[0, 0], [1, 0], [0, 1]]}),
        ("metrics", {"dim": 2, "halfspaces": ["ab"]}),
        ("metrics", {"dim": 2, "halfspaces": 5}),
        ("metrics", {"dim": 2, "halfspaces": [{"a": [1, 0], "b": [1]}]}),
        ("metrics", {"dim": 2, "vertices": [[0, {}], [1, 0], [0, 1]]}),
        ("attractor", {**CANTOR, "n": 1.5}),
        ("attractor", {**CANTOR, "n": None}),
        ("attractor", {**CANTOR, "alphabet": "ab"}),
        ("attractor", {**CANTOR, "matrices": 5}),
    ])
    def test_malformed_fields_are_parse_errors(self, tmp_path, capsys, command, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(RunConfig(command=command, input_path=str(path))) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    def test_inconsistent_incidence_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"dim": 3, "vertices": noisy_cone(16).tolist()}))
        assert run(RunConfig(command="metrics", input_path=str(path))) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DegenerateNumerics"

    def test_unbounded_body_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "halfline.json"
        path.write_text(json.dumps(
            {"dim": 1, "halfspaces": [{"a": [-1.0], "b": 0.0}]}))
        assert run(RunConfig(command="metrics", input_path=str(path))) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Unbounded"

    @pytest.mark.parametrize("command, flag, value", [
        ("profile", "--grid", "0"), ("oracle", "--samples", "0"), ("oracle", "--seed", "-1")],
        ids=["profile---grid", "oracle---samples", "oracle---seed"])
    def test_out_of_range_option_is_validation_error(self, cube_file, tmp_path, capsys,
                                                     command, flag, value):
        out = tmp_path / "range.out"
        argv = [command, "--input", str(cube_file), "--output", str(out), flag, value]
        assert run(config_from_args(argv)) == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "BadParameter"

    @pytest.mark.parametrize("command", ["attractor", "norms"])
    def test_nan_tol_is_validation_error(self, cantor_file, tmp_path, capsys, command):
        # a NaN tolerance would end the bisection before its first step
        out = tmp_path / "nan.json"
        argv = [command, "--input", str(cantor_file), "--output", str(out),
                "--max-depth", "8", "--tol", "nan"]
        assert run(config_from_args(argv)) == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "BadParameter"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    @pytest.mark.parametrize("argv", [
        ["attractor"], ["norms"], ["norms", "--norm", "frobenius"],
        ["norms", "--norm", "maxentry"]], ids=["attractor", "spectral",
                                               "frobenius", "maxentry"])
    def test_non_finite_matrix_is_validation_error(self, tmp_path, capsys,
                                                    literal, argv):
        # json reads NaN and Infinity; README's example with one such entry
        path = tmp_path / "ifs.json"
        path.write_text(json.dumps(CANTOR).replace("[[3, 2]", f"[[{literal}, 2]"))
        assert literal in path.read_text()
        out = tmp_path / "out.json"
        argv = [*argv, "--input", str(path), "--output", str(out), "--max-depth", "8"]
        assert run(config_from_args(argv)) == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "BadParameter"

    @pytest.mark.parametrize("matrices, error", [
        ({"a": [[3, 2], [0, 1]], "b": [[1, 0], [2, 3]]}, "IfsValidationError"),
        ({"a": [[2, 1], [0, 1]], "b": [[1, 0], [1, 2]]}, "IfsValidationError"),
    ], ids=["thirds", "halves"])
    def test_coinciding_seed_ends_are_validation_errors(self, tmp_path, capsys,
                                                        matrices, error):
        # a seed hole of no length: the thirds leave their gap uncovered, and
        # the halves cover the interval, so the seed fails for its length
        path = tmp_path / "ifs.json"
        path.write_text(json.dumps({**CANTOR, "matrices": matrices,
                                    "seed_holes": [[[0.5], [0.5]]]}))
        out = tmp_path / "out.json"
        argv = ["attractor", "--input", str(path), "--output", str(out), "--max-depth", "8"]
        assert run(config_from_args(argv)) == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_nan_eps_is_validation_error(self, cube_file, tmp_path, capsys):
        out = tmp_path / "nan.json"
        argv = ["inner", "--input", str(cube_file), "--output", str(out),
                "--eps", "nan"]
        assert run(config_from_args(argv)) == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "EpsOutOfRange"

    @pytest.mark.parametrize("obj, code, error", [
        ({"dim": 2, "vertices": [[0, 0], [1, 0], [0]]}, 2, "ValueError"),
        ({"dim": -2, "vertices": [[0, 0], [1, 0], [0, 1]]}, 2, "ValueError"),
        ({"dim": 0, "halfspaces": [{"a": [], "b": 1}]}, 1, "BadParameter"),
        # a bounded triangle, but its first row's norm overflows
        ({"dim": 2, "halfspaces": [{"a": [1e308, 1e308], "b": 1},
                                   {"a": [-1, 0], "b": 0}, {"a": [0, -1], "b": 0}]},
         1, "BadParameter"),
        # 2^8 8! flags, and the 11! of the 10-simplex: reported in well
        # under a second
        (EIGHT_CUBE, 0, None),
        (TEN_SIMPLEX, 0, None),
        # coordinates whose squares overflow: refused before any LP, or
        # after the box LPs
        ({"dim": 2, "halfspaces": [{"a": a, "b": b} for a, b in zip(
            [[1, 0], [-1, 0], [0, 1], [0, -1]], [1e308, 1e308, 1, 1])]}, 1, "BadParameter"),
        ({"dim": 2, "vertices": [[1e308, 0], [-1e308, 0], [0, 1]]}, 1, "BadParameter"),
        ({"dim": 2, "vertices": [[1e200, 0], [-1e200, 0], [0, 1e200]]}, 1, "BadParameter"),
        ({"dim": 2, "halfspaces": [{"a": a, "b": 1e200} for a in
                                   [[1, 0], [-1, 0], [0, 1], [0, -1]]]}, 1, "BadParameter"),
        ({"dim": 2, "halfspaces": [{"a": [-1, 0], "b": 0}, {"a": [0, -1], "b": 0},
                                   {"a": [1e-5, 1], "b": 1e149}]}, 1, "BadParameter"),
        # 1,721 of the polar body's 20,000 rows can reach it, and their
        # C(1721, 3) subsets pass the enumeration cap
        ({"dim": 3, "vertices": np.random.default_rng(0).standard_normal((20_000, 3)).tolist()},
         1, "BadParameter"),
    ], ids=["ragged", "negative-dim", "zero-dim", "huge-normal", "8-cube", "10-simplex",
            "slab-1e308", "points-1e308", "points-1e200", "square-1e200", "box-1e154",
            "cloud-20000"])
    def test_adversarial_json(self, tmp_path, capsys, obj, code, error):
        path = tmp_path / "adversarial.json"
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        assert run(RunConfig(command="metrics", input_path=str(path))) == code
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        if code:
            assert json.loads(err)["error"] == error
        else:
            assert err == ""

    @pytest.mark.parametrize("obj, vol, per", [
        (EIGHT_CUBE, 2.0**8, 16 * 2.0**7),
        (TEN_SIMPLEX, 1 / math.factorial(10), (10 + math.sqrt(10)) / math.factorial(9))],
        ids=["8-cube", "10-simplex"])
    def test_many_flags_report(self, tmp_path, obj, vol, per):
        # the 8-cube took 0.12 s and peaked at 15.7 MB, the 10-simplex 0.07 s
        # and 3.4 MB (numpy 2.4)
        path = tmp_path / "body.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            assert run(RunConfig(command="metrics", input_path=str(path),
                                 output_path=str(out))) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6
        report = json.loads(out.read_text())
        assert report["volume"] == pytest.approx(vol, rel=1e-14)
        assert report["perimeter"] == pytest.approx(per, rel=1e-14)
        assert report["satisfied"]

    def test_subset_cap_is_validation_error(self, wide_file, capsys):
        assert run(RunConfig(command="metrics", input_path=str(wide_file))) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "BadParameter"
