import numpy as np
import pytest

import inbody as ib
from inbody import formats


class TestPolytopeJson:
    def test_halfspace_round_trip(self):
        rows = [([1.0, 0.0], 1.0), ([-1.0, 0.0], 0.0), ([0.0, 1.0], 1.0), ([0.0, -1.0], 0.0)]
        H = formats.load_polytope(
            {"dim": 2, "halfspaces": [{"a": a, "b": b} for a, b in rows]})
        assert np.array_equal(H.A, [a for a, _ in rows])
        assert np.array_equal(H.b, [b for _, b in rows])
        assert ib.volume(H) == pytest.approx(1.0)

    def test_vertex_form_loads_as_hull(self):
        H = formats.load_polytope(
            {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
        assert H.m == 4
        assert ib.volume(H) == pytest.approx(1.0)

    @pytest.mark.parametrize("obj", [
        [],
        {"halfspaces": []},
        {"dim": 2, "halfspaces": []},
        {"dim": 2, "halfspaces": [{"a": [1.0], "b": 1.0}]},
        {"dim": 2, "vertices": [[0.0, 0.0, 0.0]]},
        {"dim": 2},
    ])
    def test_schema_violations_raise_value_error(self, obj):
        with pytest.raises(ValueError):
            formats.load_polytope(obj)


class TestIfsJson:
    def test_load_with_explicit_seeds(self):
        obj = {"n": 1, "alphabet": ["a", "b"],
               "matrices": {"a": [[3, 2], [0, 1]], "b": [[1, 0], [2, 3]]},
               "seed_holes": [[[1 / 3], [2 / 3]]],
               "assume_measure_zero": True}
        ifs, seeds, assume = formats.load_ifs(obj)
        assert ifs.n == 1 and len(ifs.matrices) == 2
        assert assume is True
        assert len(seeds) == 1

    def test_auto_seeds_in_one_dimension(self):
        obj = {"n": 1, "alphabet": ["a", "b"],
               "matrices": {"a": [[3, 2], [0, 1]], "b": [[1, 0], [2, 3]]}}
        _, seeds, assume = formats.load_ifs(obj)
        assert assume is False
        assert sorted(seeds[0].points.ravel()) == pytest.approx([1 / 3, 2 / 3])

    def test_missing_matrix_rejected(self):
        with pytest.raises(ValueError):
            formats.load_ifs({"n": 1, "alphabet": ["a"], "matrices": {}})

    def test_seeds_required_above_one_dimension(self):
        with pytest.raises(ValueError):
            formats.load_ifs({"n": 2, "alphabet": ["a"],
                              "matrices": {"a": np.eye(3).tolist()}})


class TestCsv:
    def test_profile_layout(self, unit_square):
        prof = ib.neighbourhood_profile(unit_square, 5)
        text = formats.profile_to_csv(prof, provenance="check")
        lines = text.strip().split("\n")
        assert lines[0] == "# check"
        assert lines[1] == "eps,l_vol,g,g_over_n,chord,deriv"
        assert len(lines) == 2 + 5
        assert lines[-1].endswith("nan")
        # numeric columns parse back
        row = lines[2].split(",")
        assert len(row) == 6
        assert float(row[0]) == 0.0

    def test_fmt_uses_12_significant_digits(self):
        assert formats.fmt(1 / 3) == "0.333333333333"
        assert formats.fmt(4.0) == "4"
