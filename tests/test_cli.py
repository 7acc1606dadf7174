import json
from fractions import Fraction as F

import pytest

from cutstrength.cli import USAGE_ERROR, VALIDATION_ERROR, run
from cutstrength.descriptors import (
    body_to_dict,
    format_rational,
    parse_body,
    parse_pair,
    parse_rational,
)
from cutstrength import QuadBody, SplitBody, Type2Body, point


T2_DESC = '{"type":"type2","a":["1/2","3/2"]}'


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescriptors:
    def test_parse_rational(self):
        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("-27/200") == F(-27, 200)
        assert parse_rational(4) == F(4)
        for bad in ("1.5", "x", 1.5, True, None):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_format_rational(self):
        assert format_rational(F(3, 2)) == "3/2"
        assert format_rational(F(4)) == "4"
        assert format_rational(F(-27, 200)) == "-27/200"

    def test_round_trip(self):
        for v in (F(3, 2), F(-7, 13), F(0), F(10**6)):
            assert parse_rational(format_rational(v)) == v

    def test_parse_pair(self):
        assert parse_pair(["1/2", "3/2"]) == point(F(1, 2), F(3, 2))
        with pytest.raises(ValueError):
            parse_pair(["1/2"])

    def test_body_round_trip(self):
        bodies = [
            Type2Body(F(1, 2), F(3, 2)),
            QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)),
            SplitBody((2, 3), -1),
        ]
        for body in bodies:
            assert parse_body(body_to_dict(body)) == body

    def test_vertices_descriptor(self):
        verts = parse_body('{"vertices":[["0","0"],["2","0"],["0","2"]]}')
        assert verts == [point(0, 0), point(2, 0), point(0, 2)]

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            parse_body('{"type":"pentagon"}')

    def test_missing_field(self):
        with pytest.raises(ValueError):
            parse_body('{"type":"type2"}')


class TestCommands:
    def test_bound_example(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--body", T2_DESC, "--z", "7/4")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "32/81"

    def test_strength_type1_example(self, capsys):
        code, out, _ = invoke(
            capsys, "strength", "--body", '{"type":"type1"}', "--f", '["3/5","3/5"]', "--N", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["t_n"] == "2"
        assert payload["region"] == "R1"
        assert payload["chosen_split_normal"] is None

    def test_strength_reports_split(self, capsys):
        code, out, _ = invoke(capsys, "strength", "--body", T2_DESC, "--f", '["-1/4","1/4"]')
        payload = json.loads(out)
        assert code == 0
        assert payload["region"] == "R3"
        assert payload["chosen_split_normal"] == [0, 1]
        assert payload["t_bar"] == "5/3"
        assert payload["n"] == 5

    def test_plotdata_z32_row(self, capsys):
        code, out, _ = invoke(capsys, "plotdata", "--curve", "z32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "w,bound"
        assert "11/10,112/121" in lines

    def test_plotdata_z2_row(self, capsys):
        code, out, _ = invoke(capsys, "plotdata", "--curve", "z2")
        assert "11/10,4/121" in out.splitlines()

    def test_classify(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--body", T2_DESC)
        assert code == 0
        assert json.loads(out) == {"class": "Type2Triangle"}

    def test_classify_vertices(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--body", '{"vertices":[["0","0"],["2","0"],["0","2"]]}'
        )
        assert json.loads(out) == {"class": "Type1Triangle"}

    def test_width(self, capsys):
        code, out, _ = invoke(capsys, "width", "--body", T2_DESC)
        assert code == 0
        assert json.loads(out) == {"w": "3/2"}

    def test_montecarlo_includes_closed_form(self, capsys):
        code, out, _ = invoke(
            capsys, "montecarlo", "--body", T2_DESC, "--z", "7/4", "--samples", "20000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "32/81"
        assert abs(payload["estimate"] - 32 / 81) <= 4 * payload["std_error"]
        assert payload["samples"] == 20000

    def test_sweep_csv_header(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--family", "t2", "--z", "2", "--step", "1/10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "params,w,z,bound,mc_estimate,mc_stderr,samples,seed"
        assert len(lines) > 2

    def test_sweep_json(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--family", "t2", "--z", "2", "--step", "1/4", "--format", "json"
        )
        payload = json.loads(out)
        assert payload and all("bound" in row for row in payload)

    def test_body_from_file(self, capsys, tmp_path):
        path = tmp_path / "body.json"
        path.write_text(T2_DESC, encoding="utf-8")
        code, out, _ = invoke(capsys, "width", "--body", f"@{path}")
        assert code == 0
        assert json.loads(out) == {"w": "3/2"}

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = invoke(
            capsys, "plotdata", "--curve", "z2", "--step", "1/4", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8").startswith("w,bound")


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == USAGE_ERROR

    def test_missing_required_flag(self, capsys):
        code, _, _ = invoke(capsys, "bound", "--body", T2_DESC)
        assert code == USAGE_ERROR

    def test_validation_error_exterior_f(self, capsys):
        code, _, err = invoke(capsys, "strength", "--body", T2_DESC, "--f", '["5","5"]')
        assert code == VALIDATION_ERROR
        assert "interior" in err

    def test_validation_error_bad_descriptor(self, capsys):
        code, _, err = invoke(capsys, "classify", "--body", '{"type":"nope"}')
        assert code == VALIDATION_ERROR
        assert err.startswith("error:")

    def test_validation_error_bad_rational(self, capsys):
        code, _, _ = invoke(capsys, "bound", "--body", T2_DESC, "--z", "1.5")
        assert code == VALIDATION_ERROR

    def test_validation_error_seed_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "montecarlo", "--body", T2_DESC, "--z", "7/4", "--seed", "-1")
        assert code == VALIDATION_ERROR
        assert "seed" in err


    @pytest.mark.parametrize(
        "family, item", [("t2", "foo=0:1"), ("t3", "w=1:2"), ("t2", "a1=0:1")]
    )
    def test_validation_error_unknown_range(self, capsys, family, item):
        code, out, err = invoke(capsys, "sweep", "--family", family, "--z", "2", "--range", item)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert repr(item.split("=")[0]) in err

    @pytest.mark.parametrize("argv", [("sweep", "--family", "t2", "--z", "2", "--mc-samples", "0"),
                                      ("montecarlo", "--body", T2_DESC, "--z", "2", "--samples", "0")])
    def test_validation_error_zero_samples(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == VALIDATION_ERROR
        assert "samples" in err


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ("montecarlo", "--body", T2_DESC, "--z", "7/4", "--samples", "50000", "--seed", "9")
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2

    def test_json_rationals_reparse(self, capsys):
        _, out, _ = invoke(capsys, "bound", "--body", T2_DESC, "--z", "7/4")
        payload = json.loads(out)
        assert parse_rational(payload["bound"]) == F(32, 81)
