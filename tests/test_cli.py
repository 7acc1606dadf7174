import ast
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cutstrength
from cutstrength.cli import USAGE_ERROR, VALIDATION_ERROR, _parser, exact_digits, run
from cutstrength.descriptors import (
    format_rational,
    parse_body,
    parse_pair,
)
from cutstrength.geometry import _frac as parse_rational
from cutstrength.geometry import _read_int
from cutstrength.sweeps import FAMILIES, PARAMS
from cutstrength import (
    QuadBody,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    bound_for,
    covering_lp_min,
    lattice_width,
    montecarlo,
    point,
    split_coefficients,
    strength_report,
)

from conftest import any_body, body_descriptor, root_vertex


T2_DESC = '{"type":"type2","a":["1/2","3/2"]}'
VERTICES_DESC = '{"vertices":[["0","0"],["2","0"],["0","2"]]}'
SPLIT_DESC = '{"type":"split","normal":[0,1]}'
# a type 3 body whose lattice width is not attained by the vertical direction
T3_NOT_VERTICAL_DESC = '{"type":"type3","a":["11/10","3/10"],"b1":"1/2"}'

# (family, z, sha256 of the sweep's CSV at step 1/10)
SWEEP_GOLDENS = [
    ("quad", "2", "3dade90e3b3faf28d9a72e5220aba4edc6aa2faa80168ddcb7cda69031e18c65"),
    ("t3", "2", "07df3e4d7ec73696b4770e27ff4b576800f6f5daa058c3bf2b9f7c2e7c45493b"),
    ("t2", "2", "437d9bbcc4ffa402baf88f9e7bf92e2e743093461770ee145af139408028552c"),
    ("quad", "3/2", "94fb1472f021fe827927184c12900d657aced407aa121165c6735d4050925ccf"),
    ("t3", "3/2", "68d99371052550b2620e918ebca3007aba162567636f2e4dbc62ff8de40174cd"),
    ("t2", "3/2", "8a61e561a1d8960deec8d68a296c62a96dd6b8e0744b5f62de35735d65653d2d"),
    ("quad", "4", "1eea0b660f2c9ec110fc554a16ee89cf47ca4436f0816c6aad0e92dfc13eb2e9"),
    ("t3", "4", "d53c8897af7aae8d4d461cb45f28e10ab38d951dfb7b7c1d9db180fc6fe617fa"),
    ("t2", "4", "37f9b559f9f0a49df455c66d6c623c3be50fd682033e6776268e5b6d92adecae"),
]
# (family, z, sha256 of the sweep's JSON at step 1/10, with 100 Monte Carlo
# samples a row from seed 4)
MC_SWEEP_GOLDENS = [
    ("t2", "2", "9e9c5ec74139bcf00d38a2e1b786688c907071d2a4c730c29589d9146559113a"),
    ("quad", "2", "e88c1a1f6dbed425353e8a8893ab638eaa8fcafc648dadf462e21d872a287e57"),
    ("t3", "2", "8949a629674990196125f3d6bbf700f7562af75f331236a2ea340c397accbe4d"),
    ("t2", "3/2", "d93672069dbe60b203586ce55f10fa0b9bc221461c6fa4a5c7d2b4f6d95ad058"),
    ("t2", "3", "b87fb74722771c600c8cbd06fe02360b4a9ee32d386f92e40aca039edfed1afa"),
    ("quad", "3/2", "8d44993b92baa14a772c14dee5652623d8458e62fb0352d0ac3a49a636446876"),
    ("quad", "3", "2f778b429535b9fa360c5ba92ade1741ed5e762fd71faff7bfdf4541b190f7c8"),
    ("t3", "3/2", "c44e8752821292241e6460af9cd68dd30d1f9e2e818c60554dec29006a24d210"),
    ("t3", "3", "17d5d0c718d65c53722b1045322de25ff623f0a0582accda7009eecb028689cc"),
]
# (curve, sha256 of plotdata's CSV at the default step 1/100)
PLOTDATA_GOLDENS = [
    ("z2", "170e37087c41480d7c21466dd45fef417cae18f348ea7b171cd10928950a618c"),
    ("z32", "60189a2781dcb3d12c8572b3bd7e9b874f11ae4031f3ff72f29e56b5a2df4ce6"),
]


def _golden_id(prefix, family, z, digest):
    return f"{prefix}{family}-{digest}" if z == "2" else f"{prefix}{family}-z{z.replace('/', '_')}-{digest}"


# (test id, argv, digest)
GOLDENS = [
    (_golden_id("", f, z, d), ("sweep", "--family", f, "--z", z, "--step", "1/10"), d) for f, z, d in SWEEP_GOLDENS
]
GOLDENS += [
    (_golden_id("mc-", f, z, d), ("sweep", "--family", f, "--z", z, "--step", "1/10", "--format", "json",
                                  "--mc-samples", "100", "--seed", "4"), d)
    for f, z, d in MC_SWEEP_GOLDENS
]
GOLDENS += [(f"plotdata-{c}-{d}", ("plotdata", "--curve", c), d) for c, d in PLOTDATA_GOLDENS]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(call, *args):
    """``("ok", result)`` of ``call(*args)``, or ``("error", message)`` of its ValueError."""
    try:
        return "ok", call(*args)
    except ValueError as exc:
        return "error", str(exc)


# one table of rationals from outside, each with its value or None where it
# is rejected, which every entry point reads alike on every Python:
# Fraction's own grammar takes "_" from 3.11 on, blanks around "/" from 3.12
# on, and non-ASCII digits on all
RATIONAL_TABLE = [
    ("7/4", F(7, 4)), ("-27/200", F(-27, 200)), ("+3/2", F(3, 2)), (" 7/4 ", F(7, 4)), ("007/4", F(7, 4)),
    ("1" + "0" * 399 + "/3", F(10**399, 3)), ("4", F(4)), (4, F(4)), (F(3, 2), F(3, 2)),
    ("7 / 4", None), ("1_4/8", None), ("\u0667/4", None), ("1.5", None), ("1e3", None), ("1/0", None),
    ("/4", None), ("7/", None), ("", None), (True, None), (1.5, None), (None, None), (Decimal("0.5"), None),
]

# the commands that read a rational from argv, with {} for the value
RATIONAL_ARGVS = [
    ("bound", "--body", T2_DESC, "--z", "{}"),
    ("sweep", "--family", "t2", "--z", "2", "--step", "{}", "--range", "w=3/2:2"),
    ("sweep", "--family", "t2", "--z", "2", "--step", "1/5", "--range", "w={}:2"),
    ("sweep", "--family", "t2", "--z", "2", "--step", "1/5", "--range", "w=1/2:{}"),
    ("plotdata", "--curve", "z2", "--step", "{}"),
]

# one table of int option texts, each with its value or None where it is
# rejected: the integer part of the rational grammar, where int() also
# takes "_" and non-ASCII digits
INT_TABLE = [
    ("7", 7), ("-2", -2), ("+3", 3), (" 4 ", 4), ("007", 7), ("\u0667", None), ("\u0662", None), ("\uff17", None),
    ("1_0", None), ("1/2", None), ("7.0", None), ("1.5", None), ("1e3", None), ("0x10", None), ("x", None),
    ("- 3", None), ("", None), (" ", None),
]

# the int options, with {} for the value
INT_ARGVS = [
    ("strength", "--body", T2_DESC, "--f", '["1/4","1/2"]', "--N", "{}"),
    ("montecarlo", "--body", T2_DESC, "--z", "7/4", "--samples", "{}"),
    ("montecarlo", "--body", T2_DESC, "--z", "7/4", "--samples", "5", "--seed", "{}"),
    ("sweep", "--family", "t2", "--z", "2", "--step", "1/5", "--mc-samples", "{}"),
    ("sweep", "--family", "t2", "--z", "2", "--step", "1/5", "--mc-samples", "5", "--seed", "{}"),
]


class TestDescriptors:
    def test_parse_rational(self, capsys):
        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("-27/200") == F(-27, 200)
        assert parse_rational(4) == F(4)
        for bad in ("1.5", "x", 1.5, True, None):
            with pytest.raises(ValueError):
                parse_rational(bad)
        # every entry point gives each value of the table the one reader's verdict
        for value, want in RATIONAL_TABLE:
            reading = outcome(parse_rational, value)
            assert (reading == ("ok", want)) if want is not None else (reading[0] == "error"), value

            def read(call, *args):
                """What ``call(*args)`` gives with ``want`` in the value's place."""
                return outcome(call, *args) if want is not None else reading

            # the library: a point, each body in each parameter, a descriptor, a covering row
            assert outcome(point, value, 0) == read(point, want, 0), value
            for cls, params in ((Type2Body, ["1/2", "3/2"]), (Type3Body, ["3", "3/10", "1/10"]),
                                (QuadBody, ["2/5", "3/2", "3/5", "-3/10"])):
                for i in range(len(params)):
                    drawn, canonical = (params[:i] + [v] + params[i + 1:] for v in (value, want))
                    assert outcome(cls, *drawn) == read(cls, *canonical), (cls, i, value)
            assert outcome(parse_body, {"type": "type2", "a": ["1/2", value]}) == read(Type2Body, "1/2", want)
            assert outcome(parse_body, {"type": "type3", "a": ["3", "3/10"], "b1": value}) == read(
                Type3Body, "3", "3/10", want)
            assert outcome(covering_lp_min, [(value, 1)], 2) == read(covering_lp_min, [(want, 1)], 2)
            if not isinstance(value, str):
                continue
            # the command line: a rejection is exit 3 with the reader's one
            # error line; an accepted value exits as its canonical text does
            for argv in RATIONAL_ARGVS:
                code, out, err = invoke(capsys, *(a.replace("{}", value) for a in argv))
                if want is None:
                    assert (code, out, err) == (VALIDATION_ERROR, "", f"error: {reading[1]}\n"), argv
                else:
                    canonical = invoke(capsys, *(a.replace("{}", format_rational(want)) for a in argv))
                    assert code == canonical[0], (argv, value)
                    assert argv[0] != "sweep" or out == canonical[1], (argv, value)

    def test_int_options(self, capsys):
        # an int option is read as the integer part of the rational grammar;
        # other text is argparse's usage error, as for type=int, and an
        # accepted text runs as its canonical digits do
        for text, want in INT_TABLE:
            reading = ("ok", want) if want is not None else ("error", f"malformed integer {text!r}")
            assert outcome(_read_int, text) == reading
            for argv in INT_ARGVS:
                code, out, err = invoke(capsys, *(a.replace("{}", text) for a in argv))
                if want is None:
                    assert code == USAGE_ERROR and out == "", (argv, text)
                    assert err.endswith(f"invalid int value: {text!r}\n"), (argv, text)
                else:
                    assert (code, out, err) == invoke(capsys, *(a.replace("{}", str(want)) for a in argv)), (argv, text)

    def test_more_digits_than_the_interpreter_reads(self, capsys):
        # the library meets the interpreter's limit on the digits of an int
        # read from text, and the reader says so in its own ValueError; the
        # command line lifts the limit and reads the value whole
        limit = sys.get_int_max_str_digits()
        big = "1" + "0" * limit
        message = (f"an integer of {limit + 1} digits is over the interpreter's limit of {limit} digits "
                   "for reading an int from text (sys.set_int_max_str_digits)")
        for value in (big, f"-{big}/3", f"1/{big}"):
            assert outcome(parse_rational, value) == ("error", message), value[:8]
        assert outcome(_read_int, big) == ("error", message)
        assert outcome(Type2Body, "1/2", big) == ("error", message)
        assert outcome(point, big, 0) == ("error", message)
        with exact_digits():
            assert parse_rational(f"-{big}/3") == F(-(10**limit), 3)
            body = Type2Body("1/2", big)
            width = format_rational(lattice_width(body))
        assert body.a2 == 10**limit
        code, out, err = invoke(capsys, "width", "--body", json.dumps({"type": "type2", "a": ["1/2", big]}))
        assert (code, out, err) == (0, f'{{"w": "{width}"}}\n', "")

    def test_split_ints_by_the_one_rule(self, capsys):
        # a split's normal and offset, and split_coefficients' normal, take
        # ints and nothing else, where int() used to truncate (1.9 -> 1)
        f, rays = point(F(1, 2), F(1, 3)), [point(1, 0), point(0, 1)]
        for value in (2, -3, 10**400, True, 1.9, F(3, 2), F(2), "1", None, Decimal(2)):
            is_int = type(value) is int
            normal = outcome(SplitBody, (value, 1))
            assert (normal[0] == "ok") == is_int, value
            if not is_int:
                assert normal == ("error", f"split normal must be an integer pair, got {[value, 1]!r}")
                assert outcome(split_coefficients, (value, 1), f, rays) == (
                    "error", f"normal must be an integer pair, got {[value, 1]!r}")
                assert outcome(SplitBody, (1, 0), value) == (
                    "error", f"split offset must be an integer, got {value!r}")
            assert outcome(parse_body, {"type": "split", "normal": [value, 1]}) == normal
            assert (outcome(SplitBody, (1, 0), value)[0] == "ok") == is_int
        # rejections the parent already made keep their bytes
        assert outcome(SplitBody, [2, 4]) == ("error", "split normal must be a primitive integer pair, got [2, 4]")
        assert outcome(parse_body, {"type": "split", "normal": [2, 4]}) == (
            "error", "split normal must be a primitive integer pair, got (2, 4)")
        assert outcome(split_coefficients, (0, 2), f, rays) == (
            "error", "normal must be a primitive integer pair, got (0, 2)")
        for desc, message in (
            ('{"type":"split","normal":[1.5,0]}', "split normal must be an integer pair, got [1.5, 0]"),
            ('{"type":"split","normal":["1",0]}', "split normal must be an integer pair, got ['1', 0]"),
            ('{"type":"split","normal":[1,2,3]}', "split normal must be an integer pair, got [1, 2, 3]"),
            ('{"type":"split","normal":[1,0],"offset":"1"}', "split offset must be an integer, got '1'"),
            ('{"type":"split","normal":[2,4]}', "split normal must be a primitive integer pair, got (2, 4)"),
        ):
            assert invoke(capsys, "classify", "--body", desc) == (VALIDATION_ERROR, "", f"error: {message}\n")
        # a covering row's entries are read as rationals: no binary value of a double
        assert outcome(covering_lp_min, [(0.1, 1)], 2) == ("error", "expected 'p/q' string or integer, got 0.1")

    def test_format_rational(self):
        assert format_rational(F(3, 2)) == "3/2"
        assert format_rational(F(4)) == "4"
        assert format_rational(F(-27, 200)) == "-27/200"

    def test_round_trip(self):
        for v in (F(3, 2), F(-7, 13), F(0), F(10**6)):
            assert parse_rational(format_rational(v)) == v

    # (lead, tail, big) stands for lead * 10**4999 + tail if big, else lead:
    # an int of either sign, of 5,000 or more digits if big.  Hypothesis
    # prints its draws, so they stay small and the big ints are made in the
    # test, under exact_digits
    _INT = st.tuples(st.integers(), st.integers(0, 10**6), st.booleans())

    @staticmethod
    def _int(lead, tail, big):
        return lead * 10**4999 + tail if big else lead

    @settings(max_examples=200, deadline=None)
    @given(_INT, st.one_of(st.none(), _INT))
    @example((-1, 1, True), None)
    @example((-1, 1, True), (1, 3, True))
    @example((6, 0, False), (-4, 0, False))
    def test_format_rational_is_numerator_over_denominator(self, num, den):
        with exact_digits():
            value = self._int(*num)
            if den is not None:
                assume(self._int(*den) != 0)
                value = F(value, self._int(*den))
            # the formula format_rational had before it returned str(Fraction)
            n, d = F(value).as_integer_ratio()
            assert format_rational(value) == (f"{n}/{d}" if d != 1 else str(n))
            assert parse_rational(format_rational(value)) == value

    def test_parse_pair(self):
        assert parse_pair(["1/2", "3/2"]) == point(F(1, 2), F(3, 2))
        with pytest.raises(ValueError):
            parse_pair(["1/2"])

    def test_body_round_trip(self):
        bodies = [
            Type1Body(),
            Type2Body(F(1, 2), F(3, 2)),
            Type3Body(F(3), F(3, 10), F(1, 10)),
            QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)),
            SplitBody((2, 3), -1),
        ]
        for body in bodies:
            assert parse_body(body_descriptor(body)) == body

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

    def test_strength_at_large_n(self, capsys):
        # the quad fixture's optimum spans the plane, so t_N prices the same
        # few splits at N = 10^6 as at N = 25
        code, out, _ = invoke(
            capsys, "strength", "--body", '{"type":"quad","a":["2/5","3/2"],"b":["3/5","-3/10"]}',
            "--f", '["1/2","1/3"]', "--N", "1000000",
        )
        assert code == 0
        assert out == (
            '{"region": "R1", "chosen_split_normal": [0, 1], "t_bar": "19/10", "t_n": "13063/11527", "n": 1000000}\n'
        )

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

    # sha256 of the stdout of the sweeps and of both plotdata curves; the
    # z = 2 quad and t3 digests pin the bench's sweep outputs, z = 3/2 and 4
    # pick pieces that z = 2 does not, and the Monte Carlo sweeps sample every
    # body's fan
    @pytest.mark.parametrize("argv, digest", [case[1:] for case in GOLDENS], ids=[case[0] for case in GOLDENS])
    def test_sweep_golden(self, capsys, argv, digest):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sweep_json(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--family", "t2", "--z", "2", "--step", "1/4", "--format", "json"
        )
        payload = json.loads(out)
        assert payload and all("bound" in row for row in payload)

    def test_sweep_json_monte_carlo(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--family", "t2", "--z", "2", "--step", "1/2", "--mc-samples", "100", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["params"] for row in payload] == [["2"], ["3/2"]]
        for row in payload:
            assert set(row["mc"]) == {"estimate", "std_error", "samples", "seed"}
            assert (row["mc"]["samples"], row["mc"]["seed"]) == (100, 0)

    def test_body_from_file(self, capsys, tmp_path):
        path = tmp_path / "body.json"
        path.write_text(T2_DESC, encoding="utf-8")
        code, out, _ = invoke(capsys, "width", "--body", f"@{path}")
        assert code == 0
        assert json.loads(out) == {"w": "3/2"}

    def test_sweep_output_file(self, capsys, tmp_path):
        # the file gets the bytes that stdout gets without --output
        argv = ("sweep", "--family", "t3", "--z", "2", "--step", "1/10")
        code, expected, _ = invoke(capsys, *argv)
        assert code == 0
        path = tmp_path / "sweep.csv"
        code, out, err = invoke(capsys, *argv, "--output", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_bytes() == expected.encode()
        digest = dict(((f, z), d) for f, z, d in SWEEP_GOLDENS)[("t3", "2")]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_plotdata_single_row(self, capsys):
        code, out, _ = invoke(capsys, "plotdata", "--curve", "z2", "--step", "1")
        assert (code, out) == (0, "w,bound\n2,1\n")

    def test_huge_integers(self, capsys):
        # the apex height has a 2,501-digit denominator, so the bound's has
        # more digits than the interpreter converts to or from a string by
        # default; a threshold of 5,000 digits over 5,000 digits reads as 3
        a2 = F(3 * 10**2500 + 1, 2 * 10**2500)
        body = Type2Body(F(1, 2), a2)
        with exact_digits():
            desc = json.dumps(body_descriptor(body))
            huge_z = f"{3 * 10**4999}/{10**4999}"
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = digit_limit()
        for z, value in (("2", F(2)), (huge_z, F(3))):
            code, out, err = invoke(capsys, "bound", "--body", desc, "--z", z)
            assert (code, err) == (0, "")
            assert digit_limit() == limit
            with exact_digits():
                bound = parse_rational(json.loads(out)["bound"])
            assert bound == bound_for(body, value)
            assert bound.denominator > 10**4300

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

    def test_validation_error_star(self, capsys):
        # a five-point star turns the same way at every vertex but winds twice
        star = '{"vertices":[["0","3"],["-2","-2"],["3","1"],["-3","1"],["2","-2"]]}'
        code, out, err = invoke(capsys, "classify", "--body", star)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert "not strictly convex" in err

    @pytest.mark.parametrize("desc, field", [('{"type":"split","normal":[true,false]}', "normal"),
                                             ('{"type":"split","normal":[0,1],"offset":true}', "offset")])
    def test_validation_error_boolean_split(self, capsys, desc, field):
        # a JSON boolean is a Python int, but not an integer of the descriptor
        code, out, err = invoke(capsys, "classify", "--body", desc)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert f"split {field} must be an integer" in err

    def test_validation_error_bad_rational(self, capsys):
        code, _, _ = invoke(capsys, "bound", "--body", T2_DESC, "--z", "1.5")
        assert code == VALIDATION_ERROR

    def test_validation_error_seed_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "montecarlo", "--body", T2_DESC, "--z", "7/4", "--seed", "-1")
        assert code == VALIDATION_ERROR
        assert "seed" in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (("width", "--body", VERTICES_DESC), "width needs a typed body descriptor, not a vertex list"),
            (
                ("strength", "--body", VERTICES_DESC, "--f", '["1/2","1/2"]'),
                "strength needs a typed body descriptor, not a vertex list",
            ),
            (("bound", "--body", VERTICES_DESC, "--z", "2"), "bound needs a typed bounded body descriptor"),
            (("bound", "--body", SPLIT_DESC, "--z", "2"), "bound needs a typed bounded body descriptor"),
            (("montecarlo", "--body", VERTICES_DESC, "--z", "2"), "montecarlo needs a typed bounded body descriptor"),
            (("montecarlo", "--body", SPLIT_DESC, "--z", "2"), "montecarlo needs a typed bounded body descriptor"),
            (("strength", "--body", T2_DESC, "--f", '["1/2","1/2"]', "--N", "0"), "need N >= 1, got 0"),
            (
                ("sweep", "--family", "quad", "--z", "2", "--range", "b2"),
                "malformed --range 'b2', expected PARAM=LO:HI",
            ),
            (
                ("sweep", "--family", "quad", "--z", "2", "--step", "1/5",
                 "--range", "a1=1/2:1/2", "--range", "a1=1/5:1/5"),
                "--range 'a1' given more than once",
            ),
            (
                ("bound", "--body", T3_NOT_VERTICAL_DESC, "--z", "7/4"),
                "lattice width must be attained by the vertical direction "
                "(c2-b2=36/13, a1-c1=99/65, a1+a2-b1-b2=12/5)",
            ),
            (("classify", "--body", "[1, 2]"), "descriptor must be a JSON object, got [1, 2]"),
            (
                ("classify", "--body", '{"vertices":[["0","0"],["2","0"]]}'),
                "'vertices' must list at least three coordinate pairs",
            ),
            (
                ("montecarlo", "--body", T2_DESC, "--z", "2", "--samples", "1" + "0" * 30),
                f"need samples <= 2**64, got 1{'0' * 30}",
            ),
            (
                ("sweep", "--family", "t2", "--z", "2", "--step", "1/4", "--mc-samples", "1" + "0" * 30),
                f"need samples <= 2**64, got 1{'0' * 30}",
            ),
        ],
        ids=[
            "width-vertices",
            "strength-vertices",
            "bound-vertices",
            "bound-split",
            "montecarlo-vertices",
            "montecarlo-split",
            "strength-N0",
            "range-without-equals",
            "range-repeated",
            "type3-width-not-vertical",
            "descriptor-array",
            "two-vertices",
            "montecarlo-huge-samples",
            "sweep-huge-mc-samples",
        ],
    )
    def test_validation_error_message(self, capsys, argv, message):
        # one error line on stderr, nothing on stdout, no traceback
        code, out, err = invoke(capsys, *argv)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert err == f"error: {message}\n"

    def test_montecarlo_threshold_checked_before_sampling(self, capsys, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled before validating --z")

        monkeypatch.setattr(montecarlo, "_sample_points", sample)
        code, out, err = invoke(capsys, "montecarlo", "--body", T2_DESC, "--z", "1")
        assert code == VALIDATION_ERROR
        assert out == ""
        assert "threshold must satisfy z > 1, got 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("montecarlo", "--body", T2_DESC, "--samples", "10"),
            ("sweep", "--family", "t2", "--step", "1/4", "--mc-samples", "10"),
        ],
        ids=["montecarlo", "sweep"],
    )
    def test_threshold_beyond_float_range(self, capsys, monkeypatch, argv):
        # an exact threshold above the largest float has no float to compare
        # the sampled strengths with
        def sample(*args):
            raise AssertionError("sampled before validating --z")

        monkeypatch.setattr(montecarlo, "_sample_points", sample)
        z = "1" + "0" * 400
        code, out, err = invoke(capsys, *argv, "--z", z)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert err == f"error: threshold {z} is beyond the float range of Monte Carlo sampling\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("montecarlo", "--body", json.dumps({"type": "type2", "a": ["1/2", "1" + "0" * 400]}), "--samples", "10"),
            # the one type 3 body a1 = 10^400, a2 = 1/2, b1 = 10^-401
            ("sweep", "--family", "t3", "--step", "1/2", "--range", f"a1=1{'0' * 400}:1{'0' * 400}",
             "--range", "a2=1/2:1/2", "--range", f"b1=1/1{'0' * 401}:1/1{'0' * 401}", "--mc-samples", "10"),
        ],
        ids=["montecarlo", "sweep"],
    )
    def test_body_beyond_float_range(self, capsys, monkeypatch, argv):
        # a vertex above the largest float has no float to sample near
        def sample(*args):
            raise AssertionError("sampled a body beyond the float range")

        monkeypatch.setattr(montecarlo, "_sample_points", sample)
        code, out, err = invoke(capsys, *argv, "--z", "2")
        assert code == VALIDATION_ERROR
        assert out == ""
        assert err == "error: the body's coordinates are beyond the float range of Monte Carlo sampling\n"

    @pytest.mark.parametrize(
        "argv, z",
        [
            (("--family", "t2", "--z", "1", "--step", "5"), "1"),
            (("--family", "quad", "--z", "1/2", "--step", "1/5", "--range", "b2=1:2"), "1/2"),
        ],
    )
    def test_sweep_threshold_checked_before_the_grid(self, capsys, argv, z):
        # both grids are empty; the threshold is the error to report
        code, out, err = invoke(capsys, "sweep", *argv)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert f"threshold must satisfy z > 1, got {z}" in err

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

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    @pytest.mark.parametrize(
        "argv, option, message",
        [
            (("bound", "--body", T2_DESC), "--z", "threshold must satisfy z > 1, got -3/2"),
            (("montecarlo", "--body", T2_DESC, "--samples", "10"), "--z", "threshold must satisfy z > 1, got -3/2"),
            (("sweep", "--family", "t3", "--step", "1/10"), "--z", "threshold must satisfy z > 1, got -3/2"),
            (("sweep", "--family", "t3", "--z", "2"), "--step", "need step > 0, got -3/2"),
            (("plotdata", "--curve", "z2"), "--step", "need step > 0, got -3/2"),
            (("plotdata", "--curve", "z2"), "--st", "need step > 0, got -3/2"),
        ],
        ids=["bound-z", "montecarlo-z", "sweep-z", "sweep-step", "plotdata-step", "plotdata-step-prefix"],
    )
    def test_validation_error_negative_rational(self, capsys, argv, option, message, joined):
        # "-3/2" looks like an option to argparse; both forms reach the validator
        value = [f"{option}=-3/2"] if joined else [option, "-3/2"]
        code, out, err = invoke(capsys, *argv, *value)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("step", ["5", "3/2", "101/100"])
    def test_validation_error_empty_plotdata_grid(self, capsys, step):
        code, out, err = invoke(capsys, "plotdata", "--curve", "z2", "--step", step)
        assert (code, out) == (VALIDATION_ERROR, "")
        assert err == f"error: grid is empty: step {step} leaves no width in (1, 2]\n"

    @pytest.mark.parametrize("where", ["--body", "--body @file", "--f"])
    def test_validation_error_deep_json(self, capsys, tmp_path, where):
        # nested past the recursion limit, json.loads raises RecursionError
        deep = "[" * 100000
        path = tmp_path / "body.json"
        path.write_text(deep, encoding="utf-8")
        body, f = {
            "--body": (deep, '["1/2","1/2"]'),
            "--body @file": (f"@{path}", '["1/2","1/2"]'),
            "--f": ('{"type":"type1"}', deep),
        }[where]
        code, out, err = invoke(capsys, "strength", "--body", body, "--f", f)
        assert code == VALIDATION_ERROR
        assert out == ""
        assert "nested too deeply" in err

    @pytest.mark.parametrize(
        "argv, output",
        [(("sweep", "--family", "t2", "--z", "2"), "missing/x.csv"), (("plotdata", "--curve", "z2"), ".")],
        ids=["missing-directory", "directory"],
    )
    def test_validation_error_unwritable_output(self, capsys, tmp_path, argv, output):
        # a file in a missing directory, and a directory in place of the file
        code, out, err = invoke(capsys, *argv, "--output", str(tmp_path / output))
        assert code == VALIDATION_ERROR
        assert out == ""
        assert err.startswith("error:")


class TestParserReuse:
    """The parser is built once per process, so no call may leave state in it
    for the next: each call gives the exit code and bytes it gives first."""

    # the last sweep leaves to their defaults the options the first one sets
    CALLS = [
        ("sweep", "--family", "t2", "--z", "2", "--step", "1/4", "--range", "w=5/4:7/4", "--mc-samples", "50",
         "--seed", "3", "--format", "json"),
        ("sweep", "--family", "t2", "--z", "2", "--frobnicate"),
        ("bound", "--body", T3_NOT_VERTICAL_DESC, "--z", "7/4"),
        ("bound", "--body", T2_DESC, "--z", "7/4"),
        ("sweep", "--family", "quad", "--z", "3/2", "--step", "1/4"),
    ]

    def test_each_call_as_if_first(self, capsys):
        first = []
        for argv in self.CALLS:
            _parser.cache_clear()
            first.append(invoke(capsys, *argv))
        assert [code for code, _, _ in first] == [0, USAGE_ERROR, VALIDATION_ERROR, 0, 0]
        _parser.cache_clear()
        assert [invoke(capsys, *argv) for argv in self.CALLS] == first
        assert _parser.cache_info().misses == 1


class TestWholeDomain:
    def test_no_library_assertion(self):
        # no query path ends in an AssertionError: the package holds no
        # assert statement and raises no AssertionError
        found = []
        for path in sorted(Path(cutstrength.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(node, ast.Assert) or isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_no_unused_import(self):
        # every name a module of the package or of the tests imports is used
        # in it; the re-exports of __init__, __future__ and imports marked
        # "noqa: F401" are exempt
        unused = []
        modules = [*Path(cutstrength.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
        for path in sorted(modules):
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            lines, tree = text.splitlines(), ast.parse(text)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                    continue
                if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
        assert unused == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_only_validation_errors(self, data):
        # valid bodies of every family and root vertices on and off lattice
        # lines: the library raises nothing but ValueError, so the CLI's
        # except clause needs no other arithmetic error
        body = data.draw(any_body())
        f = data.draw(root_vertex(body))
        # z = 1 is a validation error of bound and montecarlo
        z = data.draw(st.fractions(1, 12, max_denominator=60))
        for n in (1, 2, 3):
            try:
                strength_report(body, f, n)
            except ValueError:
                pass
        try:
            bound_for(body, z)
        except ValueError:
            pass
        desc = json.dumps(body_descriptor(body))
        samples, seed = data.draw(st.integers(1, 200)), data.draw(st.integers(0, 2**64))
        argvs = [
            ["strength", "--body", desc, "--f", json.dumps([str(f.x1), str(f.x2)]), "--N", "3"],
            ["bound", "--body", desc, "--z", str(z)],
            ["montecarlo", "--body", desc, "--z", str(z), "--samples", str(samples), "--seed", str(seed)],
        ]
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            stdout, stderr = out.getvalue(), err.getvalue()
            # a result is one JSON line; an error is one stderr line and no output
            if code == 0:
                assert stdout.endswith("\n") and stdout.count("\n") == 1
                json.loads(stdout)
            else:
                assert code == VALIDATION_ERROR and stdout == ""
                assert stderr.startswith("error: ") and stderr.endswith("\n") and stderr.count("\n") == 1


# text for a rational argument: the table's strings, 400-digit integers,
# rationals just inside and just outside the families' bounds (0, 1, 2, and
# 1 + 2/sqrt(3), about 2.1547, the quad's a2 cut), and short junk
_EDGES = (F(0), F(1), F(2), F(21547, 10000))
_RATIONAL_TEXT = st.one_of(
    st.sampled_from([value for value, _ in RATIONAL_TABLE if isinstance(value, str)]),
    st.builds(lambda e, s, n: format_rational(e + s * F(1, n)), st.sampled_from(_EDGES), st.sampled_from((-1, 0, 1)),
              st.integers(1, 100)),
    st.builds(lambda s, k: str(s * (10**399 + k)), st.sampled_from((1, -1)), st.integers(0, 9)),
    st.text(max_size=6),
)
# a grid step: at least 1/5 where it is a positive rational, so that a sweep
# or a plot stays small
_STEP_TEXT = st.one_of(
    st.sampled_from([v for v, want in RATIONAL_TABLE if isinstance(v, str) and (want is None or want >= F(1, 5))]),
    st.fractions(F(1, 5), 3, max_denominator=20).map(format_rational),
    st.fractions(-2, 0, max_denominator=20).map(format_rational),
    st.text(max_size=6),
)
_JSON_NUMBER = st.one_of(
    _RATIONAL_TEXT, st.integers(-3, 3), st.integers(-10**400, 10**400), st.floats(), st.booleans(), st.none()
)
_JSON_PAIR = st.one_of(st.lists(_JSON_NUMBER, min_size=2, max_size=2), st.lists(_JSON_NUMBER, max_size=3), _JSON_NUMBER)
_MALFORMED_JSON = st.one_of(
    st.sampled_from(['{', '{"type":', '[[', '{"vertices":[["0","0"]', "nul", "", "[" * 100_000]), st.text(max_size=10)
)


@st.composite
def _body_text(draw):
    """A --body value: a valid descriptor or vertex list, a drawn object of
    any family with any values and keys left out, or malformed JSON."""
    kind = draw(st.sampled_from(("valid", "valid", "vertices", "drawn", "malformed")))
    if kind == "malformed":
        return draw(_MALFORMED_JSON)
    if kind == "valid":
        return json.dumps(body_descriptor(draw(any_body())))
    if kind == "vertices":
        cycle = [[format_rational(p.x1), format_rational(p.x2)] for p in draw(any_body()).polygon()]
        return json.dumps({"vertices": draw(st.permutations(cycle)) + draw(st.lists(_JSON_PAIR, max_size=2))})
    desc = {
        "type": draw(st.sampled_from(("type1", "type2", "type3", "quad", "split", "type4", None))),
        "a": draw(_JSON_PAIR), "b": draw(_JSON_PAIR), "b1": draw(_JSON_NUMBER), "normal": draw(_JSON_PAIR),
        "offset": draw(_JSON_NUMBER), "vertices": draw(st.lists(_JSON_PAIR, max_size=5)),
    }
    keep = draw(st.sets(st.sampled_from(sorted(desc))))
    return json.dumps({key: value for key, value in desc.items() if key in keep})


def _int_text(lo, hi):
    """Text for an int option: the ints from lo to hi, and the table's texts,
    none of which reads as more than 7."""
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from([text for text, _ in INT_TABLE]))


def _flag(draw, name, values, optional=True):
    """``[name, value]``, or nothing when the flag is optional and left out."""
    if optional and draw(st.booleans()):
        return []
    return [name, draw(values)]


@st.composite
def _argv(draw, tmp):
    """An argv of any of the seven commands, values drawn from the grammar;
    ``--body @path`` and ``--output`` name files in ``tmp``, a missing one,
    a file in a missing folder, or ``tmp`` itself."""
    command = draw(st.sampled_from(("classify", "width", "strength", "bound", "montecarlo", "sweep", "plotdata")))
    body = _flag(draw, "--body", _body_text(), optional=False)
    if draw(st.booleans()):  # the descriptor from a file, or from a file that is not there
        with open(f"{tmp}/body.json", "w", encoding="utf-8") as fh:
            fh.write(body[1])
        body[1] = draw(st.sampled_from((f"@{tmp}/body.json", f"@{tmp}/missing.json")))
    z = _flag(draw, "--z", st.one_of(_RATIONAL_TEXT, st.fractions(1, 4, max_denominator=20).map(format_rational)),
              optional=False)
    output = _flag(draw, "--output", st.sampled_from((f"{tmp}/out.txt", f"{tmp}/missing/out.txt", tmp)))
    if command in ("classify", "width"):
        return [command, *body]
    if command == "strength":
        if draw(st.booleans()):  # a valid body and a root vertex inside it
            valid = draw(any_body())
            body[1] = json.dumps(body_descriptor(valid))
            inside = draw(root_vertex(valid))
            f = json.dumps([format_rational(inside.x1), format_rational(inside.x2)])
        else:
            f = json.dumps(draw(_JSON_PAIR)) if draw(st.booleans()) else draw(_MALFORMED_JSON)
        return [command, *body, "--f", f, *_flag(draw, "--N", _int_text(-1, 20))]
    if command == "bound":
        return [command, *body, *z]
    if command == "montecarlo":
        samples = _flag(draw, "--samples", _int_text(-1, 1000))
        return [command, *body, *z, *samples, *_flag(draw, "--seed", _int_text(-1, 2**130))]
    if command == "plotdata":
        return [command, "--curve", draw(st.sampled_from(("z2", "z32", "z3"))), *_flag(draw, "--step", _STEP_TEXT),
                *output]
    # half the sweeps draw only well-formed values, so that some make rows
    if draw(st.booleans()):
        family, formats = draw(st.sampled_from(FAMILIES)), ("csv", "json")
        z = ["--z", format_rational(draw(st.fractions(1, 4, max_denominator=10)))]
        step = format_rational(draw(st.fractions(F(1, 5), 1, max_denominator=10)))
        params, sep = st.sampled_from(PARAMS[family]), st.just(":")
        bounds = st.fractions(-1, 3, max_denominator=10).map(format_rational)
    else:
        family, formats = draw(st.sampled_from((*FAMILIES, "t4"))), ("csv", "json", "xml")
        step = draw(_STEP_TEXT)  # the default step, 1/50, makes a quad grid of 648,001 rows
        params, sep = st.sampled_from((*PARAMS.get(family, ()), "c")), st.sampled_from((":", "", ";"))
        bounds = _RATIONAL_TEXT
    ranges = draw(st.lists(st.builds(lambda p, lo, s, hi: f"{p}={lo}{s}{hi}", params, bounds, sep, bounds), max_size=3))
    return ["sweep", "--family", family, *z, "--step", step, *(arg for item in ranges for arg in ("--range", item)),
            *_flag(draw, "--mc-samples", _int_text(-1, 100)), *_flag(draw, "--seed", _int_text(-1, 2**130)),
            *_flag(draw, "--format", st.sampled_from(formats)), *output]


class TestArgvGrammar:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exit_codes(self, data):
        # any argv of the seven commands exits 0, 2 or 3; a validation error
        # is one error line and no output, never a traceback
        with tempfile.TemporaryDirectory() as tmp:
            argv = data.draw(_argv(tmp))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        assert code in (0, USAGE_ERROR, VALIDATION_ERROR)
        if code == VALIDATION_ERROR:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")


FIXTURE_DESC = {
    "type1": '{"type":"type1"}',
    "type2": T2_DESC,
    "quad": '{"type":"quad","a":["2/5","3/2"],"b":["3/5","-3/10"]}',
    "t3": '{"type":"type3","a":["3","3/10"],"b1":"1/10"}',
}

# (fixture, f, region, chosen split, t_bar, t_N for N = 1, 5, 6), recorded
# with the Fraction simplex, at interior points and on lattice lines x1 = k or x2 = k
STRENGTH_GOLDEN = [
    ("type1", ("3/5", "3/5"), "R1", None, "2", ("2", "2", "2")),
    ("type1", ("1/5", "1/5"), "R2", None, "13/8", ("13/8", "13/8", "13/8")),
    ("type1", ("3/2", "1/4"), "R4", None, "5/3", ("5/3", "5/3", "5/3")),
    ("type1", ("1/2", "1"), "R1", None, "2", ("2", "2", "2")),
    ("type1", ("1", "1/3"), "R1", None, "2", ("2", "2", "2")),
    ("type2", ("1/4", "1/2"), "R1", (0, 1), "2", ("5/3", "5/3", "5/3")),
    ("type2", ("-1/4", "1/4"), "R3", (0, 1), "5/3", ("11/7", "23/15", "23/15")),
    ("type2", ("1/4", "1"), "R5", (1, 0), "5", ("3", "3", "3")),
    ("type2", ("0", "1/2"), "R1", (0, 1), "2", ("9/5", "9/5", "9/5")),
    ("type2", ("3/7", "9/11"), "R1", (0, 1), "15/4", ("87/43", "87/43", "87/43")),
    ("quad", ("1/3", "2/5"), "R2", (0, 1), "11/6", ("44681/36593", "44681/36593", "44681/36593")),
    ("quad", ("7/10", "3/4"), "R2", (0, 1), "3", ("108/67", "108/67", "108/67")),
    ("quad", ("1/2", "1"), "R4", (1, 0), "43/19", ("73/33", "73/33", "73/33")),
    ("quad", ("1", "1/2"), "R2", (0, 1), "2", ("44/25", "44/25", "44/25")),
    ("quad", ("5/11", "-1/9"), "R3", (1, 0), "79/35", ("91446221/42705452", "433447/220399", "433447/220399")),
    ("t3", ("1", "1/4"), "R1", (0, 1), "77/50", ("37561/25482", "37561/25482", "37561/25482")),
    ("t3", ("1/3", "1/5"), "R1", (0, 1), "67/40", ("22941/15713", "22941/15713", "22941/15713")),
    ("t3", ("1/2", "0"), "R4", (1, 0), "5", ("1537/337", "1537/337", "1537/337")),
    ("t3", ("1", "1/3"), "R1", (0, 1), "281/200", ("44575/32167", "44575/32167", "44575/32167")),
    ("t3", ("21/268", "-156951/3430400"), "R3", (1, 0), "87/7",
     ("542724581895/164309816839", "9850611792561/3104769642161", "56303658137/17984387801")),
]


class TestStrengthGolden:
    @pytest.mark.parametrize("fixture, f, region, split, t_bar, t_n", STRENGTH_GOLDEN)
    def test_stdout(self, capsys, fixture, f, region, split, t_bar, t_n):
        normal = "null" if split is None else f"[{split[0]}, {split[1]}]"
        for n, value in zip((1, 5, 6), t_n):
            code, out, _ = invoke(
                capsys, "strength", "--body", FIXTURE_DESC[fixture], "--f", json.dumps(f), "--N", str(n)
            )
            assert code == 0
            assert out == (
                f'{{"region": "{region}", "chosen_split_normal": {normal}, '
                f'"t_bar": "{t_bar}", "t_n": "{value}", "n": {n}}}\n'
            )


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
