import csv
import errno
import json
import os
import re
from fractions import Fraction

import pytest

from bqsos import cli
from bqsos.cli import build_parser, main
from bqsos.decomposition import length
from bqsos.fields import QuadraticField, UsageError, classify_field
from bqsos.orders import maximal_order
from bqsos.parser import parse_element
from bqsos.verification import sweep, verify_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "5", "--q", "13")
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 5 and data["s"] == 13 and data["t"] == 65
        assert data["type"] == "B4a"

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run(capsys, "classify", "--p", "4", "--q", "5")
        assert code == 1
        assert not out and "squarefree" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["length", "--p", "2", "--q", "3"])
        assert exc.value.code == 2


class TestLength:
    def test_known_length(self, capsys):
        code, out, _ = run(
            capsys, "length", "--p", "2", "--q", "3",
            "--elem", "6+sqrt(2)+sqrt(6)",
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "Exact" and data["length"] == 3
        assert len(data["witness"]) == 3
        assert all(isinstance(c, str) for c in data["alpha"]["coords"])

    def test_not_sum_of_squares(self, capsys):
        code, out, _ = run(
            capsys, "length", "--p", "2", "--q", "3", "--elem", "1+sqrt(2)"
        )
        assert code == 0
        assert json.loads(out)["status"] == "NotSumOfSquares"

    def test_quadratic_order_form(self, capsys):
        code, out, _ = run(
            capsys, "length", "--order", "quad-half:13",
            "--elem", "12+2*sqrt(13)",
        )
        assert code == 0
        assert json.loads(out)["length"] == 5

    def test_foreign_radical(self, capsys):
        code, _, err = run(
            capsys, "length", "--p", "2", "--q", "3", "--elem", "sqrt(7)"
        )
        assert code == 1 and "sqrt(7)" in err

    def test_custom_order(self, capsys):
        code, out, _ = run(
            capsys, "length", "--p", "2", "--q", "3",
            "--order", "gen:sqrt(2);sqrt(3)", "--elem", "6+2*sqrt(2)",
        )
        assert code == 0
        assert json.loads(out)["status"] == "Exact"

    def test_negative_max_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["length", "--p", "2", "--q", "3",
                  "--elem", "6+sqrt(2)+sqrt(6)", "--max-n", "-1"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestLowerBound:
    def test_atr_cap(self, capsys):
        code, out, _ = run(
            capsys, "lower-bound", "--p", "2", "--q", "3", "--atr-cap", "8"
        )
        assert code == 0
        data = json.loads(out)
        assert data["lower_bound"] == 3
        pretty = {w["alpha"]["pretty"] for w in data["witnesses"]}
        assert "6 + sqrt(2) + sqrt(6)" in pretty

    def test_tr_cap_warns(self, capsys):
        code, out, err = run(
            capsys, "lower-bound", "--p", "2", "--q", "3", "--tr-cap", "32"
        )
        assert code == 0
        assert json.loads(out)["atr_cap"] == "8"
        assert "divided by the degree" in err

    def test_tr_cap_quadratic(self, capsys):
        # a quadratic order has degree 2, so trace 24 is abs-trace 12
        code, out, err = run(
            capsys, "lower-bound", "--order", "quad-half:13", "--tr-cap", "24"
        )
        assert code == 0
        assert json.loads(out)["atr_cap"] == "12"
        assert "--atr-cap 12 " in err

    def test_cache_dir(self, capsys, tmp_path):
        argv = ["lower-bound", "--p", "2", "--q", "3", "--atr-cap", "6",
                "--cache", str(tmp_path)]
        code, first, _ = run(capsys, *argv)
        assert code == 0 and list(tmp_path.iterdir())
        code, second, _ = run(capsys, *argv)
        assert first == second

    def test_truncated_cache_is_recomputed(self, capsys, tmp_path):
        argv = ["lower-bound", "--p", "2", "--q", "3", "--atr-cap", "6",
                "--cache", str(tmp_path)]
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        (path,) = tmp_path.iterdir()
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        code, again, _ = run(capsys, *argv)
        assert code == 0 and again == cold
        assert path.read_text() == text

    def test_unstabilized_cache_is_recomputed(self, capsys, tmp_path):
        argv = ["lower-bound", "--p", "2", "--q", "3", "--atr-cap", "6",
                "--cache", str(tmp_path)]
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        (path,) = tmp_path.iterdir()
        text = path.read_text()
        payload = json.loads(text)
        payload["stabilized"] = False
        path.write_text(json.dumps(payload))
        code, again, _ = run(capsys, *argv)
        assert code == 0 and again == cold
        assert path.read_text() == text


class TestCapArguments:
    @pytest.mark.parametrize("caps", [
        ("--atr-cap", "1/0"),
        ("--atr-cap", "abc"),
        ("--atr-cap", "4", "--tr-cap", "8"),
        (),
    ])
    def test_usage_error(self, capsys, caps):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--p", "2", "--q", "3", *caps])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_gen_order_needs_field(self, capsys):
        # only quad: and quad-half: orders name their field themselves
        with pytest.raises(SystemExit) as exc:
            main(["lower-bound", "--order", "gen:sqrt(2);sqrt(3)", "--atr-cap", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bqsos lower-bound") and "--p and --q are required" in err

    def test_classify_needs_field(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bqsos classify") and "--q" in err


class TestProfile:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--p", "2", "--q", "5", "--atr-cap", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "length,abs_trace,alpha,witness"
        assert len(lines) > 1

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--p", "2", "--q", "5", "--atr-cap", "6"
        )
        assert code == 0
        data = json.loads(out)
        assert all(row["length"] >= 1 for row in data["rows"])


# (target arguments, atr-cap, the field the output's strings parse in)
DOCUMENT_CASES = [
    (("--p", "2", "--q", "3"), "8", classify_field(2, 3)),
    (("--order", "quad-half:13"), "12", QuadraticField(13)),
    (("--p", "5", "--q", "13"), "7", classify_field(5, 13)),
]


def parsed(field, rendered):
    """The element of a to_json form; its coords and pretty form agree."""
    x = parse_element(rendered["pretty"], field)
    assert [str(c) for c in x.coords()] == rendered["coords"]
    return x


def assert_replays(field, alpha, roots):
    total = field.zero()
    for w in roots:
        total = total + w * w
    assert total == alpha


@pytest.mark.parametrize("target, cap, field", DOCUMENT_CASES,
                         ids=["B1(2,3)", "quad-half:13", "B4a(5,13)"])
class TestDocuments:
    """The printed documents are the json module's and every witness in
    them parses back and replays."""

    def test_profile_json(self, capsys, target, cap, field):
        code, out, _ = run(capsys, "profile", *target, "--atr-cap", cap)
        assert code == 0
        data = json.loads(out)
        assert out == json.dumps(data, indent=2) + "\n"
        assert data["rows"]
        for row in data["rows"]:
            roots = [parsed(field, w) for w in row["witness"]]
            assert len(roots) == row["length"]
            assert_replays(field, parsed(field, row["alpha"]), roots)

    def test_profile_csv(self, capsys, target, cap, field):
        code, out, _ = run(capsys, "profile", *target, "--atr-cap", cap, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows
        for row in rows:
            alpha = parse_element(row["alpha"], field)
            assert str(alpha) == row["alpha"]
            assert Fraction(row["abs_trace"]) == alpha.abs_trace()
            assert row["witness"].count(")^2") == int(row["length"])
            assert parse_element(row["witness"], field) == alpha

    def test_lower_bound(self, capsys, target, cap, field):
        code, out, _ = run(capsys, "lower-bound", *target, "--atr-cap", cap)
        assert code == 0
        data = json.loads(out)
        assert out == json.dumps(data, indent=2) + "\n"
        assert data["witnesses"]
        for witness in data["witnesses"]:
            roots = [parsed(field, w) for w in witness["decomposition"]]
            assert len(roots) == data["lower_bound"]
            assert_replays(field, parsed(field, witness["alpha"]), roots)


class TestVerify:
    # a row's field object is the one the other commands print for the field
    def test_quadratic_baseline(self, capsys):
        code, out, _ = run(capsys, "verify", "--table", "thm3.1")
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0 and len(data["rows"]) == 7
        _, out, _ = run(capsys, "length", "--order", "quad:2", "--elem", "3")
        assert data["rows"][0]["field"] == json.loads(out)["field"]

    def test_lemma_item(self, capsys):
        code, out, _ = run(capsys, "verify", "--table", "lemma4.3", "--item", "1")
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0
        field = data["rows"][0]["field"]
        _, out, _ = run(capsys, "classify", "--p", str(field["p"]), "--q", str(field["q"]))
        assert field == json.loads(out)

    @pytest.mark.parametrize("item", ["0", "99"])
    def test_unknown_item_is_usage_error(self, capsys, item):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--table", "lemma4.3", "--item", item, "--s-max", "9"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [
        ("--item", "15", "--s-max", "-5"),
        ("--item", "15", "--s-max", "10"),
        ("--s-max", "10"),
    ])
    def test_s_max_below_least_s_is_usage_error(self, capsys, options):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--table", "lemma4.3", *options])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [
        ("thm3.1", "--item", "3"),
        ("prop4.4", "--item", "3"),
        ("thm3.1", "--s-max", "9"),
    ])
    def test_lemma_options_on_other_tables_are_usage_errors(self, capsys, options):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--table", *options])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_zero_time_budget_prints_partial_rows(self, capsys):
        code, out, err = run(
            capsys, "verify", "--table", "thm3.1", "--time-budget", "0"
        )
        assert code == 1
        assert len(json.loads(out)["rows"]) == 1
        assert "time budget" in err


class TestSweep:
    def test_streamed_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "MIs1",
            "--m-range", "17..17", "--s-range", "19..21",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert out == "".join(json.dumps(row) + "\n" for row in rows)
        assert {(r["p"], r["q"]) for r in rows} == {(17, 19), (17, 21)}
        assert all(r["status"] == "PASS" for r in rows)

    def test_twelve_branch_skips_near_shift_fields(self, capsys):
        # (10, 14): s - m = 4, where 7 + (1+sqrt(10))^2 is a sum of 3 squares
        code, out, _ = run(
            capsys, "sweep", "--family", "TwelveBranch",
            "--m-range", "10..10", "--s-range", "14..14",
        )
        assert code == 0
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert row["status"] == "NOT_APPLICABLE"
        assert "m+4" in row["reason"]

    def test_field_that_cannot_be_built_is_skipped(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "MIs1",
            "--m-range", "1..2", "--s-range", "3..3",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [(r["p"], r["q"], r["status"]) for r in rows] == [
            (1, 3, "SKIP"), (2, 3, "NOT_APPLICABLE"),
        ]
        assert "field" not in rows[0] and rows[0]["reason"]

    def test_budget_prints_partial_rows(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--family", "MIs1",
            "--m-range", "17..17", "--s-range", "19..21", "--node-budget", "1",
        )
        assert code == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [(r["p"], r["q"]) for r in rows] == [(17, 19)]
        assert "node budget" in err

    @pytest.mark.parametrize("ranges", [
        ("17", "18..19"),
        ("17..17", "18..x"),
        ("21..17", "18..23"),
        ("17..21", "23..18"),
    ])
    def test_malformed_range_is_usage_error(self, capsys, ranges):
        m_range, s_range = ranges
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "MIs1", "--m-range", m_range, "--s-range", s_range])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_zero_jobs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "MIs1", "--m-range", "17..17",
                  "--s-range", "19..21", "--jobs", "0"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_quadratic_family_on_biquadratic_grid(self, capsys):
        for family in ("QuadraticObs32", "QuadraticThm31"):
            code, out, err = run(
                capsys, "sweep", "--family", family,
                "--m-range", "2..2", "--s-range", "3..3",
            )
            assert code == 0 and "Traceback" not in err
            (row,) = [json.loads(line) for line in out.strip().splitlines()]
            assert row["status"] == "NOT_APPLICABLE"
            assert "quadratic field" in row["reason"]


# each usage rule, checked once in the library: (library call, CLI argv)
USAGE_RULES = {
    "max_n-nonnegative": (
        lambda: length(maximal_order(classify_field(2, 3)), classify_field(2, 3).one(),
                       max_n=-1),
        ("length", "--p", "2", "--q", "3", "--elem", "7", "--max-n", "-1")),
    "lemma-options-on-another-table": (
        lambda: verify_table("thm3.1", item=3),
        ("verify", "--table", "thm3.1", "--item", "3")),
    "s_max-at-least-least-s": (
        lambda: verify_table("lemma4.3", item=1, s_max=10),
        ("verify", "--table", "lemma4.3", "--item", "1", "--s-max", "10")),
    "range-not-reversed": (
        lambda: sweep("MIs1", (21, 17), (18, 23)),
        ("sweep", "--family", "MIs1", "--m-range", "21..17", "--s-range", "18..23")),
    "jobs-at-least-one": (
        lambda: sweep("MIs1", (17, 17), (19, 21), jobs=0),
        ("sweep", "--family", "MIs1", "--m-range", "17..17", "--s-range", "19..21",
         "--jobs", "0")),
    "family-known": (
        lambda: sweep("Nope", (17, 17), (19, 19)),
        ("sweep", "--family", "Nope", "--m-range", "17..17", "--s-range", "19..19")),
}


class TestUsageRules:
    """The library raises UsageError, a ValueError, for a usage rule; the
    CLI reports it as exit 2 with the usage line of the subcommand."""

    @pytest.mark.parametrize("rule", USAGE_RULES)
    def test_library_raises_usage_error(self, rule):
        call, _ = USAGE_RULES[rule]
        with pytest.raises(UsageError) as exc:
            call()
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("rule", USAGE_RULES)
    def test_cli_exits_2(self, capsys, rule):
        _, argv = USAGE_RULES[rule]
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: bqsos {argv[0]} ") and not captured.out


# a path that cannot be opened: (argv given the test's tmp_path, errno)
BAD_PATHS = {
    "resume-in-missing-dir": (
        lambda tmp: ("sweep", "--family", "MIs1", "--m-range", "17..17",
                     "--s-range", "19..19", "--resume", str(tmp / "missing" / "x.jsonl")),
        errno.ENOENT),
    "resume-is-a-directory": (
        lambda tmp: ("sweep", "--family", "MIs1", "--m-range", "17..17",
                     "--s-range", "19..19", "--resume", str(tmp)),
        errno.EISDIR),
    "cache-is-a-file": (
        lambda tmp: ("lower-bound", "--p", "2", "--q", "3", "--atr-cap", "4",
                     "--cache", str(tmp / "file")),
        errno.ENOTDIR),
}


class TestBadPaths:
    """An OSError from a path on the command line is one error line on
    stderr and exit 1, not a traceback."""

    @pytest.mark.parametrize("case", BAD_PATHS)
    def test_error_line_and_exit_1(self, capsys, tmp_path, case):
        argv, code = BAD_PATHS[case]
        (tmp_path / "file").write_text("")
        exit_code, out, err = run(capsys, *argv(tmp_path))
        assert exit_code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.strerror(code) in err


# one argv per payload shape main emits; the length payloads carry the float
# millis, and a zero time budget emits the partial rows of a verify table
EMIT_CASES = {
    "classify": ("classify", "--p", "5", "--q", "13"),
    "length-exact": ("length", "--p", "2", "--q", "3", "--elem", "6+sqrt(2)+sqrt(6)"),
    "length-not-sos": ("length", "--p", "2", "--q", "3", "--elem", "5+sqrt(6)"),
    "length-undetermined": ("length", "--p", "2", "--q", "3", "--elem", "7", "--max-n", "1"),
    "lower-bound": ("lower-bound", "--p", "2", "--q", "3", "--atr-cap", "8"),
    "profile": ("profile", "--order", "quad-half:13", "--atr-cap", "12"),
    "verify-lemma4.3": ("verify", "--table", "lemma4.3"),
    "verify-prop4.4": ("verify", "--table", "prop4.4"),
    "verify-thm3.1": ("verify", "--table", "thm3.1"),
    "verify-partial": ("verify", "--table", "thm3.1", "--time-budget", "0"),
}
LENGTH_STATUSES = {
    "length-exact": "Exact",
    "length-not-sos": "NotSumOfSquares",
    "length-undetermined": "Undetermined",
}


class Labelled(dict):
    pass


class TestRenderer:
    """_emit prints exactly what json.dumps(payload, indent=2) prints."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        payloads = []
        emit = cli._emit

        def record(payload):
            payloads.append(payload)
            emit(payload)

        monkeypatch.setattr(cli, "_emit", record)
        return payloads

    @pytest.mark.parametrize("case", EMIT_CASES)
    def test_subcommand_payloads(self, capsys, emitted, case):
        main(list(EMIT_CASES[case]))
        (payload,) = emitted
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
        if case in LENGTH_STATUSES:
            assert payload["status"] == LENGTH_STATUSES[case]
            assert isinstance(payload["millis"], float)
        if case == "verify-partial":
            assert len(payload["rows"]) == 1

    def test_synthetic_payload(self):
        shared = {"coords": ["1", "-1/2"], "pretty": "1 - 1/2*sqrt(2)"}
        payload = {
            "scalars": [True, False, None, 0, -7, 2**64 + 1, 0.1, -0.0, 1e300],
            "floats": (float("inf"), float("-inf"), float("nan")),
            "tuple": (1, ("a", ()), [{}]),
            "text": ["√2 · ∑", "é", "\x00\x1f\t\n\"\\/", "\ud83d\ude00", ""],
            "empty": [{}, [], {"a": {}, "b": [[], [{}]]}],
            "subclass": Labelled(x=1, y=Labelled(), z=[Labelled(w="v")]),
            "shared": [shared, {"deeper": [shared, shared]}, shared],
            "last": shared,
        }
        assert cli._indented_json(payload) == json.dumps(payload, indent=2)
        for top in ([], {}, "s", 3, None, 1.5, shared):
            assert cli._indented_json(top) == json.dumps(top, indent=2)

    @pytest.mark.parametrize("payload", [
        {"k": {1, 2}}, [object()], {(1, 2): 3},
        # json.dumps converts these keys to str; no CLI payload has one, so
        # the renderer takes str keys only
        {1: "int"}, {2.5: "float"}, {True: "bool"}, {None: "null"},
    ], ids=["set", "object", "tuple-key", "int-key", "float-key", "bool-key", "null-key"])
    def test_unsupported_types_raise_as_in_json(self, payload):
        with pytest.raises(TypeError) as got:
            cli._indented_json(payload)
        if not isinstance(payload, dict) or all(type(k) is str for k in payload):
            # an unsupported value is reported as json.dumps reports it
            with pytest.raises(TypeError) as expected:
                json.dumps(payload, indent=2)
            assert str(got.value) == str(expected.value)


class TestParserReuse:
    """main parses every call with one parser and prints what a fresh
    parser's call prints."""

    SEQUENCE = [
        ("profile", "--p", "2", "--q", "5", "--atr-cap", "6", "--format", "csv"),
        ("profile", "--p", "2", "--q", "5", "--atr-cap", "6"),
        ("lower-bound", "--p", "2", "--q", "3", "--atr-cap", "8"),
        ("lower-bound", "--p", "2", "--q", "3", "--tr-cap", "32"),
        ("profile", "--p", "2", "--q", "3", "--atr-cap", "4", "--tr-cap", "16"),
        ("length", "--order", "quad-half:13", "--elem", "12+2*sqrt(13)"),
        ("length", "--p", "2", "--q", "3", "--elem", "7", "--max-n", "1"),
        ("length", "--p", "2", "--q", "3", "--elem", "7"),
        ("verify", "--table", "thm3.1", "--item", "3"),
        ("classify", "--p", "5", "--q", "13"),
    ]

    def outputs(self, capsys):
        """(exit code, stdout with millis zeroed, stderr) per call."""
        seen = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            out = re.sub(r'"millis": [0-9.e+-]+', '"millis": 0', out)
            seen.append((code, out, err))
        return seen

    def test_one_parser_per_process(self):
        assert cli._shared_parser() is cli._shared_parser()
        assert build_parser() is not build_parser()

    def test_shared_parser_prints_what_fresh_parsers_print(self, capsys, monkeypatch):
        shared = self.outputs(capsys)
        monkeypatch.setattr(cli, "_shared_parser", build_parser)
        fresh = self.outputs(capsys)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0, 0, 0, 2, 0]
        assert shared[0][1].startswith("length,abs_trace,")
        assert json.loads(shared[1][1])["rows"]
        assert "divided by the degree" in shared[3][2] and not shared[2][2]
        assert "usage:" in shared[4][2] and "usage:" in shared[8][2]
        assert json.loads(shared[6][1])["status"] == "Undetermined"
        assert json.loads(shared[7][1])["status"] == "Exact"
