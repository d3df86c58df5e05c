import json
import sys

import pytest

from npcuboid import FactorizationExceeded
from npcuboid.cli import _rho_budget, _Usage, main
from npcuboid.factoring import DEFAULT_RHO_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def decimal_text(values):
    """Decimal text of integers of any length, whatever the interpreter's
    limit on int-to-str conversion; that limit is left as it was."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


class TestPointCommands:
    def test_double_golden(self, capsys):
        payload = run_json(capsys, "point", "double", "--N", "5", "--x=-4", "--y", "6")
        assert payload == {"N": 5, "x": "1681/144", "y": "-62279/1728"}

    def test_add_two_torsion(self, capsys):
        payload = run_json(
            capsys, "point", "add", "--N", "5", "--x=-4", "--y", "6", "--x2", "0", "--y2", "0"
        )
        assert payload == {"N": 5, "x": "25/4", "y": "75/8"}

    def test_mul_lands_on_curve(self, capsys):
        payload = run_json(capsys, "point", "mul", "-k", "3", "--N", "5", "--x=-4", "--y", "6")
        from npcuboid import CongruentCurve, parse_rational

        point = CongruentCurve(5).point(
            parse_rational(payload["x"]), parse_rational(payload["y"])
        )
        assert point.on_curve()

    def test_reflections(self, capsys):
        payload = run_json(capsys, "point", "reflect1", "--N", "5", "--x=-4", "--y", "6")
        assert payload == {"N": 5, "x": "25/4", "y": "-75/8"}
        payload = run_json(capsys, "point", "reflect2", "--N", "5", "--x=-4", "--y", "6")
        assert payload == {"N": 5, "x": "-5/9", "y": "100/27"}
        payload = run_json(capsys, "point", "reflect3", "--N", "5", "--x=-4", "--y", "6")
        assert payload == {"N": 5, "x": "45", "y": "300"}

    def test_check_on_curve(self, capsys):
        code, out, _ = run(capsys, "point", "check", "--N", "5", "--x=-4", "--y", "6")
        assert code == 0 and json.loads(out)["on_curve"] is True

    def test_check_off_curve_exits_one(self, capsys):
        code, out, _ = run(capsys, "point", "check", "--N", "5", "--x", "1", "--y", "1")
        assert code == 1 and json.loads(out)["on_curve"] is False

    def test_operations_reject_off_curve_input(self, capsys):
        code, _, err = run(capsys, "point", "double", "--N", "5", "--x", "1", "--y", "1")
        assert code == 1 and "not on the curve" in err

    def test_secant_rejects_off_curve_input(self, capsys):
        code, out, err = run(
            capsys, "secant", "--N", "5", "--x", "1", "--y", "1", "--x2", "2", "--y2", "3"
        )
        assert code == 1 and out == "" and "not on the curve" in err

    def test_secant(self, capsys):
        payload = run_json(
            capsys, "secant", "--N", "5", "--x", "0", "--y", "0", "--x2", "5", "--y2", "0"
        )
        assert payload == {"d": "0"}


# The golden cuboid as npc generate writes it, with its source.
GOLDEN_SOURCE = {"N": 34, "X": "833/16", "Z": "153/4", "parametrization": "invariant"}
GOLDEN_RECORD = {
    "a": 672, "b": 153, "c": 104, "d_ac": 680, "d_bc": 185, "d_s": 697, "source": GOLDEN_SOURCE,
}


class TestNpcCommands:
    def test_generate_invariant_golden(self, capsys):
        payload = run_json(
            capsys, "npc", "generate", "--N", "5", "--X", "25/4", "--Z", "1681/144",
            "--param", "invariant",
        )
        assert payload["a"] == 9840 and payload["b"] == 4557 and payload["c"] == 3124
        assert payload["d_ac"] == 10324 and payload["d_bc"] == 5525
        assert payload["d_s"] == 11285
        assert payload["pc"] is False
        assert payload["source"]["parametrization"] == "invariant"

    def test_generate_rejects_equal_abscissae(self, capsys):
        code, _, err = run(
            capsys, "npc", "generate", "--N", "5", "--X", "25/4", "--Z", "25/4"
        )
        assert code == 1 and "distinct" in err

    def test_generate_rejects_non_curve_abscissa(self, capsys):
        code, _, err = run(capsys, "npc", "generate", "--N", "5", "--X", "3", "--Z", "25/4")
        assert code == 1

    def test_verify_golden(self, capsys):
        payload = run_json(
            capsys, "npc", "verify", "--a", "9840", "--b", "4557", "--c", "3124",
            "--dac", "10324", "--dbc", "5525", "--ds", "11285",
        )
        assert payload["violations"] == [] and payload["pc"] is False

    def test_verify_detects_perturbation(self, capsys):
        code, out, _ = run(
            capsys, "npc", "verify", "--a", "672", "--b", "153", "--c", "104",
            "--dac", "680", "--dbc", "185", "--ds", "698",
        )
        assert code == 1
        assert json.loads(out)["violations"] == ["space_diagonal"]

    def test_verify_from_file(self, capsys, tmp_path):
        record = run_json(
            capsys, "npc", "generate", "--N", "5", "--X", "25/4", "--Z", "1681/144"
        )
        path = tmp_path / "cuboid.json"
        path.write_text(json.dumps(record))
        payload = run_json(capsys, "npc", "verify", "--in", str(path))
        assert payload["violations"] == []

    def test_verify_missing_values_is_usage_error(self, capsys):
        code, _, err = run(capsys, "npc", "verify", "--a", "672")
        assert code == 2 and "missing cuboid values" in err

    @pytest.mark.parametrize("flags", [["--a", "1"], ["--ds", "697", "--dabsq", "7"]])
    def test_verify_file_and_value_flags_is_usage_error(self, capsys, tmp_path, flags):
        # The file and the flags are two sources of one cuboid; neither wins.
        path = tmp_path / "cuboid.json"
        path.write_text(json.dumps({"a": 1}))
        code, out, err = run(capsys, "npc", "verify", "--in", str(path), *flags)
        given = " ".join(flag for flag in flags if flag.startswith("--"))
        assert code == 2 and out == ""
        assert f"by --in {path} or by {given}, not both" in err

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"a": 672, "b": 153}, "lacks field 'c'"),
            ([], "malformed"),
            # Each was read silently: true as 1, N = 5.9 as 5 and 7 as "7".
            ({**GOLDEN_RECORD, "a": True}, "a must be an integer or a rational, got True"),
            (
                {**GOLDEN_RECORD, "source": {**GOLDEN_SOURCE, "N": 5.9}},
                "N must be an integer, got 5.9",
            ),
            (
                {**GOLDEN_RECORD, "source": {**GOLDEN_SOURCE, "parametrization": 7}},
                "parametrization must be a string, got 7",
            ),
        ],
        ids=["missing-field", "not-an-object", "boolean-entry", "float-source-N",
             "numeric-parametrization"],
    )
    def test_malformed_file_is_usage_error(self, capsys, tmp_path, record, message):
        path = tmp_path / "cuboid.json"
        path.write_text(json.dumps(record))
        code, out, err = run(capsys, "npc", "verify", "--in", str(path))
        assert code == 2 and out == "" and message in err

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        # UnicodeDecodeError is a ValueError, and exited 1 as a domain error.
        path = tmp_path / "cuboid.json"
        path.write_bytes(json.dumps(GOLDEN_RECORD).encode()[:-1] + b"\xff}")
        code, out, err = run(capsys, "npc", "verify", "--in", str(path))
        assert code == 2 and out == "" and "can't decode byte 0xff" in err

    @pytest.mark.parametrize("value", [672.0, None, False], ids=["float", "null", "boolean"])
    @pytest.mark.parametrize("field", ["a", "d_s", "d_ab_sq", "source.X", "source.Z"])
    def test_inexact_json_field_is_usage_error(self, capsys, tmp_path, field, value):
        # A float was read from its repr (672.0 as 672) and null exited 1.
        record = {**GOLDEN_RECORD, "source": dict(GOLDEN_SOURCE)}
        if field.startswith("source."):
            record["source"][field.split(".")[1]] = value
        else:
            record[field] = value
        path = tmp_path / "cuboid.json"
        path.write_text(json.dumps(record))
        name = field.split(".")[-1]
        code, out, err = run(capsys, "npc", "verify", "--in", str(path))
        assert code == 2 and out == ""
        assert f"{name} must be an integer or a rational, got {value!r}" in err


    # Fraction reads each of these; the flags and JSON fields take "p/q" text.
    NOT_RATIONAL_TEXT = ["672.0", "1.53e2", "1_000", ".5", "1e-3", "abc"]

    @pytest.mark.parametrize("text", NOT_RATIONAL_TEXT)
    def test_non_rational_flag_is_domain_error(self, capsys, text):
        code, out, err = run(
            capsys, "npc", "verify", "--a", text, "--b", "153", "--c", "104",
            "--dac", "680", "--dbc", "185", "--ds", "697",
        )
        assert code == 1 and out == ""
        assert f"not a rational: {text!r}" in err

    @pytest.mark.parametrize("text", NOT_RATIONAL_TEXT)
    @pytest.mark.parametrize("field", ["a", "source.X"])
    def test_non_rational_json_text_is_domain_error(self, capsys, tmp_path, field, text):
        record = {**GOLDEN_RECORD, "source": dict(GOLDEN_SOURCE)}
        if field.startswith("source."):
            record["source"][field.split(".")[1]] = text
        else:
            record[field] = text
        path = tmp_path / "cuboid.json"
        path.write_text(json.dumps(record))
        code, out, err = run(capsys, "npc", "verify", "--in", str(path))
        assert code == 1 and out == ""
        assert f"not a rational: {text!r}" in err


class TestInvertCommand:
    GOLDEN = ("--a", "672", "--b", "153", "--c", "104",
              "--dac", "680", "--dbc", "185", "--ds", "697")

    def test_invariant(self, capsys):
        payload = run_json(capsys, "invert", *self.GOLDEN)
        assert payload["N"] == 34
        assert payload["pairs"][0] == {"X": "833/16", "Z": "153/4", "which": "I"}
        assert payload["pairs"][3] == {"X": "-578/81", "Z": "-2", "which": "IV"}

    def test_first_family(self, capsys):
        payload = run_json(capsys, "invert", *self.GOLDEN, "--family", "first")
        assert payload["N"] == 4305
        assert payload["pairs"][0]["X"] == "452025/64"

    def test_second_family(self, capsys):
        payload = run_json(capsys, "invert", *self.GOLDEN, "--family", "second")
        assert payload["N"] == 1717170

    def test_classify_relabels(self, capsys):
        payload = run_json(
            capsys, "invert", "--classify", "--a", "104", "--b", "672", "--c", "153",
            "--dac", "680", "--dbc", "185", "--ds", "697",
        )
        assert payload["N"] == 34
        assert payload["cuboid"]["c"] == 104

    def test_classify_keeps_a_given_d_ab_sq(self, capsys):
        payload = run_json(capsys, "invert", "--classify", *self.GOLDEN, "--dabsq", "474993")
        assert payload["N"] == 34
        assert payload["cuboid"]["d_ab_sq"] == 474993

    def test_classify_refuses_a_wrong_d_ab_sq(self, capsys):
        # As the inversion without --classify does: no labeling has a^2 + b^2 = 7.
        code, out, err = run(capsys, "invert", *self.GOLDEN, "--dabsq", "7")
        assert code == 1 and out == "" and "violated relations: ab_diagonal" in err
        code, out, err = run(capsys, "invert", "--classify", *self.GOLDEN, "--dabsq", "7")
        assert code == 1 and out == ""
        assert "no labeling of the given values satisfies the cuboid relations" in err

    def test_classify_missing_value_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "invert", "--classify", "--a", "672", "--b", "153", "--c", "104",
            "--dac", "680", "--dbc", "185",
        )
        assert code == 2 and out == ""
        assert "missing cuboid values: --ds" in err and "--in" not in err

    def test_entries_past_the_default_digit_limit(self, capsys):
        # The first cuboid of (36P, 38P) on N=5 has entries of over 4300
        # digits, the interpreter's default limit for int <-> str conversion.
        from npcuboid import CongruentCurve, build_npc, same_parity_pair

        pair = same_parity_pair(CongruentCurve(5).point(-4, 6), 36, 38)
        a, b, c, d_bc, d_ac, d_s = decimal_text(
            int(v) for v in build_npc(pair, "first").rational_entries()
        )
        assert max(map(len, (a, b, c, d_bc, d_ac, d_s))) > 4300
        limit = sys.get_int_max_str_digits()
        payload = run_json(
            capsys, "invert", "--family", "first", "--a", a, "--b", b, "--c", c,
            "--dac", d_ac, "--dbc", d_bc, "--ds", d_s,
        )
        assert payload["N"] == 5
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("family", ["invariant", "first", "second"])
    def test_kernel_with_a_prime_past_the_first_trial_stage(self, capsys, family):
        # The triangle (u, v) = (10010, 1), with legs a = u^2 - v^2, b = 2uv
        # and hypotenuse c, gives the point (c^2/4, c(b^2 - a^2)/8) of the
        # curve N = uv(u - v)(u + v). That N is squarefree and has the prime
        # u - v = 10009, so its kernel passes the trial stage up to 10^4.
        n, x, y = "1003002990990", "10040060240410201/4", "-1006014969814705299949501/8"
        three = run_json(capsys, "point", "mul", "-k", "3", "--N", n, f"--x={x}", f"--y={y}")
        record = run_json(
            capsys, "npc", "generate", "--N", n, "--X", x, "--Z", three["x"], "--param", family
        )
        flags = [
            value
            for flag, field in (("a", "a"), ("b", "b"), ("c", "c"),
                                ("dac", "d_ac"), ("dbc", "d_bc"), ("ds", "d_s"))
            for value in (f"--{flag}", str(record[field]))
        ]
        payload = run_json(capsys, "invert", "--family", family, *flags)
        assert payload["N"] == int(n) and payload["N"] % 10009 == 0

    def test_malformed_sides(self, capsys):
        code, _, err = run(
            capsys, "invert", "--a", "box", "--b", "153", "--c", "104",
            "--dac", "680", "--dbc", "185", "--ds", "697",
        )
        assert code == 1

    def test_non_npc_input(self, capsys):
        code, _, err = run(
            capsys, "invert", "--a", "3", "--b", "4", "--c", "5",
            "--dac", "6", "--dbc", "7", "--ds", "8",
        )
        assert code == 1 and "violated" in err

    def test_factor_budget_exhaustion_maps_to_exit_three(self, capsys, monkeypatch):
        import npcuboid.cli as cli

        def exhausted(*args, **kwargs):
            raise FactorizationExceeded("budget spent")

        monkeypatch.setattr(cli, "recover_invariant", exhausted)
        code, _, err = run(capsys, "invert", *self.GOLDEN)
        assert code == 3 and "budget" in err


class TestKummerCommand:
    def test_golden(self, capsys):
        payload = run_json(
            capsys, "kummer", "--N", "5", "--X", "25/4", "--Y", "75/8",
            "--Z", "1681/144", "--W", "62279/1728",
        )
        assert payload == {
            "xi": "5/4",
            "zeta": "1681/720",
            "eta": "62279/23040",
            "identity_holds": True,
        }

    def test_off_curve_rejected(self, capsys):
        code, _, err = run(
            capsys, "kummer", "--N", "5", "--X", "1", "--Y", "1",
            "--Z", "1681/144", "--W", "62279/1728",
        )
        assert code == 1 and "not on the curve" in err


class TestSearchCommand:
    @staticmethod
    def write_job(tmp_path, **overrides):
        record = {
            "seeds": [{"N": 5, "x": "-4", "y": "6"}],
            "max_multiple": 4,
            "parametrizations": ["invariant"],
            "height_limit": 1000,
        }
        record.update(overrides)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(record))
        return path

    def test_stdout_records(self, capsys, tmp_path):
        path = self.write_job(tmp_path)
        code, out, _ = run(capsys, "search", str(path))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert any("cuboid" in r for r in records)

    def test_worker_counts_agree(self, capsys, tmp_path):
        job = self.write_job(tmp_path)
        out1, out2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        assert run(capsys, "search", str(job), "--out", str(out1))[0] == 0
        assert run(capsys, "search", str(job), "--workers", "2", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_resume_appends_missing_records(self, capsys, tmp_path):
        job = self.write_job(tmp_path)
        full = tmp_path / "full.jsonl"
        assert run(capsys, "search", str(job), "--out", str(full))[0] == 0
        lines = full.read_text().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:2]))
        assert run(capsys, "search", str(job), "--out", str(partial), "--resume")[0] == 0
        assert partial.read_text() == full.read_text()

    def test_resume_after_torn_final_line(self, capsys, tmp_path):
        job = self.write_job(tmp_path)
        full = tmp_path / "full.jsonl"
        assert run(capsys, "search", str(job), "--out", str(full))[0] == 0
        data = full.read_bytes()
        complete = len(b"".join(data.splitlines(keepends=True)[:3]))
        # Cut inside the third record, then just before its newline.
        for cut in (complete - 40, complete - 1):
            partial = tmp_path / "partial.jsonl"
            partial.write_bytes(data[:cut])
            assert run(capsys, "search", str(job), "--out", str(partial), "--resume")[0] == 0
            assert partial.read_bytes() == data

    @pytest.mark.parametrize(
        "tail",
        ["[1]\n", '{"N":5,"k":1,"m":3,"parametrization":"fourth"}\n', '[1]\n{"N":5,"k":1'],
        ids=lambda tail: tail.rstrip("\n"),
    )
    def test_resume_after_a_line_that_is_not_a_record_is_usage_error(
        self, capsys, tmp_path, tail
    ):
        # A list crashed the resume; an unknown parametrization was skipped,
        # so the sweep restarted and appended after the foreign line. A torn
        # fragment after the foreign line was cut before the file was refused.
        job = self.write_job(tmp_path)
        full = tmp_path / "full.jsonl"
        assert run(capsys, "search", str(job), "--out", str(full))[0] == 0
        partial = tmp_path / "partial.jsonl"
        partial.write_text(full.read_text().splitlines(keepends=True)[0] + tail)
        before = partial.read_bytes()
        code, _, err = run(capsys, "search", str(job), "--out", str(partial), "--resume")
        assert code == 2 and "not a sweep record" in err
        assert partial.read_bytes() == before

    def test_missing_job_file(self, capsys):
        code, _, err = run(capsys, "search", "missing.json")
        assert code == 2 and "not found" in err

    def test_malformed_job_file(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "search", str(path))
        assert code == 2

    def test_undecodable_job_file(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_bytes(b'{"max_multiple": 4, "parity": "\xff"}')
        code, out, err = run(capsys, "search", str(path))
        assert code == 2 and out == "" and "can't decode byte 0xff" in err

    def test_undecodable_seed_file(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_bytes(b'{"N": 5, "x": "-4", "y": "6"}\n\xff\n')
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"max_multiple": 4}))
        code, out, err = run(capsys, "search", str(path), "--seeds", str(seeds))
        assert code == 2 and out == "" and "can't decode byte 0xff" in err

    @pytest.mark.parametrize(
        "line, code, message",
        [
            ('{"N": 5.9, "x": "-4", "y": "6"}', 2, "N must be an integer, got 5.9"),
            ("{not json", 2, "Expecting property name"),
            ('{"N": 5}', 2, "'x'"),
            ('{"N": 5, "x": "1.5", "y": "6"}', 1, "not a rational: '1.5'"),
            ('{"N": 5, "x": "1", "y": "1"}', 1, "is not a nontrivial curve point"),
        ],
        ids=["float-N", "not-json", "no-x", "decimal-x", "off-the-curve"],
    )
    def test_seed_file_line_exits_as_the_seed_inline(self, capsys, tmp_path, line, code, message):
        # A line that is no JSON record of the right shape is a usage error;
        # a well-formed line that names no curve point is a domain error.
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text(line + "\n")
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"max_multiple": 4}))
        result = run(capsys, "search", str(path), "--seeds", str(seeds))
        assert result[:2] == (code, "") and "seed line 1" in result[2] and message in result[2]

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"seeds": [{"N": 5, "x": "-4", "y": "6"}]}, "lacks field 'max_multiple'"),
            ({"seeds": [{"N": 5, "x": "-4"}], "max_multiple": 4}, "lacks field 'y'"),
            ([], "malformed"),
            ({"seeds": ["5"], "max_multiple": 4}, "malformed"),
            (
                {"seeds": [{"N": 5.9, "x": "-4", "y": "6"}], "max_multiple": 4},
                "N must be an integer, got 5.9",
            ),
            (
                {"seeds": [{"N": "5", "x": "-4", "y": "6"}], "max_multiple": 4},
                "N must be an integer, got '5'",
            ),
            (
                {"seeds": [{"N": 5, "x": "-4", "y": "6"}], "max_multiple": 3.9},
                "max_multiple must be an integer, got 3.9",
            ),
            (
                {"seeds": [{"N": 5, "x": "-4", "y": "6"}], "max_multiple": True},
                "max_multiple must be an integer, got True",
            ),
            (
                {"seeds": [{"N": 5, "x": "-4", "y": "6"}], "max_multiple": 4,
                 "height_limit": 50.5},
                "height_limit must be an integer, got 50.5",
            ),
            (
                {"seeds": [{"N": 5, "x": "-4", "y": "6"}], "max_multiple": 4,
                 "parametrizations": "invariant"},
                "parametrizations must be a list, got 'invariant'",
            ),
            (
                {"max_multiple": 3, "parametrizations": [1]},
                "parametrizations must be strings, got [1]",
            ),
            ({"seeds": {}, "max_multiple": 4}, "seeds must be a list, got {}"),
            (
                {"seeds": {"N": 5}, "max_multiple": 4},
                "seeds must be a list, got {'N': 5}",
            ),
            (
                {"seeds": [{"N": 5, "x": "-4", "y": "6"}], "max_multiple": 4,
                 "parity": ["odd"]},
                "parity must be a string, got ['odd']",
            ),
            # A key no job has is refused, not dropped: a misspelled
            # height_limit would otherwise sweep at the default limit.
            ({"max_multiple": 3, "extra": 1}, "unknown job keys ['extra']"),
            ({"max_multiple": 3, "height_limt": 1000}, "unknown job keys ['height_limt']"),
        ],
        ids=[
            "no-max-multiple", "seed-without-y", "not-an-object", "seed-not-an-object",
            "float-N", "string-N", "float-max-multiple", "boolean-max-multiple",
            "float-height-limit", "parametrizations-not-a-list",
            "parametrization-not-a-string", "seeds-empty-object",
            "seeds-an-object", "parity-a-list", "unknown-key", "misspelled-height-limit",
        ],
    )
    def test_malformed_job_record_is_usage_error(self, capsys, tmp_path, record, message):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(record))
        code, out, err = run(capsys, "search", str(path))
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("seed_file", ["missing", "present"])
    def test_inline_seeds_and_seed_file_is_usage_error(self, capsys, tmp_path, seed_file):
        # The job names its seeds and so does --seeds: neither is silently
        # ignored, whether the file exists or not.
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "seeds": [{"N": 5, "x": "-4", "y": "6"}],
            "max_multiple": 3,
            "parametrizations": ["first"],
        }))
        seeds = tmp_path / "seeds.jsonl"
        if seed_file == "present":
            seeds.write_text(json.dumps({"N": 6, "x": "-3", "y": "9"}) + "\n")
        code, out, err = run(capsys, "search", str(job), "--seeds", str(seeds))
        assert code == 2 and out == ""
        assert f'the job\'s "seeds" or by --seeds {seeds}, not both' in err

    def run_seed(self, capsys, tmp_path, where, seed):
        """A search whose one seed record is inline in the job or a line of
        --seeds."""
        if where == "inline":
            return run(capsys, "search", str(self.write_job(tmp_path, seeds=[seed])))
        seeds = tmp_path / "seeds.jsonl"
        seeds.write_text(json.dumps(seed) + "\n")
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"max_multiple": 4}))
        return run(capsys, "search", str(job), "--seeds", str(seeds))

    @pytest.mark.parametrize("where", ["inline", "seed-file"])
    @pytest.mark.parametrize("value", ["false", 0, 1], ids=["text", "zero", "one"])
    def test_non_boolean_infinity_is_usage_error(self, capsys, tmp_path, value, where):
        # Text, 0 and 1 are not JSON booleans, whatever their truth value.
        seed = {"N": 5, "x": "-4", "y": "6", "infinity": value}
        code, out, err = self.run_seed(capsys, tmp_path, where, seed)
        assert code == 2 and out == ""
        assert f"infinity must be a boolean, got {value!r}" in err

    @pytest.mark.parametrize("where", ["inline", "seed-file"])
    def test_infinity_seed_is_domain_error(self, capsys, tmp_path, where):
        code, out, err = self.run_seed(capsys, tmp_path, where, {"N": 5, "infinity": True})
        assert code == 1 and out == "" and "O(N=5) is not a nontrivial curve point" in err

    @pytest.mark.parametrize("value", [-4.0, None, True], ids=["float", "null", "boolean"])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_inexact_seed_coordinate_is_usage_error(self, capsys, tmp_path, field, value):
        seed = {"N": 5, "x": "-4", "y": "6", field: value}
        code, out, err = run(capsys, "search", str(self.write_job(tmp_path, seeds=[seed])))
        assert code == 2 and out == ""
        assert f"{field} must be an integer or a rational, got {value!r}" in err

    def test_entries_past_the_default_digit_limit(self, capsys, tmp_path):
        # At max_multiple 50 the packaged N=34 seed gives entries of over 4300
        # digits, the interpreter's default limit for int <-> str conversion.
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "seeds": [{"N": 34, "x": "-2", "y": "48"}],
            "max_multiple": 50,
            "parametrizations": ["invariant"],
        }))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "search", str(job))
        assert code == 0, err
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1225
        assert max(r.get("digits", 0) for r in records) > 4300
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_not_a_positive_integer_is_usage_error(self, capsys, tmp_path, workers):
        # A count below 1 is refused, not run serially.
        job = self.write_job(tmp_path)
        code, out, err = run(capsys, "search", str(job), "--workers", workers)
        assert code == 2 and out == "" and "error: argument --workers" in err

    def test_resume_requires_out(self, capsys, tmp_path):
        job = self.write_job(tmp_path)
        code, _, err = run(capsys, "search", str(job), "--resume")
        assert code == 2 and "--resume requires --out" in err


class TestOutputModes:
    def test_pretty_renders_lines(self, capsys):
        code, out, _ = run(
            capsys, "point", "double", "--N", "5", "--x=-4", "--y", "6", "--pretty"
        )
        assert code == 0
        assert "x: 1681/144" in out

    def test_approx_appends_decimals(self, capsys):
        payload = run_json(
            capsys, "point", "double", "--N", "5", "--x=-4", "--y", "6", "--approx"
        )
        assert payload["x"] == "1681/144"
        assert payload["approx"]["x"].startswith("11.6736")

    def test_usage_error_exit_code(self, capsys):
        assert main(["point", "double", "--N", "5"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["orbit"]) == 2


class TestFactorBudgetEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("CUBOID_FACTOR_BUDGET", raising=False)
        assert _rho_budget() == DEFAULT_RHO_BUDGET

    def test_override(self, monkeypatch):
        monkeypatch.setenv("CUBOID_FACTOR_BUDGET", "12345")
        assert _rho_budget() == 12345

    def test_non_integer_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBOID_FACTOR_BUDGET", "abc")
        with pytest.raises(_Usage):
            _rho_budget()
        code, out, err = run(capsys, "invert", *TestInvertCommand.GOLDEN)
        assert code == 2 and out == "" and "CUBOID_FACTOR_BUDGET" in err

    def test_negative_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBOID_FACTOR_BUDGET", "-5")
        with pytest.raises(_Usage):
            _rho_budget()
        code, out, err = run(capsys, "invert", *TestInvertCommand.GOLDEN)
        assert code == 2 and out == "" and "CUBOID_FACTOR_BUDGET" in err

    def test_zero_means_no_rho_steps(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBOID_FACTOR_BUDGET", "0")
        assert _rho_budget() == 0
        assert run_json(capsys, "invert", *TestInvertCommand.GOLDEN)["N"] == 34
