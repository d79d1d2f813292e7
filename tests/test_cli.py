"""Command line behaviour: golden outputs, exit codes, determinism."""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from padic_cf import (
    PrimeCtx,
    SystemSpec,
    convergent,
    expand,
    expansion_records,
    format_rational,
    haar_sample_vector,
    parse_rational,
    valuation,
)
from padic_cf.cfsystems import digit_from_obj
from padic_cf.cli import _parser, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def int_text_limit():
    """sys.set_int_max_str_digits for one test, the limit restored after it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def golden_text(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestExpand:
    def test_schneider_golden(self):
        code, out = run_cli(["expand", "--p", "2", "--system", "schneider", "2/3"])
        assert code == 0
        assert out == golden_text("expand_schneider_p2_2_3.jsonl")

    def test_ruban_golden(self):
        code, out = run_cli(["expand", "--p", "2", "--system", "ruban", "2/3"])
        assert code == 0
        assert out == golden_text("expand_ruban_p2_2_3.jsonl")

    def test_random_point_golden(self):
        code, out = run_cli(
            [
                "expand", "--p", "3", "--system", "jacobi-perron", "--m", "2",
                "random:40", "--steps", "8", "--seed", "5",
            ]
        )
        assert code == 0
        assert out == golden_text("expand_jp_p3_random.jsonl")

    def test_random_run_emits_requested_steps(self):
        code, out = run_cli(
            [
                "expand", "--p", "3", "--system", "jacobi-perron", "--m", "2",
                "random:500", "--steps", "50", "--seed", "1",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        status = json.loads(lines[-1])
        assert status["status"] in ("running", "precision-exhausted")
        if status["status"] == "running":
            assert len(lines) == 51

    def test_parse_error_exit_code(self):
        code, _ = run_cli(["expand", "--p", "2", "--system", "schneider", "junk"])
        assert code == 2

    def test_point_outside_phase_space(self):
        code, _ = run_cli(["expand", "--p", "2", "--system", "schneider", "1/3"])
        assert code == 2

    def test_comma_separated_point(self):
        argv = ["expand", "--p", "2", "--system", "jacobi-perron", "--m", "2"]
        code, out = run_cli(argv + ["2/3,4/3"])
        assert code == 0 and len(out.splitlines()) > 2
        assert (code, out) == run_cli(argv + ["2/3", "4/3"])

    @pytest.mark.parametrize(
        "flags,point",
        [
            (["--p", "3", "--system", "jacobi-perron", "--steps", "2"], ["3/2", "-6/5"]),
            (["--p", "2", "--system", "schneider"], ["-2/3"]),
        ],
        ids=["jacobi-perron", "schneider"],
    )
    def test_negative_coordinates_are_values(self, flags, point):
        # '-' then a digit is a coordinate, not a flag: the bytes are those of
        # the form that ends the flags with '--'
        code, out = run_cli(["expand", *flags, *point])
        assert code == 0 and len(out.splitlines()) > 2
        assert (code, out) == run_cli(["expand", *flags, "--", *point])

    def test_other_dash_tokens_stay_flags(self, capsys):
        flags = ["expand", "--p", "2", "--system", "schneider"]
        assert run_cli([*flags, "-x", "2/3"]) == (2, "")
        assert "unrecognized arguments: -x" in capsys.readouterr().err
        code, out = run_cli([*flags, "--seed", "-3", "random:5"])
        assert code == 0 and (code, out) == run_cli([*flags, "--seed=-3", "random:5"])

    def test_tl_in_two_dimensions(self):
        # --system tl with --m 2 is the cyclic family at ell = --l
        flags = ["--p", "2", "--m", "2", "random:60", "--steps", "20", "--seed", "1"]
        code, out = run_cli(["expand", "--system", "tl", "--l", "1", *flags])
        spec = SystemSpec.multi_dim(PrimeCtx(2), 1, 2)
        exp = expand(spec, haar_sample_vector(spec.ctx, 2, 60, random.Random(1)), 20)
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) > 2
        assert rows[:-1] == [json.loads(json.dumps(r)) for r in expansion_records(spec, exp)]
        assert rows[-1] == {"status": exp.status, "step": exp.stopped_at}
        assert out != run_cli(["expand", "--system", "jacobi-perron", *flags])[1]

    def test_determinism(self):
        argv = [
            "expand", "--p", "2", "--system", "ruban", "random:64",
            "--steps", "10", "--seed", "99",
        ]
        assert run_cli(argv) == run_cli(argv)


class TestConvergents:
    def test_round_trip_with_ord_column(self, tmp_path):
        _, digits = run_cli(["expand", "--p", "2", "--system", "schneider", "2/3"])
        path = tmp_path / "digits.jsonl"
        path.write_text(digits, encoding="utf-8")
        code, out = run_cli(
            [
                "convergents", "--p", "2", "--system", "schneider",
                str(path), "--point", "2/3",
            ]
        )
        assert code == 0
        assert out == "0\t2/1\t2\n1\t2/3\tinf\n"

    def _ord_column(self, tmp_path, flags, point, xs):
        """The --point column of an expand -> convergents round trip, each row
        checked against ord(x - c) from exact rationals: for an approximation
        x, ord(representative - c) capped at its absolute precision."""
        ctx = PrimeCtx(int(flags[1]))
        _, digits = run_cli(["expand", *flags, *point, "--steps", "40"])
        path = tmp_path / "digits.jsonl"
        path.write_text(digits, encoding="utf-8")
        code, out = run_cli(["convergents", *flags, str(path), "--point", *point])
        assert code == 0
        column = []
        for line in out.splitlines():
            _, convergent, ords = line.split("\t")
            want = min(
                valuation(x - c, ctx) if isinstance(x, Fraction)
                else min(valuation(x.representative() - c, ctx), x.abs_prec)
                for x, c in zip(xs, map(parse_rational, convergent.split()))
            )
            assert ords == ("inf" if want == math.inf else str(want))
            column.append(ords)
        assert len(column) == len(digits.splitlines()) - 1
        return column

    def test_ord_column_of_an_exact_point_reaches_inf(self, tmp_path):
        column = self._ord_column(
            tmp_path, ["--p", "3", "--system", "schneider"], ["57/40"], [Fraction(57, 40)]
        )
        assert len(column) == 5 and column[-1] == "inf"

    def test_ord_column_of_a_negative_point(self, tmp_path):
        # expand takes -2/3 as its point and convergents as --point's
        column = self._ord_column(
            tmp_path, ["--p", "2", "--system", "schneider"], ["-2/3"], [Fraction(-2, 3)]
        )
        assert len(column) == 40

    def test_ord_column_of_a_random_point_is_capped(self, tmp_path):
        xs = haar_sample_vector(PrimeCtx(2), 1, 20, random.Random(3))
        column = self._ord_column(
            tmp_path, ["--p", "2", "--system", "schneider", "--seed", "3"], ["random:20"], xs
        )
        assert column[-1] == "21"  # N + 1, the absolute precision of random:N

    def test_ord_column_with_an_exact_zero_coordinate(self, tmp_path):
        # an exact zero reads as ord inf and unit 0; its term of ord(x - c)
        # is ord(c), and inf once the convergent's coordinate is 0 too
        flags = ["--p", "3", "--system", "jacobi-perron", "--m", "2"]
        column = self._ord_column(tmp_path, flags, ["3/5", "0"], [Fraction(3, 5), Fraction(0)])
        assert column and column[-1] == "inf"

    def test_ord_column_jacobi_perron(self, tmp_path):
        xs = haar_sample_vector(PrimeCtx(3), 2, 30, random.Random(5))
        flags = ["--p", "3", "--system", "jacobi-perron", "--m", "2", "--seed", "5"]
        assert len(self._ord_column(tmp_path, flags, ["random:30"], xs)) > 3

    @pytest.mark.parametrize(
        "flags,spec,exact",
        [
            (["--p", "2", "--system", "schneider"], SystemSpec.schneider(PrimeCtx(2)), ["-2/3"]),
            (["--p", "3", "--system", "ruban"], SystemSpec.ruban(PrimeCtx(3)), ["-111/20"]),
            (["--p", "3", "--system", "tl", "--l", "1"], SystemSpec.one_dim(PrimeCtx(3), 1),
             ["-21/5"]),
            (["--p", "3", "--system", "tl", "--l", "1", "--m", "3"],
             SystemSpec.multi_dim(PrimeCtx(3), 1, 3), ["-99/23", "-75/41", "-87/26"]),
            (["--p", "2", "--system", "jacobi-perron"], SystemSpec.jacobi_perron(PrimeCtx(2), 2),
             ["-86/23", "-92/47"]),
            (["--p", "5", "--system", "brun", "--m", "3"], SystemSpec.brun(PrimeCtx(5), 3),
             ["60/7", "220/21", "-150/29"]),
        ],
        ids=["schneider-p2", "ruban-p3", "tl1-p3", "tl1-p3-m3", "jp-p2-m2", "brun-p5-m3"],
    )
    @pytest.mark.parametrize("kind", ["random", "exact"])
    def test_convergent_column_is_the_reduced_oracle_text(
        self, tmp_path, flags, spec, exact, kind
    ):
        """Row j's convergent column is the format_rational text of
        convergent(spec, digits[:j+1]), byte for byte: every coordinate in
        lowest terms with a positive denominator."""
        point = ["random:60"] if kind == "random" else exact
        flags = [*flags, "--seed", "8"]
        code, digits = run_cli(["expand", *flags, *point, "--steps", "40"])
        assert code == 0
        word = [digit_from_obj(json.loads(line)["digit"]) for line in digits.splitlines()[:-1]]
        path = tmp_path / "digits.jsonl"
        path.write_text(digits, encoding="utf-8")
        code, out = run_cli(["convergents", *flags, str(path), "--point", *point])
        rows = [line.split("\t") for line in out.splitlines()]
        assert code == 0 and len(rows) == len(word) >= 8
        if spec.kind == "brun":
            assert {d.pivot for d in word} - {1}, "no Brun digit pivoted off coordinate 1"
        for j, row in enumerate(rows):
            vec = convergent(spec, word[: j + 1])
            coords = vec if isinstance(vec, tuple) else (vec,)
            assert row[1] == " ".join(format_rational(c) for c in coords), j

    def test_stdin_matches_a_file(self, tmp_path, monkeypatch):
        flags = ["--p", "3", "--system", "jacobi-perron", "--m", "2", "--seed", "2"]
        _, digits = run_cli(["expand", *flags, "random:40", "--steps", "12"])
        path = tmp_path / "digits.jsonl"
        path.write_text(digits, encoding="utf-8")
        code, out = run_cli(["convergents", *flags, str(path), "--point", "random:40"])
        assert code == 0 and len(out.splitlines()) == len(digits.splitlines()) - 1 > 2
        monkeypatch.setattr(sys, "stdin", io.StringIO(digits))
        assert run_cli(["convergents", *flags, "-", "--point", "random:40"]) == (code, out)

    @pytest.mark.parametrize(
        "system,record,message",
        [
            ("jacobi-perron", '{"digit":{"pexp":[1],"q":["1/2"]}}', "malformed digit"),
            ("schneider", '{"digit":{"k":0,"v":"1/1"}}', "pivot depth must be >= 1"),
            ("jacobi-perron", '{"digit":{"pexp":[1,0],"q":["0/1","1/2"]}}',
             "zero integral part forces zero exponent"),
            ("schneider", '{"digit":{"k":1,"v":"1/3"}}',
             "integral parts must be admissible digit values"),
        ],
        ids=["one-entry-pexp", "pivot-depth-0", "zero-q-nonzero-exponent",
             "value-of-another-prime"],
    )
    def test_digit_no_step_emits(self, tmp_path, capsys, system, record, message):
        """Well-typed records that pivot_valuation rejects, each by its own rule."""
        path = tmp_path / "digits.jsonl"
        path.write_text(record + "\n", encoding="utf-8")
        code, out = run_cli(["convergents", "--p", "2", "--system", system, str(path)])
        assert code == 2 and out == ""
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        code, out = run_cli(["convergents", "--p", "2", "--system", "schneider", str(path)])
        assert code == 0 and out == ""

    def test_invalid_digit_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        code, _ = run_cli(["convergents", "--p", "2", "--system", "schneider", str(path)])
        assert code == 2

    def test_invalid_digit_for_system(self, tmp_path):
        path = tmp_path / "digits.jsonl"
        path.write_text('{"j":0,"digit":{"k":1,"v":"1/1"},"ord_consumed":1}\n', encoding="utf-8")
        code, _ = run_cli(["convergents", "--p", "2", "--system", "ruban", str(path)])
        assert code == 2

    def _run_record(self, tmp_path, capsys, line):
        path = tmp_path / "digits.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        code, out = run_cli(["convergents", "--p", "2", "--system", "schneider", str(path)])
        assert code == 2 and out == ""
        assert "invalid digit record" in capsys.readouterr().err

    def test_digit_record_without_fields(self, tmp_path, capsys):
        self._run_record(tmp_path, capsys, '{"digit":{}}')

    def test_record_not_an_object(self, tmp_path, capsys):
        self._run_record(tmp_path, capsys, "5")

    def test_digit_not_an_object(self, tmp_path, capsys):
        self._run_record(tmp_path, capsys, '{"digit":5}')

    @pytest.mark.parametrize(
        "record",
        [
            '{"digit":{"k":1,"v":"1","pexp":[5]}}',
            '{"digit":{"k":1,"v":"1","pivot":1}}',
            '{"digit":{"k":1,"v":"1","extra":0}}',
            '{"digit":{"k":1}}',
            '{"digit":{"pexp":[1],"q":["1"],"k":1}}',
            '{"digit":{"pexp":[1],"q":["1"],"pivot":1,"extra":0}}',
            '{"digit":{"pexp":[1],"pivot":1}}',
            '{"digit":"kv"}',
        ],
        ids=["1d-and-pexp", "1d-with-pivot", "1d-extra-key", "1d-without-v", "md-with-k",
             "md-extra-key", "md-without-q", "string"],
    )
    def test_digit_record_has_one_shape(self, tmp_path, capsys, record):
        """A digit has the keys {k, v} or {pexp, q} with an optional pivot;
        a record with any other key set is refused, not read in part."""
        self._run_record(tmp_path, capsys, record)


class TestStats:
    def test_iota_sum_golden(self):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "iota-sum", "--bound", "2^20"]
        )
        assert code == 0
        assert out == golden_text("stats_iota_sum_schneider_p2.csv")

    def test_iota_sum_multi_dim_fills_theoretical(self):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "jacobi-perron", "--check", "iota-sum",
             "--bound", "2^9"]
        )
        assert code == 0
        assert out.splitlines()[1] == "iota-sum,2,inf,2,0.875,0.0,0.875,true"

    def test_iota_sum_brun_rejected(self, capsys):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "brun", "--check", "iota-sum", "--bound", "2^6"]
        )
        assert code == 2 and out == ""
        assert "not enumerated" in capsys.readouterr().err

    def test_digit_means_fewer_than_half_completed(self, capsys):
        # the one sample's single step runs out of digits: 0 of 1 completed
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "digit-means",
             "--samples", "1", "--steps", "1", "--seed", "31"]
        )
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "error: only 0 of 1 digit observations completed\n"
        assert "Fraction(" not in err

    def test_mixing_golden(self):
        code, out = run_cli(
            [
                "stats", "--p", "2", "--system", "schneider", "--check", "mixing",
                "--wordA", "(1,1)", "--wordB", "(2,1)", "--n", "3",
            ]
        )
        assert code == 0
        assert out == golden_text("stats_mixing_schneider_p2.csv")

    def test_digit_means_small_run(self):
        code, out = run_cli(
            [
                "stats", "--p", "3", "--system", "schneider", "--check", "digit-means",
                "--samples", "200", "--steps", "50", "--seed", "2",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,p,l,m,estimate,stderr,theoretical,pass"
        assert len(lines) == 3
        assert lines[1].startswith("digit-mean-a,3,0,1,")
        assert all(line.endswith(",true") for line in lines[1:])

    def test_digit_means_json_format(self):
        code, out = run_cli(
            [
                "stats", "--p", "3", "--system", "schneider", "--check", "digit-means",
                "--samples", "50", "--steps", "20", "--seed", "2", "--format", "json",
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["check"] for r in rows] == ["digit-mean-a", "digit-mean-b"]
        assert rows[0]["theoretical"] == 1.5

    def test_brun_rows_have_no_depth_parameter(self):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "brun", "--check", "invariance",
             "--samples", "50", "--cylinders", "1"]
        )
        header, row = out.splitlines()
        assert code == 0
        assert dict(zip(header.split(","), row.split(",")))["l"] == "-"

    def test_invariance_small_run(self):
        code, out = run_cli(
            [
                "stats", "--p", "2", "--system", "schneider", "--check", "invariance",
                "--samples", "2000", "--cylinders", "3", "--seed", "6",
            ]
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    @staticmethod
    def _same_at_every_thread_count(base):
        serial = run_cli(base)
        assert serial[0] == 0
        assert run_cli(base + ["--threads", "2"]) == serial
        assert run_cli(base + ["--threads", "3"]) == serial

    def test_threads_do_not_change_output(self):
        # 750 samples are 3 shards of 250
        self._same_at_every_thread_count([
            "stats", "--p", "3", "--system", "ruban", "--check", "digit-means",
            "--samples", "750", "--steps", "20", "--seed", "3",
        ])

    def test_threads_do_not_change_invariance_output(self):
        # 30000 samples are 3 shards of 10,000
        self._same_at_every_thread_count([
            "stats", "--p", "3", "--system", "ruban", "--check", "invariance",
            "--samples", "30000", "--cylinders", "2", "--seed", "3",
        ])

    def test_config_error_exit_code(self):
        code, _ = run_cli(["stats", "--p", "2", "--system", "tl", "--check", "iota-sum"])
        assert code == 2
        code, _ = run_cli(
            ["stats", "--p", "2", "--system", "jacobi-perron", "--check", "digit-means",
             "--samples", "10", "--steps", "5"]
        )
        assert code == 2

    def test_env_seed_fallback(self):
        argv = [
            "stats", "--p", "3", "--system", "schneider", "--check", "digit-means",
            "--samples", "40", "--steps", "20",
        ]
        old = os.environ.get("PADIC_CF_SEED")
        try:
            os.environ["PADIC_CF_SEED"] = "2"
            _, with_env = run_cli(argv)
            os.environ.pop("PADIC_CF_SEED")
            _, with_flag = run_cli(argv + ["--seed", "2"])
        finally:
            if old is not None:
                os.environ["PADIC_CF_SEED"] = old
            else:
                os.environ.pop("PADIC_CF_SEED", None)
        assert with_env == with_flag

    @pytest.mark.parametrize("env,seed", [(" 7 ", "7"), ("-3", "-3")], ids=["spaces", "negative"])
    def test_env_seed_accepts_what_int_accepts(self, monkeypatch, env, seed):
        argv = ["expand", "--p", "2", "--system", "schneider", "--steps", "3", "random:20"]
        monkeypatch.setenv("PADIC_CF_SEED", env)
        with_env = run_cli(argv)
        monkeypatch.delenv("PADIC_CF_SEED")
        assert with_env == run_cli(argv + ["--seed", seed])

    def test_malformed_env_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_CF_SEED", "abc")
        code, out = run_cli(["expand", "--p", "2", "--system", "schneider", "random:5"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: PADIC_CF_SEED: expected an integer, got 'abc'\n"
        )


class TestArgumentRanges:
    """Counts below 1 are refused by the parser, with the flag named."""

    def _refused(self, capsys, argv, flag):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_negative_steps(self, capsys):
        self._refused(
            capsys, ["expand", "--p", "2", "--system", "schneider", "2/3", "--steps", "-3"], "--steps"
        )

    def test_zero_samples(self, capsys):
        self._refused(
            capsys,
            ["stats", "--p", "3", "--system", "schneider", "--check", "digit-means",
             "--samples", "0"],
            "--samples",
        )

    def test_zero_threads(self, capsys):
        self._refused(
            capsys,
            ["stats", "--p", "3", "--system", "schneider", "--check", "digit-means",
             "--samples", "10", "--steps", "5", "--threads", "0"],
            "--threads",
        )

    def test_zero_cylinders(self, capsys):
        self._refused(
            capsys,
            ["stats", "--p", "2", "--system", "schneider", "--check", "invariance",
             "--cylinders", "0"],
            "--cylinders",
        )


class TestMalformedInput:
    """Malformed values exit 2 with a message that names the flag."""

    @pytest.mark.parametrize("bound", ["abc", "2^x", "2^2^3"])
    def test_bound_syntax(self, capsys, bound):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "iota-sum", "--bound", bound]
        )
        assert code == 2 and out == ""
        assert f"argument --bound: expected N or B^E with integers, got {bound!r}" in (
            capsys.readouterr().err
        )

    def test_bound_below_p(self, capsys):
        code, out = run_cli(["branches", "--p", "3", "--system", "ruban", "--bound", "1"])
        assert code == 2 and out == ""
        assert "argument --bound: must be at least p = 3, got 1" in capsys.readouterr().err

    def test_malformed_word(self, capsys):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "mixing",
             "--wordA", "(1)", "--wordB", "(2,1)", "--n", "3"]
        )
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "argument --wordA:" in err and "unpack" not in err

    @pytest.mark.parametrize(
        "word", [")1,1(", "((1,1", "1,1)", "1,1", "()"],
        ids=["reversed", "unclosed", "unopened", "bare", "empty-letter"],
    )
    def test_word_letter_is_one_bracketed_pair(self, capsys, word):
        """A part of a word that is not empty after a strip is exactly one
        '(k,v)'; brackets are not stripped off it."""
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "mixing",
             "--wordA", word, "--wordB", "(2,1)", "--n", "2"]
        )
        assert code == 2 and out == ""
        assert (f"argument --wordA: expected '(k,v)' letters separated by ';', got {word!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["expand", "--p", "2", "--system", "schneider", "2_0/3"],
             "argument point: cannot parse coordinate '2_0/3'"),
            (["expand", "--p", "2", "--system", "schneider", "\uff12/3"],
             "argument point: cannot parse coordinate '\uff12/3'"),
            (["stats", "--p", "2", "--system", "schneider", "--check", "mixing",
              "--wordA", "(1,1)", "--wordB", "(1_0,1)", "--n", "3"],
             "argument --wordB: expected '(k,v)' letters separated by ';', got '(1_0,1)'"),
        ],
        ids=["underscore", "full-width-digit", "word-k-underscore"],
    )
    def test_number_text_is_ascii_decimal(self, capsys, argv, message):
        """Numbers are an optional '-' and ASCII digits, then optionally '/'
        and ASCII digits; int() alone would read each of these."""
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_zero_m(self, capsys):
        code, out = run_cli(["expand", "--p", "2", "--system", "jacobi-perron", "--m", "0", "2/3"])
        assert code == 2 and out == ""
        assert "argument --m: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("system", ["schneider", "ruban"])
    def test_m_for_a_one_dim_system(self, capsys, system):
        code, out = run_cli(["expand", "--p", "2", "--system", system, "--m", "3", "2/3"])
        assert code == 2 and out == ""
        assert f"argument --m: --system {system} is one-dimensional, got 3" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("system", ["schneider", "ruban", "brun", "jacobi-perron"])
    def test_l_for_a_system_without_a_depth_flag(self, capsys, system):
        code, out = run_cli(["branches", "--p", "2", "--system", system, "--l", "1"])
        assert code == 2 and out == ""
        assert f"argument --l: --system {system} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "l_args,message",
        [
            (["--l", "abc"], "argument --l: expected an integer >= 0 or 'inf', got 'abc'"),
            (["--l", "-1"], "argument --l: must be >= 0 or 'inf', got '-1'"),
            ([], "argument --l: required by --system tl"),
        ],
        ids=["syntax", "negative", "missing"],
    )
    def test_l_value(self, capsys, l_args, message):
        code, out = run_cli(["branches", "--p", "2", "--system", "tl"] + l_args)
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["expand", "--p", "2", "--system", "schneider", "random:abc"],
             "argument point: expected random:N with an integer N >= 1, got 'random:abc'"),
            (["expand", "--p", "4", "--system", "schneider", "2/3"],
             "argument --p: must be prime, got 4"),
            (["stats", "--p", "3", "--system", "schneider", "--check", "digit-means",
              "--precision", "0"],
             "argument --precision: must be >= 1, got 0"),
            (["stats", "--p", "2", "--system", "schneider", "--check", "mixing",
              "--wordA", "(1,1)", "--wordB", "(2,1)", "--n", "-1"],
             "argument --n: must be >= 1, got -1"),
            (["stats", "--p", "2", "--system", "schneider", "--check", "mixing",
              "--wordA", "(1,1)", "--wordB", "(1,3)"],
             "argument --wordB: integral parts must be admissible digit values"),
            (["stats", "--p", "2", "--system", "schneider", "--check", "mixing",
              "--wordA", "(1,1)", "--wordB", "(1,1);(2,1)", "--n", "1"],
             "argument --n: need n >= 2"),
            (["convergents", "--p", "2", "--system", "schneider", "/nonexistent/digits.jsonl"],
             "argument digits: cannot read '/nonexistent/digits.jsonl'"),
            (["stats", "--p", "2", "--system", "jacobi-perron", "--check", "digit-means"],
             "argument --system: digit observables are defined for one-dimensional systems"),
            (["stats", "--p", "2", "--system", "jacobi-perron", "--check", "mixing",
              "--wordA", "(1,1)", "--wordB", "(2,1)"],
             "argument --system: mixing check expects a one-dimensional system"),
            (["branches", "--p", "2", "--system", "brun"],
             "argument --system: Brun branches are only observed, not enumerated"),
            (["stats", "--p", "2", "--system", "brun", "--check", "iota-sum", "--bound", "2^6"],
             "argument --system: Brun branches are only observed, not enumerated"),
        ],
        ids=["random-point", "prime", "precision", "mixing-n", "word-digit", "n-below-word",
             "digits-file", "digit-means-family", "mixing-family", "branches-brun",
             "iota-sum-brun"],
    )
    def test_value_names_its_argument(self, capsys, argv, message):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert message in err and "int()" not in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["expand", "--p", "2", "--system", "schneider", "2/3", "--threads", "2"], "--threads"),
            (["expand", "--p", "2", "--system", "schneider", "2/3", "--precision", "2"],
             "--precision"),
            (["convergents", "--p", "2", "--system", "schneider", "-", "--steps", "3"], "--steps"),
            (["branches", "--p", "2", "--system", "schneider", "--seed", "1"], "--seed"),
        ],
        ids=["expand-threads", "expand-precision", "convergents-steps", "branches-seed"],
    )
    def test_flag_the_command_does_not_read(self, capsys, argv, flag):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system,record",
        [
            ("schneider", '{"digit":{"k":1,"v":1}}'),
            ("jacobi-perron", '{"digit":{"pexp":[0,0],"q":[1,"1/2"]}}'),
            ("schneider", '{"digit":{"k":1.5,"v":"1"}}'),
            ("schneider", '{"digit":{"k":true,"v":"1"}}'),
            ("schneider", '{"digit":{"k":1e0,"v":"1"}}'),
            ("jacobi-perron", '{"digit":{"pexp":[0,0],"q":["1","1/2"],"pivot":"1"}}'),
            ("jacobi-perron", '{"digit":{"pexp":"00","q":["1","1/2"]}}'),
        ],
        ids=["v-number", "q-number", "k-fraction", "k-bool", "k-float", "pivot-string",
             "pexp-string"],
    )
    def test_digit_record_field_types(self, tmp_path, capsys, system, record):
        """Only JSON integers for k, pivot and pexp entries, strings for v and
        q entries; the records differ from a valid one only in type."""
        path = tmp_path / "digits.jsonl"
        path.write_text(record + "\n", encoding="utf-8")
        code, out = run_cli(["convergents", "--p", "2", "--system", system, str(path)])
        assert code == 2 and out == ""
        assert f"invalid digit record: {record!r}" in capsys.readouterr().err

    def test_precision_warning_only_where_orbits_are_drawn(self, capsys):
        base = ["stats", "--p", "2", "--system", "schneider", "--precision", "19"]
        code, _ = run_cli(base + ["--check", "iota-sum", "--bound", "2^4"])
        assert code == 0 and "warning" not in capsys.readouterr().err
        run_cli(base + ["--check", "digit-means", "--samples", "10", "--steps", "5"])
        assert "warning: precision 19 below 4*steps = 20" in capsys.readouterr().err

    def test_literal_iota_sum_over_the_branch_cap(self, capsys):
        # Ruban p=3 at the default bound 3^20 would list 177,144 branches
        code, out = run_cli(["stats", "--p", "3", "--system", "ruban", "--check", "iota-sum"])
        assert code == 2 and out == ""
        assert "argument --bound: the literal iota-sum would enumerate 177144 branches" in (
            capsys.readouterr().err
        )

    def test_branch_listing_over_the_branch_cap(self, capsys):
        # Jacobi-Perron p=2 m=2 at 2^40 would list 89,478,484 branches
        code, out = run_cli(
            ["branches", "--p", "2", "--system", "jacobi-perron", "--m", "2", "--bound", "2^40"]
        )
        assert code == 2 and out == ""
        assert (
            "argument --bound: the listing would enumerate 89478484 branches at bound "
            f"{2**40}, more than 50000; give a smaller --bound"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["branches"], ["stats", "--check", "iota-sum"]], ids=["branches", "iota-sum"]
    )
    def test_branch_cap_at_a_bound_past_the_text_limit(self, capsys, command):
        # Jacobi-Perron p=2 m=2 at 2^22000: the bound (6,623 digits) and its
        # branch count (over 2^14666, 4,415 digits) are both past the 4,300
        # digits Python turns into text; the refusal still names --bound
        code, out = run_cli(
            command + ["--p", "2", "--system", "jacobi-perron", "--m", "2", "--bound", "2^22000"]
        )
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: argument --bound: ")
        assert "> 2^14666 branches at bound 2^22000, more than 50000" in err

    @pytest.mark.parametrize(
        "limit,bound,listed",
        [(4300, "2^14400", None), (640, "2^2127", None), (640, "2^2126", 2126), (0, "2^2127", 2127)],
        ids=["default-limit", "one-digit-over", "at-the-limit", "no-limit"],
    )
    def test_listing_past_the_text_limit(self, capsys, int_text_limit, limit, bound, listed):
        # Schneider p=2 lists one branch of iota 2^e for each e up to the
        # bound, all under the branch cap.  2^2126 has 640 digits and 2^2127
        # 641, so at a limit of 640 the first bound lists and the second is
        # refused before any record; a limit of 0 is no limit.
        int_text_limit(limit)
        code, out = run_cli(["branches", "--p", "2", "--system", "schneider", "--bound", bound])
        err = capsys.readouterr().err
        if listed is None:
            assert code == 2 and out == ""
            top = bound.removeprefix("2^")
            assert err == (
                f"error: argument --bound: the listing would print iota 2^{top}, more than the "
                f"{limit} digits Python turns into text; give a smaller --bound\n"
            )
        else:
            assert code == 0 and err == ""
            assert len(out.splitlines()) == listed

    def test_large_bound_refused_in_linear_time(self, capsys):
        # 100,000 branches at 2^100000: branch enumeration compares exponents
        # with the bound's, where comparing powers of 2 with it took 21 s
        start = time.perf_counter()
        code, out = run_cli(["branches", "--p", "2", "--system", "schneider", "--bound", "2^100000"])
        elapsed = time.perf_counter() - start
        assert code == 2 and out == ""
        assert "would enumerate 100000 branches at bound 2^100000" in capsys.readouterr().err
        assert elapsed < 10

    def test_dead_shard_process(self, capsys, monkeypatch):
        from padic_cf import ergodics

        parent = os.getpid()
        step_core = ergodics.step_core

        def dies_in_a_child(*args):
            # the caller runs the first of the two shards itself
            if os.getpid() != parent:
                os._exit(1)
            return step_core(*args)

        monkeypatch.setattr(ergodics, "step_core", dies_in_a_child)
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "invariance",
             "--samples", "20000", "--cylinders", "1", "--threads", "2"]
        )
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "shard worker process exited" in err and "--threads 1" in err


class TestStatsInputErrors:
    """Missing words and too few digit-means observations name their flag."""

    @pytest.mark.parametrize(
        "words,message",
        [
            (["--wordA", "(1,1)"], "error: argument --wordB: required by --check mixing\n"),
            (["--wordB", "(2,1)"], "error: argument --wordA: required by --check mixing\n"),
        ],
        ids=["no-wordB", "no-wordA"],
    )
    def test_mixing_word_missing(self, capsys, words, message):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "mixing", *words]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == message

    def test_digit_means_precision_too_low(self, capsys):
        code, out = run_cli(
            ["stats", "--p", "2", "--system", "schneider", "--check", "digit-means",
             "--precision", "3", "--steps", "50", "--samples", "50"]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: argument --precision: only 80 of 2500 digit observations completed"
        )


class TestInputEdges:
    """Inputs at the edges of the parsers: accepted ones run like their plain
    form, and refused ones exit 2 with the flag or argument named."""

    def test_tl_at_l_inf_expands_like_ruban(self):
        flags = ["--p", "3", "random:40", "--steps", "12", "--seed", "6"]
        code, out = run_cli(["expand", "--system", "tl", "--l", "inf", *flags])
        assert code == 0 and len(out.splitlines()) > 2
        assert (code, out) == run_cli(["expand", "--system", "ruban", *flags])

    def test_blank_lines_in_a_digit_file(self, tmp_path):
        flags = ["--p", "3", "--system", "schneider", "--seed", "2"]
        _, digits = run_cli(["expand", *flags, "random:30", "--steps", "6"])
        plain, spaced = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
        plain.write_text(digits, encoding="utf-8")
        spaced.write_text("\n" + digits.replace("\n", "\n  \n\n"), encoding="utf-8")
        code, out = run_cli(["convergents", *flags, str(plain)])
        assert code == 0 and len(out.splitlines()) == 6
        assert run_cli(["convergents", *flags, str(spaced)]) == (code, out)

    def test_record_with_neither_digit_nor_status(self, tmp_path, capsys):
        path = tmp_path / "digits.jsonl"
        path.write_text('{"j":0,"ord_consumed":1}\n', encoding="utf-8")
        code, out = run_cli(["convergents", "--p", "2", "--system", "schneider", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: invalid digit record: '{\"j\":0,\"ord_consumed\":1}'\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["expand", "--p", "2", "--system", "schneider", "2/3", "4/3"],
             "argument point: expected 1 coordinates, got 2"),
            (["expand", "--p", "2", "--system", "schneider", "2/3", "--steps", "x"],
             "argument --steps: expected an integer >= 1, got 'x'"),
            (["expand", "--p", "x", "--system", "schneider", "2/3"],
             "argument --p: expected a prime, got 'x'"),
            (["branches", "--p", "2", "--system", "ruban", "--bound", "2^-1"],
             "argument --bound: exponent must be >= 0, got '2^-1'"),
            (["expand", "--p", "2", "--system", "schneider", "random:0"],
             "argument point: expected random:N with an integer N >= 1, got 'random:0'"),
        ],
        ids=["two-coordinates-m1", "steps-syntax", "p-syntax", "bound-negative-exponent",
             "random-zero-digits"],
    )
    def test_refused_value(self, capsys, argv, message):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err

    def test_trailing_separator_in_a_word(self):
        argv = ["stats", "--p", "2", "--system", "schneider", "--check", "mixing",
                "--wordB", "(2,1)", "--n", "3"]
        code, out = run_cli(argv + ["--wordA", "(1,1);"])
        assert code == 0
        assert out == golden_text("stats_mixing_schneider_p2.csv")


class TestOneCoordinateSystems:
    """Multi-dim and Brun systems with --m 1 run like the 1-D map they equal."""

    @pytest.mark.parametrize("system", ["jacobi-perron", "brun"])
    @pytest.mark.parametrize("point", ["random:20", "2/3"])
    def test_expand(self, system, point):
        code, out = run_cli(["expand", "--p", "2", "--system", system, "--m", "1", point])
        assert code == 0
        _, ruban = run_cli(["expand", "--p", "2", "--system", "ruban", point])
        rows = [json.loads(line) for line in out.splitlines()]
        ref = [json.loads(line) for line in ruban.splitlines()]
        assert rows[-1] == ref[-1] and len(rows) == len(ref) > 1
        for row, r in zip(rows[:-1], ref[:-1]):
            assert row["digit"] == {"pexp": [r["digit"]["k"]], "q": [r["digit"]["v"]], "pivot": 1}

    @pytest.mark.parametrize("system", ["jacobi-perron", "brun"])
    def test_convergents_with_point(self, tmp_path, system):
        flags = ["--p", "3", "--system", system, "--m", "1", "--seed", "4"]
        code, digits = run_cli(["expand", *flags, "random:30"])
        assert code == 0
        path = tmp_path / "digits.jsonl"
        path.write_text(digits, encoding="utf-8")
        code, out = run_cli(["convergents", *flags, str(path), "--point", "random:30"])
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert len(rows) == len(digits.splitlines()) - 1
        assert all(int(r[2]) >= int(r[0]) + 2 for r in rows)

    @pytest.mark.parametrize("system", ["jacobi-perron", "brun"])
    @pytest.mark.parametrize(
        "check", [["digit-means"], ["mixing", "--wordA", "(1,1)", "--wordB", "(2,1)"]],
        ids=["digit-means", "mixing"],
    )
    def test_one_dim_checks_point_to_ruban(self, capsys, system, check):
        code, out = run_cli(["stats", "--p", "2", "--system", system, "--m", "1", "--check", *check])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert f"argument --m: --check {check[0]} runs on one-dimensional systems only" in err
        assert f"--system {system} --m 1 is the map of --system ruban, use that" in err


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_calls(self):
        argvs = [
            ["expand", "--p", "3", "--system", "ruban", "random:24", "--steps", "5", "--seed", "7"],
            ["expand", "--p", "3", "--system", "ruban", "random:24", "--steps", "5"],
            ["stats", "--p", "2", "--system", "schneider", "--check", "iota-sum",
             "--bound", "2^6", "--format", "json"],
            ["stats", "--p", "2", "--system", "schneider", "--check", "iota-sum"],
            ["branches", "--p", "2", "--system", "tl", "--l", "1", "--bound", "2^5"],
            ["branches", "--p", "2", "--system", "tl", "--l", "1"],
        ]
        fresh = []
        for argv in argvs:
            _parser.cache_clear()
            fresh.append(run_cli(argv))
        assert fresh[0] != fresh[1] and fresh[2] != fresh[3] and fresh[4] != fresh[5]
        assert [run_cli(argv) for argv in argvs + argvs[::-1]] == fresh + fresh[::-1]


class TestBranches:
    def test_schneider_listing(self):
        code, out = run_cli(
            ["branches", "--p", "2", "--system", "schneider", "--bound", "2^3"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["digit"]["k"] for r in rows] == [1, 2, 3]
        assert rows[0]["iota"] == "2/1"
        assert rows[0]["lft"] == {"m": 1, "i": 1, "sigma": [1], "p": ["2/1"], "q": ["1/1"]}

    def test_brun_rejected(self):
        code, _ = run_cli(["branches", "--p", "2", "--system", "brun"])
        assert code == 2


class TestExitOnFailedCheck:
    def test_stats_exit_one_when_tolerance_missed(self, monkeypatch):
        from fractions import Fraction

        from padic_cf import ergodics
        from padic_cf.ergodics import StatReport

        def fake(spec, samples, steps, seed, precision=None, threads=1):
            bad = StatReport(9.9, 0.001, samples, steps, Fraction(3, 2), seed=seed)
            return bad, bad

        monkeypatch.setattr(ergodics, "digit_mean_reports", fake)
        code, out = run_cli(
            ["stats", "--p", "3", "--system", "schneider", "--check", "digit-means",
             "--samples", "10", "--steps", "5"]
        )
        assert code == 1
        assert out.strip().splitlines()[1].endswith(",false")


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padic_cf.cli", "expand", "--p", "2",
             "--system", "schneider", "2/3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == golden_text("expand_schneider_p2_2_3.jsonl")

    def test_reader_closing_the_pipe(self):
        """A reader that stops after one line, as `| head -1` does, ends the
        run with exit 141 (128 + SIGPIPE) and nothing on stderr.  The output,
        about 200 kB, is more than a pipe buffers, so the writer is still
        writing when the pipe closes."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "padic_cf.cli", "expand", "--p", "2",
             "--system", "schneider", "random:8000", "--steps", "8000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first.startswith(b'{"j":0,') and err == b""


STATS = ["stats", "--p", "2", "--system", "schneider"]
DIGIT_MEANS = STATS + ["--check", "digit-means", "--samples", "10", "--steps", "3"]

# (what the message names, argv with {} where the integer goes, a plain value
# of two digits that the command accepts)
INTEGER_INPUTS = [
    ("argument --p", ["expand", "--p", "{}", "--system", "schneider", "random:5",
                      "--steps", "2"], "11"),
    ("argument --l", ["branches", "--p", "2", "--system", "tl", "--l", "{}",
                      "--bound", "2^3"], "10"),
    ("argument --m", ["expand", "--p", "2", "--system", "jacobi-perron", "--m", "{}",
                      "random:5", "--steps", "2"], "10"),
    ("argument --steps", ["expand", "--p", "2", "--system", "schneider", "random:20",
                          "--steps", "{}"], "10"),
    ("argument --precision", DIGIT_MEANS + ["--precision", "{}"], "12"),
    ("argument --threads", DIGIT_MEANS + ["--threads", "{}"], "10"),
    ("argument --samples", STATS + ["--check", "digit-means", "--steps", "3",
                                    "--samples", "{}"], "10"),
    ("argument --n", STATS + ["--check", "mixing", "--wordA", "(1,1)", "--wordB", "(2,1)",
                              "--n", "{}"], "10"),
    ("argument --cylinders", STATS + ["--check", "invariance", "--samples", "10",
                                      "--cylinders", "{}"], "10"),
    ("argument --bound", ["branches", "--p", "2", "--system", "schneider",
                          "--bound", "{}^1"], "16"),
    ("argument --bound", ["branches", "--p", "2", "--system", "schneider",
                          "--bound", "2^{}"], "10"),
    ("argument --seed", ["expand", "--p", "2", "--system", "schneider", "random:20",
                         "--steps", "2", "--seed", "{}"], "10"),
    ("argument point", ["expand", "--p", "2", "--system", "schneider", "random:{}",
                        "--steps", "2"], "10"),
    ("PADIC_CF_SEED", ["expand", "--p", "2", "--system", "schneider", "random:20",
                       "--steps", "2"], "10"),
]
INTEGER_INPUT_IDS = ["p", "l", "m", "steps", "precision", "threads", "samples", "n",
                     "cylinders", "bound-base", "bound-exponent", "seed", "random-n",
                     "env-seed"]
NOT_ASCII_DECIMAL = {
    "full-width": lambda v: "".join(chr(ord(c) + 0xFEE0) for c in v),
    "underscore": lambda v: v[0] + "_" + v[1:],
    "plus": lambda v: "+" + v,
}


class TestIntegerText:
    """Every integer the CLI reads from argv or the environment is ASCII
    decimal (padic_core.parse_int); int() alone would read each refused form."""

    def _run(self, monkeypatch, name, argv, value):
        if name == "PADIC_CF_SEED":
            monkeypatch.setenv("PADIC_CF_SEED", value)
            return run_cli(argv), value
        text = next(a for a in argv if "{}" in a).format(value)
        return run_cli([a.format(value) for a in argv]), text

    @pytest.mark.parametrize("name,argv,plain", INTEGER_INPUTS, ids=INTEGER_INPUT_IDS)
    def test_plain_value_is_read(self, monkeypatch, name, argv, plain):
        (code, out), _ = self._run(monkeypatch, name, argv, plain)
        assert code != 2 and out

    @pytest.mark.parametrize("form", sorted(NOT_ASCII_DECIMAL))
    @pytest.mark.parametrize("name,argv,plain", INTEGER_INPUTS, ids=INTEGER_INPUT_IDS)
    def test_other_integer_text_is_refused(self, capsys, monkeypatch, name, argv, plain, form):
        (code, out), text = self._run(monkeypatch, name, argv, NOT_ASCII_DECIMAL[form](plain))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert f"error: {name}: " in err and repr(text) in err and "int()" not in err


class TestDigitFileText:
    """A digit file that cannot be decoded or nests too deep exits 2 with
    its argument or the record named."""

    def _convergents(self, path):
        return run_cli(["convergents", "--p", "2", "--system", "schneider", str(path)])

    @pytest.mark.parametrize("prefix", ["", '{"digit":'], ids=["bare", "in-a-digit"])
    def test_deep_nesting(self, tmp_path, capsys, prefix):
        path = tmp_path / "digits.jsonl"
        path.write_text(prefix + "[" * 100_000 + "\n", encoding="utf-8")
        assert self._convergents(path) == (2, "")
        assert capsys.readouterr().err.startswith("error: invalid digit record: '")

    def test_long_record_is_quoted_cut(self, tmp_path, capsys):
        # a 100,000-character record is quoted by its first 100 characters
        line = '{"digit":"' + "x" * 99_988 + '"}'
        path = tmp_path / "digits.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert self._convergents(path) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: invalid digit record: {line[:100]!r}... (100000 characters)\n"
        assert len(err) < 200

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "digits.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        assert self._convergents(path) == (2, "")
        assert capsys.readouterr().err == (
            f"error: argument digits: cannot read {str(path)!r}: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run_cli(["convergents", "--p", "2", "--system", "schneider", "-"]) == (2, "")
        assert capsys.readouterr().err.startswith("error: argument digits: cannot read '-': ")

class TestReadmeExamples:
    """The README shows these commands with their output, verbatim."""

    README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

    def shown(self, argv, out):
        return f"$ padic-cf {' '.join(argv)}\n{out}" in self.README

    def test_expand_then_convergents(self, tmp_path, monkeypatch):
        expand_argv = ["expand", "--p", "2", "--system", "schneider", "2/3"]
        code, digits = run_cli(expand_argv)
        assert code == 0 and self.shown(expand_argv, digits)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "digits.jsonl").write_text(digits, encoding="utf-8")
        assert self.shown(expand_argv + [">", "digits.jsonl"], "")
        argv = ["convergents", "--p", "2", "--system", "schneider", "digits.jsonl",
                "--point", "2/3"]
        code, out = run_cli(argv)
        assert code == 0 and self.shown(argv, out)

    def test_first_branch(self):
        argv = ["branches", "--p", "2", "--system", "schneider", "--bound", "2^3"]
        code, out = run_cli(argv)
        assert code == 0 and self.shown(argv, out.splitlines()[0] + "\n...\n")
