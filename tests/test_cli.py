import dataclasses
import gc
import json
import logging
import math
import re
import warnings

import numpy as np
import pytest
from conftest import random_instance

from specmm import (
    InstanceFormatError,
    InstanceSet,
    Report,
    SaddleConfig,
    report_from_certificate,
    report_from_json,
    report_to_json,
    report_to_text,
    parse_instance,
    solve_minimax,
)
from specmm import cli, files
from specmm.cli import main

SQ2_HALF = math.sqrt(2.0) / 2.0

PAULI = {
    "n": 2,
    "m": 2,
    "matrices": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]],
    "labels": ["z", "x"],
}

DIAG = {"n": 2, "m": 2, "matrices": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]}


@pytest.fixture
def pauli_file(tmp_path):
    p = tmp_path / "pauli.json"
    p.write_text(json.dumps(PAULI))
    return str(p)


@pytest.fixture
def diag_file(tmp_path):
    p = tmp_path / "diag.json"
    p.write_text(json.dumps(DIAG))
    return str(p)


@pytest.fixture
def random_file(tmp_path):
    # one Newton step leaves this family about 0.1 of its scale from converged; the
    # Pauli pair's face step closes it to rounding in one step
    p = tmp_path / "random.json"
    mats = random_instance(np.random.default_rng(0), 8, 6).stacked
    p.write_text(json.dumps({"n": 8, "m": 6, "matrices": mats.tolist()}))
    return str(p)


class TestSolveCommand:
    def test_json_report(self, pauli_file, capsys):
        assert main(["solve", pauli_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] - (-SQ2_HALF)) <= 1e-4
        assert doc["gap"] <= 1e-4
        assert doc["converged"] is True
        assert doc["upper"] - doc["lower"] == doc["gap"]
        assert len(doc["y_bar"]) == 2 and len(doc["x_bar"]) == 2

    def test_text_report_matches_json_numbers(self, pauli_file, capsys):
        assert main(["solve", pauli_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["solve", pauli_file]) == 0
        text = capsys.readouterr().out
        for key in ("value", "upper", "lower", "gap"):
            line = next(ln for ln in text.splitlines() if ln.startswith(key))
            assert float(line.split()[1]) == doc[key]

    def test_out_file(self, pauli_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", pauli_file, "--json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["converged"] is True

    # one Newton step brings the Pauli pair to a gap of 1.1e-16, which passes the default
    # tolerance; 1e-17 it cannot reach in one step
    def test_strict_nonconvergence_exit_code(self, random_file, capsys):
        assert main(["solve", random_file, "--max-iters", "1", "--tol", "1e-17", "--strict"]) == 2
        capsys.readouterr()

    def test_nonstrict_nonconvergence_still_reports(self, random_file, capsys):
        assert main(["solve", random_file, "--max-iters", "1", "--tol", "1e-17", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert doc["iterations"] == 1

    def test_tol_flag_reaches_solver(self, pauli_file, capsys):
        assert main(["solve", pauli_file, "--tol", "1e-2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap"] <= 1e-2


GOOD_DOC = {"n": 2, "m": 1, "matrices": [[[1.0, 2.0], [2.0, 3.0]]]}
# (document, the field its error names), one per document-level check of parse_instance
DOCUMENT_ERRORS = {
    "not-an-object": ([GOOD_DOC], "top level"),
    **{f"missing-{key}": ({k: v for k, v in GOOD_DOC.items() if k != key}, f"'{key}'")
       for key in GOOD_DOC},
    **{f"{key}={bad!r}": (dict(GOOD_DOC, **{key: bad}), f"'{key}'")
       for key in ("n", "m") for bad in (0, True, 1.5, "2")},
    "matrices-not-a-list": (dict(GOOD_DOC, matrices={"0": GOOD_DOC["matrices"][0]}),
                            "'matrices'"),
    "matrices-count": (dict(GOOD_DOC, matrices=GOOD_DOC["matrices"] * 2), "'matrices'"),
    "labels-length": (dict(GOOD_DOC, labels=["a", "b"]), "'labels'"),
    "labels-non-string": (dict(GOOD_DOC, labels=[1]), "'labels'"),
}


@pytest.mark.parametrize("doc, field", DOCUMENT_ERRORS.values(), ids=DOCUMENT_ERRORS.keys())
def test_document_errors_name_their_field(doc, field):
    with pytest.raises(InstanceFormatError, match=re.escape(field)):
        parse_instance(doc)


class TestInputValidation:
    def test_shape_mismatch_names_matrix(self, tmp_path, capsys):
        bad = dict(PAULI, matrices=[PAULI["matrices"][0], [[1.0, 0.0]]])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["solve", str(p)]) == 1
        err = capsys.readouterr().err
        assert "matrices[1]" in err

    def test_missing_field(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 2, "matrices": []}))
        assert main(["solve", str(p)]) == 1
        assert "'m'" in capsys.readouterr().err

    def test_asymmetry_above_gate(self, tmp_path, capsys):
        bad = {"n": 2, "m": 1, "matrices": [[[0.0, 1.0], [0.0, 0.0]]]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["solve", str(p)]) == 1
        assert "asymmetry" in capsys.readouterr().err

    def test_small_asymmetry_symmetrized(self, tmp_path, capsys):
        doc = {"n": 2, "m": 1, "matrices": [[[0.0, 1.0 + 5e-8], [1.0, 0.0]]]}
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p), "--json"]) == 0
        capsys.readouterr()

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["solve", str(p)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/instance.json"]) == 1
        capsys.readouterr()

    GOOD = [[1.0, 2.0], [2.0, 3.0]]

    @pytest.mark.parametrize("bad", [
        [[0.0, 1.0], [1.0]],
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]],
        [[float("nan"), 1.0], [1.0, 0.0]],
        [["0", 1.0], [1.0, 0.0]],
        [[0.0, 1.0 + 1e-5], [1.0, 0.0]],
        [[True, False], [False, True]],
        [[True, 0.5], [0.5, False]],
    ], ids=["ragged-row", "wrong-shape", "nan", "string-entry", "asymmetry-1e-5",
            "all-boolean", "mixed-boolean"])
    def test_diagnostics_name_the_bad_matrix_and_no_other(self, bad):
        doc = {"n": 2, "m": 3, "matrices": [self.GOOD, bad, self.GOOD]}
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(doc)
        assert re.findall(r"\[\d+\]", str(exc.value)) == ["[1]"], str(exc.value)
        assert "matrices[1]" in str(exc.value)

    def test_small_asymmetry_logs_one_warning_naming_the_matrix(self, caplog):
        doc = {"n": 2, "m": 3, "matrices": [[[0.0, 1.0 + 5e-8], [1.0, 0.0]], self.GOOD, self.GOOD]}
        with caplog.at_level(logging.WARNING, logger="specmm.files"):
            parse_instance(doc)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert re.findall(r"\[\d+\]", messages[0]) == ["[0]"], messages
        # a long family with two such matrices logs each once, by its own index
        mats = [self.GOOD] * 200
        mats[17] = mats[150] = [[0.0, 1.0 + 5e-8], [1.0, 0.0]]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="specmm.files"):
            parse_instance({"n": 2, "m": 200, "matrices": mats})
        messages = [r.getMessage() for r in caplog.records]
        assert [re.findall(r"\[\d+\]", m) for m in messages] == [["[17]"], ["[150]"]], messages

    def test_overflow_when_symmetrising_names_the_matrix(self, tmp_path, capsys):
        # finite entries whose (A + A^T)/2 overflows to inf
        doc = {"n": 2, "m": 1, "matrices": [[[1.7e308, 1.0], [1.0, -1.7e308]]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstanceFormatError, match=r"matrices\[0\]"):
                parse_instance(doc)
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        assert main(["embed", str(p)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "matrices[0]" in out.err

    def test_strings_are_not_numbers(self, tmp_path, capsys):
        doc = {"n": 2, "m": 1, "matrices": [[["1", "0"], ["0", "1"]]]}
        with pytest.raises(InstanceFormatError, match=r"matrices\[0\] is not numeric"):
            parse_instance(doc)
        p = tmp_path / "strings.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p)]) == 1
        assert "matrices[0] is not numeric" in capsys.readouterr().err

    def test_booleans_are_not_numbers(self):
        # JSON true and false would convert to 1.0 and 0.0; on the whole-list
        # path and on the per-matrix walk (forced by the ragged matrices[2])
        # the first matrix holding one is named
        mixed = [[True, 0.5], [0.5, False]]
        for last in (self.GOOD, [[1.0], [2.0, 3.0]]):
            doc = {"n": 2, "m": 3, "matrices": [self.GOOD, mixed, last]}
            with pytest.raises(InstanceFormatError, match=r"^matrices\[1\] is not numeric$"):
                parse_instance(doc)
        with pytest.raises(InstanceFormatError, match=r"^matrices\[0\] is not numeric$"):
            parse_instance({"n": 1, "m": 1, "matrices": [[[True]]]})
        # a boolean among entries that are neither 0 nor 1, and a false deep in a
        # random family of 200 matrices
        doc = {"n": 2, "m": 1, "matrices": [[[True, 2.5], [2.5, 3.5]]]}
        with pytest.raises(InstanceFormatError, match=r"^matrices\[0\] is not numeric$"):
            parse_instance(doc)
        a = np.random.default_rng(7).uniform(-1.0, 1.0, (200, 8, 8))
        mats = (a + a.transpose(0, 2, 1)).tolist()
        mats[137][5][5] = False
        with pytest.raises(InstanceFormatError, match=r"^matrices\[137\] is not numeric$"):
            parse_instance({"n": 8, "m": 200, "matrices": mats})

    def test_an_earlier_fault_is_named_before_a_later_one_of_another_kind(self):
        # matrices[0] fails only the asymmetry gate, which the whole-list check
        # reaches last; the non-numeric matrices[1] must not be named instead
        doc = {"n": 2, "m": 3, "matrices": [
            [[0.0, 1.0 + 1e-5], [1.0, 0.0]], [["0", 1.0], [1.0, 0.0]], self.GOOD,
        ]}
        with pytest.raises(InstanceFormatError, match=r"^matrices\[0\] asymmetry"):
            parse_instance(doc)

    def test_whole_list_parse_matches_the_matrix_walk(self, rng):
        # the one conversion of the whole list against the per-matrix walk of the
        # error path, bit for bit, with floats, ints and ints beyond int64 mixed
        for _ in range(30):
            n, m = (int(k) for k in rng.integers(1, 6, 2))
            a = rng.standard_normal((m, n, n)) * 10.0 ** rng.uniform(-8, 8, (m, 1, 1))
            mats = (a + a.transpose(0, 2, 1)).tolist()
            mats[0][0][0] = int(rng.integers(-9, 9))
            mats[-1][-1][-1] = 10**20
            inst, _ = parse_instance({"n": n, "m": m, "matrices": mats})
            walked = np.array([files._matrix(i, raw, n) for i, raw in enumerate(mats)])
            assert inst.stacked.tobytes() == InstanceSet(walked).stacked.tobytes()

    def test_integers_beyond_int64_are_numbers(self):
        inst, _ = parse_instance({"n": 1, "m": 2, "matrices": [[[10**20]], [[-(2**64)]]]})
        assert inst.stacked.ravel().tolist() == [1e20, -(2.0**64)]
        # beyond the float range, such an integer is rejected like 1e400
        with pytest.raises(InstanceFormatError, match=r"matrices\[1\] is not finite"):
            parse_instance({"n": 1, "m": 2, "matrices": [[[1.0]], [[10**400]]]})


class TestMaximinCommand:
    def test_pauli(self, pauli_file, capsys):
        assert main(["maximin", pauli_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] - SQ2_HALF) <= 1e-4

    def test_constant_rows(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "m": 2,
            "matrices": [[[3.0, 0.0], [0.0, 3.0]], [[3.0, 0.0], [0.0, 3.0]]],
        }
        p = tmp_path / "const.json"
        p.write_text(json.dumps(doc))
        assert main(["maximin", str(p), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert abs(got["value"] - 3.0) <= 1e-4


class TestEmbedCommand:
    EXPECT = (
        "*shift 1.0\n3\n3\n2 -2 -1\n0.0 0.0 1.0\n"
        "0 3 1 1 1.0\n"
        "1 1 1 1 2.0\n1 1 2 2 1.0\n1 2 1 1 1.0\n1 3 1 1 -1.0\n"
        "2 1 1 1 1.0\n2 1 2 2 2.0\n2 2 2 2 1.0\n2 3 1 1 -1.0\n"
        "3 1 1 1 1.0\n3 1 2 2 1.0\n"
    )

    def test_hand_checked_bytes(self, diag_file, capsys):
        assert main(["embed", diag_file]) == 0
        assert capsys.readouterr().out == self.EXPECT

    def test_deterministic_file_output(self, diag_file, tmp_path):
        o1, o2 = tmp_path / "a.dat", tmp_path / "b.dat"
        assert main(["embed", diag_file, "--out", str(o1)]) == 0
        assert main(["embed", diag_file, "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_auto_shift_in_header(self, pauli_file, capsys):
        assert main(["embed", pauli_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "*shift 2.0"


@pytest.mark.parametrize("argv", [
    ["embed", "FILE", "--shift", "none"],
    ["check", "FILE", "--shift", "none"],
    ["solve", "FILE", "--text"],
])
def test_removed_flags_are_usage_errors(argv, pauli_file, capsys):
    # the shift is read off the instance and text is the default report: neither
    # has a flag, and argparse rejects one with its usage status
    with pytest.raises(SystemExit) as exc:
        main([pauli_file if a == "FILE" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestClassicCommand:
    def test_inline_rows_matching_pennies(self, capsys):
        assert main(["classic", "--rows", "1,-1;-1,1"]) == 0
        out = capsys.readouterr().out
        assert "classic value  0.0" in out
        assert "difference" in out

    def test_vectors_file(self, tmp_path, capsys):
        p = tmp_path / "game.json"
        p.write_text(json.dumps({"vectors": [[1.0, 0.0], [0.0, 1.0]]}))
        assert main(["classic", str(p)]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, capsys):
        assert main(["classic"]) == 1
        capsys.readouterr()

    def test_bad_rows(self, capsys):
        assert main(["classic", "--rows", "1,zebra"]) == 1
        assert "rows" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "game.json"
        p.write_text('{"vectors": [[1.0, 0.0],')
        assert main(["classic", str(p)]) == 1
        assert "error: invalid JSON:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"vectors": [[0.0, 2.0], [True, 1.0]]}, "row 1 has an entry that is not a finite number"),
        ({"vectors": [[0.0, 2.0], [0.0, "1"]]}, "row 1 has an entry that is not a finite number"),
        ({"vectors": [[0.0, 2.0], 5]}, "row 1 is not a list of numbers"),
        ({"vectors": 5}, "expected an object with a 'vectors' list"),
    ], ids=["boolean", "string", "scalar-row", "scalar-vectors"])
    def test_vectors_must_be_rows_of_numbers(self, tmp_path, capsys, doc, message):
        # float() would read JSON true and "1" as 1.0, which solve never does,
        # and a scalar row is no row at all
        p = tmp_path / "game.json"
        p.write_text(json.dumps(doc))
        assert main(["classic", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCheckCommand:
    def test_pauli_passes(self, pauli_file, capsys):
        assert main(["check", pauli_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in (
            "eig-vs-bisection[0]",
            "eig-vs-bisection[1]",
            "primal-interior",
            "dual-interior",
            "dual-roundtrip",
            "weak-duality",
        ):
            assert f"PASS {name}" in out

    def test_diag_passes(self, diag_file, capsys):
        assert main(["check", diag_file]) == 0
        capsys.readouterr()

    def test_an_error_in_one_check_is_its_fail_line(self, pauli_file, capsys, monkeypatch):
        def broken(emb):
            raise ValueError("no interior point")

        monkeypatch.setattr(cli, "interior_dual_point", broken)
        assert main(["check", pauli_file]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "FAIL dual-interior: no interior point" in out
        assert [line.split(":")[0] for line in out] == [
            "PASS eig-vs-bisection[0]",
            "PASS eig-vs-bisection[1]",
            "PASS primal-interior",
            "FAIL dual-interior",
            "PASS dual-roundtrip",
            "PASS weak-duality",
        ]

    def test_a_family_at_scale_3e4_passes(self, tmp_path, capsys):
        # its interior primal point's largest residual is about 1.5e-11: within
        # the lift's own 1e-10 gate, which the battery does not tighten
        inst = random_instance(np.random.default_rng(0), 6, 4, scale=3e4)
        p = tmp_path / "scaled.json"
        p.write_text(json.dumps({"n": 6, "m": 4, "matrices": inst.stacked.tolist()}))
        assert main(["check", str(p)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_scaled_family_reports_every_check(self, tmp_path, capsys):
        # a seeded 6x4 family scaled by 1e8 fails the lifts' absolute
        # residual gates (ROADMAP item 5); each failure is its check's FAIL
        # line, and the battery runs to the end
        inst = random_instance(np.random.default_rng(0), 6, 4, scale=1e8)
        p = tmp_path / "scaled.json"
        p.write_text(json.dumps({"n": 6, "m": 4, "matrices": inst.stacked.tolist()}))
        assert main(["check", str(p)]) == 2
        out = capsys.readouterr()
        assert out.err == ""
        names = [re.match(r"(PASS|FAIL) (\S+):", line).group(2) for line in out.out.splitlines()]
        assert names == [f"eig-vs-bisection[{i}]" for i in range(4)] + [
            "primal-interior", "dual-interior", "dual-roundtrip", "weak-duality",
        ]

    @pytest.mark.parametrize("seed, scale", [([190509762, 99], 1e8), (0, 1e10), (0, 1e160)],
                             ids=["dense-6x4-1e8", "1e10", "1e160"])
    def test_eig_vs_bisection_passes_at_large_scales(self, tmp_path, capsys, seed, scale):
        # against an absolute 1e-7 the two routes disagreed by rounding from 1e8 up,
        # and the bisection returned NaN at 1e160; the first family is the benchmark's
        g = np.random.default_rng(seed).standard_normal((4, 6, 6))
        mats = scale * (g + g.transpose(0, 2, 1)) / 2.0
        p = tmp_path / "scaled.json"
        p.write_text(json.dumps({"n": 6, "m": 4, "matrices": mats.tolist()}))
        main(["check", str(p)])
        eig = [line for line in capsys.readouterr().out.splitlines() if "eig-vs" in line]
        assert [line.split(":")[0] for line in eig] == [
            f"PASS eig-vs-bisection[{i}]" for i in range(4)
        ]

    def test_eig_vs_bisection_fails_a_wrong_bisection_at_scale_1e_9(
            self, tmp_path, capsys, monkeypatch):
        # 0.0 is within 1e-8 of every eigenvalue of this family: only a bound relative
        # to ||A_i||_2 tells it from lambda_min
        monkeypatch.setattr(cli, "lambda_min_by_bisection", lambda a: 0.0)
        inst = random_instance(np.random.default_rng(0), 6, 4, scale=1e-9)
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps({"n": 6, "m": 4, "matrices": inst.stacked.tolist()}))
        assert main(["check", str(p)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out[:4]] == [
            f"FAIL eig-vs-bisection[{i}]" for i in range(4)
        ]


def seeded_reports():
    rng = np.random.default_rng(11)
    for n, m in ((1, 1), (1, 3), (2, 2), (4, 3), (6, 5)):
        yield report_from_certificate(
            solve_minimax(random_instance(rng, n, m), SaddleConfig(gap_tol=1e-6)))


def edge_reports():
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e308]
    for x_bar, y_bar in (([odd[:4], odd[3:]], odd), ([[]], []), ([], [[]]), ([[1.0]], [1])):
        yield Report(value=math.nan, upper=math.inf, lower=-math.inf, gap=-0.0,
                     converged=False, iterations=0, x_bar=x_bar, y_bar=y_bar,
                     tool_version="0.1.0")


class TestReports:
    def test_round_trip_bit_exact(self):
        rep = Report(
            value=-SQ2_HALF,
            upper=-0.7071,
            lower=-0.70711,
            gap=-0.7071 - (-0.70711),
            converged=True,
            iterations=225,
            x_bar=[[0.3, 0.1], [0.1, 0.7]],
            y_bar=[0.5, 0.5],
            tool_version="0.1.0",
        )
        back = report_from_json(report_to_json(rep))
        assert back == rep

    def test_json_equals_the_asdict_rendering(self):
        # seeded certificates, from n = 1 up; the field dict is written as is, on one line
        for rep in seeded_reports():
            assert report_to_json(rep) == json.dumps(dataclasses.asdict(rep)) + "\n"
            assert report_from_json(report_to_json(rep)) == rep

    def test_json_writes_the_standard_encoders_bytes_on_edge_values(self):
        for rep in edge_reports():
            assert report_to_json(rep) == json.dumps(vars(rep)) + "\n"

    def test_reports_written_indented_by_earlier_versions_still_load(self):
        # earlier versions wrote json.dumps(vars(report), indent=2); NaN is never equal
        # to itself, so the edge reports are compared through their one-line rendering
        for rep in seeded_reports():
            assert report_from_json(json.dumps(vars(rep), indent=2) + "\n") == rep
        for rep in edge_reports():
            back = report_from_json(json.dumps(vars(rep), indent=2) + "\n")
            assert report_to_json(back) == report_to_json(rep)

    def test_json_rendering_leaves_no_cyclic_garbage(self):
        # the indenting encoder's closures would leave reference cycles behind, which
        # the collector frees at a time of its own
        cert = solve_minimax(random_instance(np.random.default_rng(3), 4, 6))
        rep = report_from_certificate(cert)
        gc.collect()
        gc.disable()
        try:
            report_to_json(rep)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_text_rendering_contains_exact_decimals(self):
        rep = Report(
            value=1 / 3,
            upper=0.5,
            lower=0.25,
            gap=0.25,
            converged=False,
            iterations=10,
            x_bar=[[1.0]],
            y_bar=[1.0],
            tool_version="0.1.0",
        )
        text = report_to_text(rep)
        assert repr(1 / 3) in text
        assert "converged   False" in text

    def test_malformed_report_rejected(self):
        with pytest.raises(ValueError, match="report"):
            report_from_json(json.dumps({"value": 1.0}))

    def test_json_keys(self, pauli_file, capsys):
        assert main(["solve", pauli_file, "--json"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "value", "upper", "lower", "gap", "converged", "iterations", "x_bar", "y_bar",
            "tool_version",
        ]

    def test_report_with_a_shift_is_malformed(self, pauli_file, capsys):
        assert main(["solve", pauli_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report_from_json(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="malformed report"):
            report_from_json(json.dumps({**doc, "shift": 0.0}))


class TestConsoleEntryPoint:
    """The CLI in a fresh process (inside pytest the root logger already has
    handlers, so the CLI's logging.basicConfig would do nothing).

    test_installed_script and test_version_flag run the ``specmm`` script
    from PATH, so they need the package installed; they fail, not skip,
    where it is not. test_log_env_var runs ``specmm.cli`` (the module the
    script calls) under ``sys.executable`` with the imported package's
    source first on PYTHONPATH, so it checks SPECMM_LOG in the same
    interpreter, environment and source as the in-process tests.
    """

    def test_installed_script(self, pauli_file):
        import subprocess

        got = subprocess.run(
            ["specmm", "solve", pauli_file, "--json"], capture_output=True, text=True
        )
        assert got.returncode == 0
        assert json.loads(got.stdout)["converged"] is True

    def test_version_flag(self):
        import subprocess

        got = subprocess.run(["specmm", "--version"], capture_output=True, text=True)
        assert got.returncode == 0
        assert got.stdout.startswith("specmm ")

    def test_log_env_var(self, pauli_file):
        import os
        import subprocess
        import sys

        import specmm

        src = os.path.dirname(os.path.dirname(os.path.abspath(specmm.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, SPECMM_LOG="debug")
        env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        got = subprocess.run(
            [sys.executable, "-m", "specmm.cli", "solve", pauli_file, "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert got.returncode == 0
        assert "round" in got.stderr
