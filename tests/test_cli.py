import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icotherm.cli as cli
from icotherm import _text
from icotherm.linalg import DensityMatrix, ValidationError

import oracles


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestProbs:
    def test_sweep_row_count_and_values(self, capsys):
        code, out, _ = run_capture(capsys, [
            "probs", "--t-min", "0.2", "--t-max", "3.0", "--steps", "57",
            "--phi", "1.5707963"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "phi", "p_plus", "p_minus"]
        assert len(rows) == 57
        at_one = [r for r in rows if abs(float(r["t"]) - 1.0) < 1e-9][0]
        assert float(at_one["p_minus"]) == pytest.approx(0.2949, abs=2e-4)
        for r in rows:
            assert float(r["p_plus"]) + float(r["p_minus"]) == pytest.approx(
                1.0, abs=1e-10)

    def test_classical_single_point(self, capsys):
        code, out, _ = run_capture(capsys, [
            "probs", "--phi", "0", "--t-min", "1", "--t-max", "1",
            "--steps", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["p_plus"]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[0]["p_minus"]) == pytest.approx(0.5, abs=1e-12)

    def test_computational_basis(self, capsys):
        code, out, _ = run_capture(capsys, [
            "probs", "--basis", "computational", "--phi", "0.8",
            "--t-min", "1", "--t-max", "1", "--steps", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["p_plus"]) == pytest.approx(
            math.cos(0.4) ** 2, abs=1e-10)

    def test_deterministic_output(self, capsys):
        argv = ["probs", "--t-min", "0.5", "--t-max", "2.0", "--steps", "7"]
        _, first, _ = run_capture(capsys, argv)
        _, second, _ = run_capture(capsys, argv)
        assert first == second


class TestHeat:
    def test_heats_balance(self, capsys):
        code, out, _ = run_capture(capsys, [
            "heat", "--t-min", "0.2", "--t-max", "3.0", "--steps", "57"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "dq_plus", "dq_minus"]
        for r in rows:
            assert float(r["dq_plus"]) + float(r["dq_minus"]) == pytest.approx(
                0.0, abs=1e-10)

    def test_classical_control_no_heat(self, capsys):
        code, out, _ = run_capture(capsys, [
            "heat", "--phi", "0", "--t-min", "0.5", "--t-max", "2.5",
            "--steps", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            assert abs(float(r["dq_minus"])) <= 1e-10


class TestFridge:
    def test_sweep_columns_and_peak(self, capsys):
        code, out, _ = run_capture(capsys, [
            "fridge", "--t-min", "0.2", "--t-max", "3.0", "--steps", "57"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t_cold", "p_minus", "w", "q_c", "eta"]
        etas = [float(r["eta"]) for r in rows]
        best = max(range(len(etas)), key=lambda i: etas[i])
        assert 0.06 <= etas[best] <= 0.10
        assert 0.45 <= float(rows[best]["t_cold"]) <= 0.75
        for r in rows:
            assert float(r["eta"]) * float(r["w"]) == pytest.approx(
                float(r["p_minus"]) * float(r["q_c"]), abs=1e-9)

    def test_entropy_base_flag(self, capsys):
        argv = ["fridge", "--t-min", "1", "--t-max", "2", "--steps", "2"]
        _, nat, _ = run_capture(capsys, argv)
        _, two, _ = run_capture(capsys, argv + ["--entropy-base", "2"])
        w_nat = float(parse_csv(nat)[1][0]["w"])
        w_two = float(parse_csv(two)[1][0]["w"])
        assert w_two == pytest.approx(w_nat / math.log(2), rel=1e-9)


def _t_cells(text, fmt):
    """The first column's cells of a CSV or JSON table, as spelled."""
    if fmt == "csv":
        return [line.split(",")[0] for line in text.splitlines()[1:]]
    return re.findall(r'^    "t(?:_cold)?": ([^,\n]*)', text, re.M)


class TestGridTemperatures:
    # probs and heat print the grid's t, as fridge does.  Taking it back from
    # T = t * delta as T / delta leaves some cells one ulp off, and row 1206
    # of this grid then prints 7.60183829265 for the grid's 7.60183829266.
    BOUNDS = (0.2781548776219206, 7.772015168688964, 1234)
    DELTA = "1.386730152501956"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_t_column_is_the_grid(self, capsys, fmt):
        t_min, t_max, steps = self.BOUNDS
        argv = ["--t-min", repr(t_min), "--t-max", repr(t_max), "--steps",
                str(steps), "--delta", self.DELTA, "--format", fmt]
        want = _t_cells("".join(_text._table_text(
            ["t"], [np.linspace(t_min, t_max, steps)], fmt)), fmt)
        assert len(want) == steps and want[1205] == "7.60183829266"
        for cmd in ("fridge", "probs", "heat"):
            code, out, _ = run_capture(capsys, [cmd, *argv])
            assert code == 0
            assert _t_cells(out, fmt) == want, cmd


class TestCircuitVerify:
    def test_grid_distances_tiny(self, capsys):
        code, out, _ = run_capture(capsys, [
            "circuit-verify", "--t-min", "0.4", "--t-max", "2.0",
            "--steps", "3"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "phi", "distance"]
        assert len(rows) == 9  # 3 temperatures x 3 angles
        assert all(float(r["distance"]) < 1e-10 for r in rows)

    def test_memory_does_not_grow_with_steps(self, capsys):
        def peak(steps):
            tracemalloc.start()
            try:
                code = cli.run(["circuit-verify", "--steps", str(steps),
                                "--phi", "1", "--decompose-cswap"])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        (code_50, peak_50), (code_500, peak_500) = peak(50), peak(500)
        assert code_50 == code_500 == 0
        assert peak_500 - peak_50 <= 0.5e6

    def test_single_phi_with_decomposition(self, capsys):
        code, out, _ = run_capture(capsys, [
            "circuit-verify", "--t-min", "1", "--t-max", "1", "--steps", "1",
            "--phi", "1.0", "--decompose-cswap"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["distance"]) < 1e-10


class TestMonteCarlo:
    def test_row_and_determinism(self, capsys):
        argv = ["mc", "--trials", "20000", "--seed", "11"]
        code, out1, _ = run_capture(capsys, argv)
        assert code == 0
        header, rows = parse_csv(out1)
        assert header == ["trials", "seed", "successes", "p_minus_emp",
                          "p_minus_exact", "w_total", "q_c_total"]
        r = rows[0]
        assert r["trials"] == "20000" and r["seed"] == "11"
        assert int(r["successes"]) == round(20000 * float(r["p_minus_emp"]))
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2

    def test_json_format_includes_rng(self, capsys):
        code, out, _ = run_capture(capsys, [
            "mc", "--trials", "100", "--seed", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["rng"] == "numpy-pcg64"
        assert payload[0]["trials"] == 100


class TestOutputModes:
    def test_json_mirrors_csv_columns(self, capsys):
        argv = ["probs", "--t-min", "1", "--t-max", "2", "--steps", "3"]
        _, csv_text, _ = run_capture(capsys, argv)
        _, json_text, _ = run_capture(capsys, argv + ["--format", "json"])
        header, rows = parse_csv(csv_text)
        payload = json.loads(json_text)
        assert len(payload) == len(rows)
        for obj, row in zip(payload, rows):
            assert list(obj) == header
            for k in header:
                assert obj[k] == pytest.approx(float(row[k]), abs=1e-12)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run_capture(capsys, [
            "probs", "--t-min", "1", "--t-max", "1", "--steps", "1",
            "--out", str(path)])
        assert code == 0 and out == ""
        header, rows = parse_csv(path.read_text())
        assert header == ["t", "phi", "p_plus", "p_minus"] and len(rows) == 1

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_capture(capsys, [
            "probs", "--t-min", "1", "--t-max", "1", "--steps", "1"])
        _, rows = parse_csv(out)
        assert rows[0]["p_minus"] == "0.294917899862"


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, _ = run_capture(capsys, ["probs", "--bogus"])
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_capture(capsys, [])
        assert code == 2

    def test_bad_grid(self, exits_2, rejected):
        exits_2(*rejected)

    def test_single_step_needs_equal_bounds(self, exits_2, rejected):
        exits_2(*rejected)

    def test_zero_trials(self, exits_2, rejected):
        exits_2(*rejected)

    def test_validation_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(args):
            raise ValidationError("synthetic positivity breach")

        monkeypatch.setitem(cli._COMMANDS, "probs", boom)
        code, _, err = run_capture(capsys, [
            "probs", "--t-min", "1", "--t-max", "1", "--steps", "1"])
        assert code == 3 and "validation" in err


def _never(*args, **kwargs):
    raise AssertionError("computed before every argument was checked")


_TABLES = ("probs", "heat", "fridge", "circuit-verify")
_OVERFLOW = "temperature 2.0 times delta 1e+308 exceeds the float range"
_UNDERFLOW = "temperature 1e-05 times delta 1e-320 underflows to 0"
_RESET_OVERFLOW = "t_reset 1e+300 times delta 1e+10 exceeds the float range"
_DEGENERATE = "success probability 9.373498642194622e-34 at t_cold=0.01"
_W_TOTAL = "trials 1000 times w 6.06497e+305 exceeds the float range"
_Q_C_TOTAL = "successes 29445 times q_c 1.54039e+305 exceeds the float range"
# Verdicts on the result, reached only after compute.
_RESULT_VERDICTS = (_DEGENERATE, _W_TOTAL, _Q_C_TOTAL)

# The rejection table, one list of rows per test that runs them:
# "Class.test" -> [(id, argv, message)].  argv exits 2 with
# "icotherm: error: <message>".  A row with id None is its test's only row
# and runs unparametrized.  Every subcommand decides each argument rule,
# mc's t * delta products included, before the kernel or the circuit runs;
# the degenerate t_cold and the mc totals are verdicts on the result.
REJECTED = {
    "TestExitCodes.test_bad_grid": [
        (None, ["probs", "--t-min", "-1", "--t-max", "2", "--steps", "4"],
         "need 0 < t_min <= t_max, got [-1.0, 2.0]")],
    "TestExitCodes.test_single_step_needs_equal_bounds": [
        (None, ["probs", "--t-min", "1", "--t-max", "2", "--steps", "1"],
         "a single-point grid requires t_min == t_max")],
    "TestExitCodes.test_zero_trials": [
        (None, ["mc", "--trials", "0"], "trials must be >= 1, got 0")],
    "TestNonFiniteGrid.test_rejected_before_compute": [
        (f"{name}-{value}-{cmd}", [cmd, flag, value, "--steps", "4"],
         f"{name} must be finite, got {value}")
        for flag, name, value in (("--t-max", "t_max", "inf"), ("--t-min", "t_min", "nan"))
        for cmd in _TABLES],
    "TestBadDelta.test_rejected_with_accurate_message": [
        (f"{value}-{cmd}", [cmd, f"--delta={value}"],
         f"delta must be positive and finite, got {float(value)}")
        for value in ("inf", "-inf", "nan", "0") for cmd in (*_TABLES, "mc")],
    "TestBadResetTemperature.test_rejected_with_accurate_message": [
        (f"{value}-{cmd}", [cmd, f"--t-reset={value}"],
         f"t_reset must be positive and finite, got {float(value)}")
        for value in ("inf", "nan", "0") for cmd in ("fridge", "mc")],
    # mc runs t_hot = t_cold unless --t-max is given; the error names the
    # temperature the user set.
    "TestBadMcTemperature.test_rejected_with_accurate_message": [
        (f"flags{i}-{message}", ["mc", *flags], message) for i, (flags, message) in enumerate([
            (["--t-min=0"], "t_cold must be positive, got 0.0"),
            (["--t-min=-1"], "t_cold must be positive, got -1.0"),
            (["--t-min=nan"], "t_cold must be positive, got nan"),
            (["--t-min=2", "--t-max=nan"], "t_hot must be positive, got nan")])],
    "TestNegativeSeed.test_rejected_with_accurate_message": [
        (None, ["mc", "--seed=-1"], "seed must be a non-negative integer, got -1")],
    "TestResetEnergyOverflow.test_rejected_before_output": [
        ("fridge", ["fridge", "--steps", "2", "--t-reset", "1e300", "--delta", "1e10"],
         _RESET_OVERFLOW),
        ("mc", ["mc", "--t-reset", "1e300", "--delta", "1e10"], _RESET_OVERFLOW)],
    "TestTemperatureOverflow.test_rejected_before_output": [
        *((cmd, [cmd, "--t-min", "2", "--t-max", "3", "--steps", "2", "--delta", "1e308"],
           _OVERFLOW) for cmd in _TABLES),
        ("mc", ["mc", "--t-min", "2", "--delta", "1e308"], _OVERFLOW)],
    "TestTemperatureUnderflow.test_rejected_before_output": [
        *((cmd, [cmd, "--t-min", "1e-5", "--t-max", "1", "--steps", "2", "--delta", "1e-320"],
           _UNDERFLOW) for cmd in _TABLES),
        ("mc", ["mc", "--t-min", "1e-300", "--delta", "1e-300"],
         "temperature 1e-300 times delta 1e-300 underflows to 0")],
    # A subnormal T keeps too few bits for delta/T; the first grid point.
    "TestSubnormalTemperature.test_rejected_before_output": [
        *((cmd, [cmd, "--delta", "1e-320", "--steps", "2"],
           "temperature 0.2 times delta 1e-320 is subnormal")
          for cmd in ("probs", "heat", "circuit-verify")),
        ("fridge", ["fridge", "--delta", "1e-318", "--steps", "2"],
         "temperature 0.2 times delta 1e-318 is subnormal"),
        ("mc", ["mc", "--t-min", "0.5", "--delta", "1e-318"],
         "temperature 0.5 times delta 1e-318 is subnormal")],
    "TestRejected.test_exit_2": [(" ".join(argv), argv, message) for argv, message in [
        (["heat", "--t-min", "1", "--t-max", "1", "--steps", "3"],
         "t_min must be strictly below t_max for steps > 1"),
        (["fridge", "--steps", "1"], "steps must be >= 2, got 1"),
        (["circuit-verify", "--steps", "0"], "steps must be >= 1, got 0"),
        (["probs", "--phi", "5"], "phi must lie in [0, pi], got 5.0"),
        (["heat", "--phi", "-1"], "phi must lie in [0, pi], got -1.0"),
        (["circuit-verify", "--phi", "5", "--steps", "2"], "phi must lie in [0, pi], got 5.0"),
        # Two bad flags: the order in which the rules fire.
        (["probs", "--phi", "5", "--t-max", "inf"], "t_max must be finite, got inf"),
        (["fridge", "--phi", "5", "--t-max", "inf"], "phi must lie in [0, pi], got 5.0"),
        (["fridge", "--t-reset", "0", "--phi", "5"],
         "t_reset must be positive and finite, got 0.0"),
        (["circuit-verify", "--phi", "5", "--t-min", "0"],
         "need 0 < t_min <= t_max, got [0.0, 3.0]"),
        (["mc", "--t-min", "0", "--phi", "5"], "t_cold must be positive, got 0.0"),
        (["mc", "--trials", "0", "--seed", "-1"], "trials must be >= 1, got 0"),
        (["mc", "--t-min", "0.01", "--trials", "0"], "trials must be >= 1, got 0"),
        (["fridge", "--t-min", "0.01", "--delta", "1e308"],  # the first bad point
         "temperature 1.825357142857143 times delta 1e+308 exceeds the float range"),
        # An argument rule before the degenerate verdict on t_cold.
        (["mc", "--t-min", "0.01", "--t-max", "2", "--delta", "1e308"], _OVERFLOW),
    ]],
    "TestRuntimePath.test_degenerate_fridge_grid_writes_no_file": [
        (None, ["fridge", "--t-min", "0.01"], _DEGENERATE)],
    "TestMonteCarloTotalOverflow.test_rejected_before_output": [
        ("w_total", ["mc", "--t-reset", "1e306", "--trials", "1000"], _W_TOTAL),
        ("q_c_total", ["mc", "--delta", "1e306", "--t-reset", "1e-3", "--trials", "100000"],
         _Q_C_TOTAL)],
}


def _rows(request):
    return REJECTED.get(f"{request.cls.__name__}.{request.function.__name__}",
                        []) if request.cls else []


def pytest_generate_tests(metafunc):
    """Run each test of REJECTED with more than one row once per row."""
    rows = _rows(metafunc)
    if rows and rows[0][0] is not None:
        metafunc.parametrize("rejected", [pytest.param(row[1:], id=row[0])
                                          for row in rows])


@pytest.fixture
def rejected(request):
    (_, argv, message), = _rows(request)
    return argv, message


@pytest.fixture
def exits_2(capsys, monkeypatch, tmp_path):
    """Assert that argv exits 2 with the exact message, no stdout and no
    file, to stdout (False) and to --out (True), warnings as errors."""
    def check(argv, message, modes=(False, True)):
        if message not in _RESULT_VERDICTS:  # an argument rule
            for owner, name in ((cli.kernel, "_probs"), (cli.kernel, "_heats"),
                                (cli.kernel, "cycles"), (cli, "verify_grid")):
                monkeypatch.setattr(owner, name, _never)
        path = tmp_path / "rows.csv"
        for to_file in modes:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_capture(capsys, [
                    *argv, *(["--out", str(path)] if to_file else [])])
            assert (code, out, err) == (2, "", f"icotherm: error: {message}\n")
            assert not path.exists()
    return check


class TestNonFiniteGrid:
    def test_rejected_before_compute(self, exits_2, rejected):
        exits_2(*rejected)


class TestBadDelta:
    def test_rejected_with_accurate_message(self, exits_2, rejected):
        exits_2(*rejected)


class TestBadResetTemperature:
    def test_rejected_with_accurate_message(self, exits_2, rejected):
        exits_2(*rejected)


class TestBadMcTemperature:
    @pytest.mark.parametrize("to_file", [False, True])
    def test_rejected_with_accurate_message(self, exits_2, rejected, to_file):
        exits_2(*rejected, modes=[to_file])


class TestNegativeSeed:
    @pytest.mark.parametrize("to_file", [False, True])
    def test_rejected_with_accurate_message(self, exits_2, rejected, to_file):
        exits_2(*rejected, modes=[to_file])


class TestResetEnergyOverflow:
    @pytest.mark.parametrize("to_file", [False, True])
    def test_rejected_before_output(self, exits_2, rejected, to_file):
        exits_2(*rejected, modes=[to_file])


class TestMonteCarloTotalOverflow:
    @pytest.mark.parametrize("to_file", [False, True])
    def test_rejected_before_output(self, exits_2, rejected, to_file):
        exits_2(*rejected, modes=[to_file])


class TestTemperatureOverflow:
    def test_rejected_before_output(self, exits_2, rejected):
        exits_2(*rejected)


class TestTemperatureUnderflow:
    def test_rejected_before_output(self, exits_2, rejected):
        exits_2(*rejected)


class TestSubnormalTemperature:
    def test_rejected_before_output(self, exits_2, rejected):
        exits_2(*rejected)


class TestRejected:
    def test_exit_2(self, exits_2, rejected):
        exits_2(*rejected)


class TestUnderflowingWork:
    """W = t_reset * delta * S below the normal range: eta without a warning."""

    @pytest.mark.parametrize("flags, eta", [
        (["--t-reset", "1e-320"], "inf"),  # W subnormal, Q_C P-/W overflows
        (["--t-reset", "1e-320", "--delta", "1e-10"], "inf"),  # W = 0
        (["--t-reset", "1e-320", "--delta", "1e-10", "--phi", "0"], "0"),
    ])
    def test_fridge_eta(self, capsys, flags, eta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(capsys, ["fridge", "--steps", "3",
                                                  *flags])
        assert (code, err) == (0, "")
        assert [row["eta"] for row in parse_csv(out)[1]] == [eta] * 3

    @pytest.mark.parametrize("delta", ["1", "1e-10"])
    def test_mc(self, capsys, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(capsys, [
                "mc", "--t-reset", "1e-320", "--delta", delta, "--trials", "100"])
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[1]) == 1


class TestRuntimePath:
    def test_tables_build_no_density_matrix(self, capsys, monkeypatch):
        built = []
        init = DensityMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DensityMatrix, "__init__", counting)
        for cmd in ("probs", "heat", "fridge"):
            code, _, _ = run_capture(capsys, [cmd, "--steps", "9"])
            assert code == 0
        assert built == []

    def test_degenerate_fridge_grid_writes_no_file(self, exits_2, rejected):
        exits_2(*rejected)


class TestOptions:
    # Every option of every subcommand, in --help order: (default, type,
    # choices), as each stood while the shared flags were declared per command.
    _OUT = {"--delta": (1.0, float, None), "--format": ("csv", None, ("csv", "json")),
            "--out": ("-", None, None)}
    _GRID = {"--t-min": (0.2, float, None), "--t-max": (3.0, float, None),
             "--steps": (57, int, None)}
    _PHI = {"--phi": (math.pi / 2, float, None)}
    _CYCLE = {**_PHI, "--t-reset": (1.0, float, None),
              "--entropy-base": ("e", None, ("e", "2"))}
    _ICO = {**_OUT, **_GRID, **_PHI,
            "--basis": ("pm", None, ("pm", "computational"))}
    OPTIONS = {
        "probs": _ICO,
        "heat": _ICO,
        "fridge": {**_OUT, **_GRID, **_CYCLE},
        "circuit-verify": {**_OUT, **_GRID, "--steps": (5, int, None),
                           "--phi": (None, float, None),
                           "--decompose-cswap": (False, None, None)},
        "mc": {**_OUT, "--t-min": (1.0, float, None), "--t-max": (None, float, None),
               **_CYCLE, "--trials": (10000, int, None), "--seed": (0, int, None)},
    }

    @staticmethod
    def _subparsers():
        sub, = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_subcommands(self):
        assert list(self._subparsers()) == list(self.OPTIONS)

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_every_option_has_help_and_its_default(self, command):
        actions = [a for a in self._subparsers()[command]._actions
                   if a.dest != "help"]
        want = [([flag], spec) for flag, spec in self.OPTIONS[command].items()]
        assert [(a.option_strings, (a.default, a.type, a.choices))
                for a in actions] == want
        assert [a.option_strings for a in actions if not a.help] == []


class TestParserCache:
    ARGVS = [
        ["circuit-verify", "--phi", "1", "--steps", "2"],
        ["circuit-verify", "--steps", "2"],
        ["probs", "--steps", "3", "--phi", "0.3", "--basis", "computational"],
        ["probs", "--steps", "3"],
        ["fridge", "--steps", "3", "--entropy-base", "2", "--format", "json"],
        ["fridge", "--steps", "3"],
        ["mc", "--trials", "50", "--t-max", "1.4", "--seed", "2"],
        ["mc", "--trials", "50"],
    ]

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_interleaved_runs_match_fresh_parser(self, capsys, monkeypatch):
        cached = [run_capture(capsys, argv) for argv in self.ARGVS * 2]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_capture(capsys, argv) for argv in self.ARGVS * 2]
        assert cached == fresh
        # no --phi right after a --phi run: phi is swept again
        phis = [[r["phi"] for r in parse_csv(cached[i][1])[1]] for i in (0, 1)]
        assert phis == [["1", "1"], ["0", "3.14159265359"] * 2]


class TestEarlyOutRejection:
    @pytest.mark.parametrize("argv, owner, stage", [
        (["probs", "--steps", "100000000"], cli.kernel, "_probs"),
        (["circuit-verify", "--steps", "12"], cli, "verify_grid"),
    ])
    def test_missing_directory_rejected_before_compute(self, capsys, monkeypatch,
                                                       tmp_path, argv, owner, stage):
        def never(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was checked")

        monkeypatch.setattr(owner, stage, never)
        path = tmp_path / "missing" / "x"
        code, out, err = run_capture(capsys, [*argv, "--out", str(path)])
        assert code == 2 and out == ""
        assert err == f"icotherm: error: [Errno 2] No such file or directory: '{path}'\n"
        assert not path.parent.exists()

    def test_file_in_directory_path_names_the_file(self, capsys, monkeypatch,
                                                    tmp_path):
        monkeypatch.setattr(cli.kernel, "_probs", None)
        (tmp_path / "afile").write_text("")
        path = tmp_path / "afile" / "sub" / "x"
        with pytest.raises(NotADirectoryError) as opened:
            open(path, "w")
        code, out, err = run_capture(
            capsys, ["probs", "--steps", "100000000", "--out", str(path)])
        assert (code, out) == (2, "")
        assert err == f"icotherm: error: {opened.value}\n"
        assert str(path) in err

    @pytest.mark.parametrize("argv, owner, stage", [
        (["probs", "--steps", "100000000"], cli.kernel, "_probs"),
        (["circuit-verify", "--steps", "12"], cli, "verify_grid"),
    ])
    @pytest.mark.parametrize("name", [
        "adir", "adir/", "adir/missing/", "missing/", "missing/sub/", "afile/",
        "afile/x", "afile/.", "", pytest.param("a" * 300, id="name_too_long"),
        pytest.param("link", id="dangling_link"),
    ])
    def test_unopenable_out_rejected_before_compute(self, capsys, monkeypatch,
                                                    tmp_path, argv, owner,
                                                    stage, name):
        def never(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was checked")

        monkeypatch.setattr(owner, stage, never)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        (tmp_path / "link").symlink_to(tmp_path / "missing" / "x")
        path = f"{tmp_path}{os.sep}{name}" if name else ""
        with pytest.raises(OSError) as opened:
            open(path, "w")
        code, out, err = run_capture(capsys, [*argv, "--out", path])
        assert (code, out) == (2, "")
        assert err == f"icotherm: error: {opened.value}\n"
        assert sorted(os.listdir(tmp_path)) == ["adir", "afile", "link"]
        assert os.listdir(tmp_path / "adir") == []

    def test_symlink_into_a_directory_is_written_through(self, capsys, tmp_path):
        (tmp_path / "adir").mkdir()
        link = tmp_path / "link.csv"
        link.symlink_to(Path("adir") / "x.csv")
        assert run_capture(capsys, ["probs", "--out", str(link)])[:2] == (0, "")
        assert link.is_symlink()
        stdout = run_capture(capsys, ["probs"])[1]
        assert (tmp_path / "adir" / "x.csv").read_text() == stdout


GOLDEN = Path(__file__).parent / "golden"


def _manifest(name):
    """The ``"<first>  <argv>"`` lines of a manifest, keyed by argv."""
    return {tuple(argv.split()): first
            for first, argv in (line.split("  ", 1) for line in
                                (GOLDEN / name).read_text().splitlines())}


# One "<file>  <argv>" line per golden table, also read by CI.  Each file was
# captured before a change it pins:
# - the default probs/heat/fridge tables, before the CLI formatted its
#   tables in one printf-style pass;
# - circuit-verify.csv (--steps 3, 9 points, run with and without Toffoli
#   expansion), before the circuit gates became permutations and axis
#   updates; circuit-verify-toffoli.json, before a grid ran its gates block by
#   block; circuit-verify-extreme.csv (T = 0.001..1000), before the circuit
#   ran in float64; circuit-verify-delta.json, before circuit-verify built its
#   closed-form reference from the kernel;
# - probs-phi0-computational.json and fridge-phi0.json, whose JSON float
#   columns hold only whole numbers (phi, P+-, q_c and eta are 0.0 or 1.0),
#   so every cell is respelled, before the JSON writer formatted its cells
#   in one pass;
# - mc-seed11.csv and mc-seed11-hot.json (mc --trials 196615), before
#   monte_carlo drew its uniforms in blocks.
GOLDEN_TABLES = _manifest("tables.txt")

# SHA-256 of tables large enough for the digit pass (the default 57-row
# tables fall under its cutoff), one "<sha256>  <argv>" line each, also read
# by CI: zeros (computational-basis heats), e+12 cells and whole-number JSON
# respells (--delta 1e13), heats from 1e-10 up, and a table of two chunks.
LARGE_DIGESTS = _manifest("large-tables.sha256")


def test_every_golden_table_is_in_the_manifest():
    # Besides the two manifests, only the demo outputs of test_demos.py.
    others = {"tables.txt", "large-tables.sha256",
              "02_heating_cooling.txt", "04_refrigerator.txt"}
    assert {f.name for f in GOLDEN.iterdir()} - others == set(GOLDEN_TABLES.values())


@pytest.mark.bit_exact
class TestGoldenBytes:
    @pytest.mark.parametrize("argv", list(GOLDEN_TABLES))
    def test_table(self, capsys, argv):
        code, out, _ = run_capture(capsys, list(argv))
        assert code == 0 and out == (GOLDEN / GOLDEN_TABLES[argv]).read_text()

    @pytest.mark.parametrize("argv", list(LARGE_DIGESTS))
    def test_large_table_digest(self, capsys, argv):
        code, out, _ = run_capture(capsys, list(argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == LARGE_DIGESTS[argv]


class TestConsoleEntry:
    """``python -m icotherm.cli`` runs ``main()``, which the tests above skip."""

    def _main(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "icotherm.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})

    def test_default_probs(self):
        r = self._main("probs")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == (GOLDEN / "probs.csv").read_text()

    def test_rejection(self):
        r = self._main("probs", "--t-max", "inf")
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "icotherm: error: t_max must be finite, got inf\n")


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308, 1e11, 1e12,
                1e15, 1e16, 123456789012345.0, 3.0, 0.1,
                # either side of the cut-offs that send a JSON cell to repr
                99999999999.99999, 99999999999.4, 2.0000000000001,
                1.00000000002, 1.0000000000049, 1e-300, 9.99e-301, 0.0001,
                9.9999999999995e-05, 123456789.0000004]
_FLOATS = st.one_of(
    st.floats(),  # every double, with nan, +-inf, -0.0 and subnormals
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-10 ** 17, 10 ** 17).map(float),
    st.floats(1e11, 1e16),
)
_COLUMNS = {
    "float": _FLOATS,
    "np_float": _FLOATS.map(np.float64),
    "int": st.integers(-10 ** 20, 10 ** 20),
    "np_int": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
}


@st.composite
def tables(draw):
    """(header, rows, extra): typed columns, 0 to 12 rows."""
    header = draw(st.lists(st.from_regex(r"[a-z_%][a-z0-9_%]{0,7}", fullmatch=True)
                           .filter(lambda key: key != "rng"),
                           min_size=1, max_size=6, unique=True))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)),
                          min_size=len(header), max_size=len(header)))
    n = draw(st.integers(0, 12))
    cols = [draw(st.lists(_COLUMNS[kind], min_size=n, max_size=n))
            for kind in kinds]
    extra = draw(st.one_of(st.none(),
                           st.fixed_dictionaries({"rng": st.text(max_size=12)})))
    return header, [list(row) for row in zip(*cols)], extra


def _columns(header, rows):
    """The rows of a table as the per-key columns ``cli._emit`` takes."""
    return [[row[j] for row in rows] for j in range(len(header))]


# The values a constant column holds: every kind of float the writer spells
# its own way, the subnormals among them.
_CONSTANTS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.tuples(st.floats(0.0, 2.2250738585072014e-308, exclude_max=True),
              st.sampled_from([1.0, -1.0])).map(lambda v: v[0] * v[1]),
)
_FOLD_KINDS = ("constant", "one_differs", "varying")


@st.composite
def folded_tables(draw):
    """(header, rows, extra): float columns at any position, each constant,
    constant but for one cell of another bit pattern (-0.0 among 0.0, and
    0.0 among -0.0), or varying; 2 to 12, or 60 to 700, rows."""
    kinds = draw(st.lists(st.sampled_from(_FOLD_KINDS), min_size=1, max_size=6))
    header = [f"k{j}%" if j % 2 else f"k{j}" for j in range(len(kinds))]
    n = draw(st.one_of(st.integers(2, 12), st.integers(60, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edge = np.array(_EDGE_FLOATS)
    cols = []
    for kind in kinds:
        if kind == "varying":
            col = np.where(rng.random(n) < 0.3, rng.choice(edge, n),
                           10.0 ** rng.uniform(-40, 40, n) * rng.choice([-1.0, 1.0], n))
        else:
            value = draw(_CONSTANTS)
            col = np.full(n, value)
            if kind == "one_differs":
                col[rng.integers(n)] = -value if value == 0.0 else draw(_FLOATS)
        cols.append(col.tolist())
    extra = draw(st.one_of(st.none(),
                           st.fixed_dictionaries({"rng": st.text(max_size=12)})))
    return header, [list(row) for row in zip(*cols)], extra


def _constant(column):
    """Every cell of a float column has the first one's bit pattern."""
    bits = np.asarray(column, dtype=float).view(np.uint64)
    return bool(np.all(bits == bits[0]))


@pytest.mark.bit_exact
class TestTableWriter:
    """``_emit`` writes exactly what csv.writer / json.dumps(indent=2) wrote."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
    @example(table=(["trials", "seed", "p"], [[10 ** 13, 10 ** 15, 0.25]],
                    {"rng": "numpy-pcg64"}), fmt="json")
    @example(table=(["a%d"], [[1.5]], {"rng": "50% pcg64"}), fmt="json")
    @example(table=(["t", "phi"], [], None), fmt="json")
    @example(table=(["t", "phi"], [], None), fmt="csv")
    def test_matches_old_writer(self, table, fmt):
        header, rows, extra = table
        expected = oracles.emit_text(header, rows, fmt, extra)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli._emit(header, _columns(header, rows),
                      argparse.Namespace(format=fmt, out="-"), extra)
        assert stdout.getvalue() == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"rows.{fmt}"
            cli._emit(header, _columns(header, rows),
                      argparse.Namespace(format=fmt, out=str(path)), extra)
            assert path.read_bytes() == expected.encode()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(table=folded_tables(), fmt=st.sampled_from(["csv", "json"]))
    @example(table=(["a", "b"], [[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0]], None), fmt="json")
    @example(table=(["a", "b", "c"], [[math.nan, math.inf, -0.0]] * 3, None), fmt="csv")
    @example(table=(["a", "b", "c"], [[math.nan, -math.inf, 5e-324]] * 3,
                    {"rng": "50% pcg64"}), fmt="json")
    @example(table=(["p", "q"], [[1.0, 0.25], [1.0, 0.5]], None), fmt="json")
    def test_constant_columns_fold(self, table, fmt):
        # A constant float column is spelled once, and the route follows the
        # cells that are left: the digit pass from _DIGIT_MIN_CELLS of them.
        header, rows, extra = table
        expected = oracles.emit_text(header, rows, fmt, extra)
        columns = _columns(header, rows)
        with mock.patch.object(_text, "_chunk_text", wraps=_text._chunk_text) as chunk:
            assert "".join(_text._table_text(header, columns, fmt, extra)) == expected
        varying = sum(not _constant(c) for c in columns)
        assert chunk.called == (len(rows) * varying >= _text._DIGIT_MIN_CELLS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_constant_columns_fold_across_chunks(self, chunk_rows, fmt):
        # Constant columns between, before and after varying ones, over two
        # chunks; the -0.0 column and the 0.0 with one -0.0 are apart.
        n = _text._CHUNK_ROWS + 5
        header, rows, extra = _boundary_table(4, n, seed=11)
        zeros = [0.0] * n
        zeros[n // 2] = -0.0
        consts = [[-0.0] * n, [0.1] * n, zeros, [1e300] * n, [math.nan] * n]
        cols = [consts[0], _columns(header, rows)[0], consts[1], consts[2],
                *_columns(header, rows)[1:], consts[3], consts[4]]
        header = [f"c{j}" for j in range(len(cols))]
        rows = [list(row) for row in zip(*cols)]
        expected = oracles.emit_text(header, rows, fmt, extra)
        assert "".join(_text._table_text(header, cols, fmt, extra)) == expected
        assert chunk_rows == [_text._CHUNK_ROWS, 5]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [2, 3, _text._DIGIT_MIN_CELLS + 1])
    def test_all_constant_table_is_one_row_repeated(self, chunk_rows, fmt, n):
        header = ["t", "50%", "z", "w"]
        rows = [[0.25, math.inf, -0.0, 7.0]] * n
        expected = oracles.emit_text(header, rows, fmt, {"rng": "%d"})
        pieces = _text._table_text(header, _columns(header, rows), fmt, {"rng": "%d"})
        assert pieces == [expected] and chunk_rows == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_int_column_is_not_folded(self, chunk_rows, fmt):
        # An int column keeps its cells; a constant float column beside it
        # folds, and the table still takes the % template.
        n = 300
        header = ["seed", "p", "q"]
        rows = [[7, 0.5, i / 7] for i in range(n)]
        expected = oracles.emit_text(header, rows, fmt)
        with mock.patch.object(_text, "_template_text",
                               wraps=_text._template_text) as template:
            assert "".join(_text._table_text(header, _columns(header, rows), fmt)) == expected
        (_, cols, ints, rows_arg, _), _ = template.call_args
        assert (ints, len(cols), rows_arg, chunk_rows) == ([True, False], 2, n, [])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_row_folds_nothing(self, fmt):
        header = ["trials", "p"]
        rows = [[10, 0.5]]
        with mock.patch.object(_text, "_folded", wraps=_text._folded) as folded:
            assert ("".join(_text._table_text(header, _columns(header, rows), fmt))
                    == oracles.emit_text(header, rows, fmt))
        assert not folded.called

    def test_json_near_whole_numbers_and_powers_of_ten(self):
        # Values within 1e-9 (relative) of the integers -50..50 and of
        # 10**0..10**16, both signs: where the 12-digit text is a whole
        # number, or changes between fixed and e-notation.  Then the
        # subnormals and the smallest normals, whose 12 digits need not
        # round-trip.
        centres = np.concatenate([np.arange(-50.0, 51.0),
                                  10.0 ** np.arange(17), -10.0 ** np.arange(17)])
        rel = np.linspace(-1e-9, 1e-9, 151)
        cells = (centres[:, None] * (1.0 + rel)).ravel().tolist()
        tiny = np.geomspace(5e-324, 1e-299, 151)
        cells += tiny.tolist() + (-tiny).tolist()
        header = ["a", "b", "c", "d", "e"]
        cells += [0.5] * (-len(cells) % len(header))
        rows = [cells[i:i + 5] for i in range(0, len(cells), 5)]
        for part in (rows[:2000], rows[2000:]):
            expected = oracles.emit_text(header, part, "json")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cli._emit(header, _columns(header, part),
                          argparse.Namespace(format="json", out="-"))
            assert stdout.getvalue() == expected


def _spelled(x):
    """The CSV writer's text of one float column, one cell per item."""
    assert len(x) >= _text._DIGIT_MIN_CELLS  # the digit pass runs
    text = "".join(_text._table_text(["x"], [np.asarray(x, dtype=float)], "csv"))
    return text.split("\n")[1:-1]


def _printf(x):
    return ["%.12g" % v for v in np.asarray(x, dtype=float).tolist()]


def _neighbours(x, ulps=2):
    """Each value and the doubles up to ``ulps`` steps either side of it."""
    out = [np.asarray(x, dtype=float)]
    for direction in (np.inf, -np.inf):
        y = out[0]
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def _halfway(rng, exponents, per_exponent):
    """Decimals of 13 significant digits ending in 5, parsed: each lies within
    a rounding error of a point halfway between two 12-digit values."""
    mantissas = rng.integers(10 ** 11, 10 ** 12, (len(exponents), per_exponent))
    return np.array([float(f"{m}5e{e - 12}") for e, row in zip(exponents, mantissas)
                     for m in row.tolist()])


@pytest.mark.bit_exact
class TestDigitPass:
    """The table writer's numpy digits equal ``"%.12g" % x`` cell for cell."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20201124)
        for _ in range(8):  # 4M doubles, every exponent and payload
            x = rng.integers(0, 2 ** 64, 500_000, dtype=np.uint64).view(float)
            assert _spelled(x) == _printf(x)

    def test_log_uniform_both_signs(self):
        rng = np.random.default_rng(12580)
        x = 10.0 ** rng.uniform(-35, 35, 1_000_000)
        x[::2] *= -1.0
        assert _spelled(x) == _printf(x)

    def test_edges(self):
        rng = np.random.default_rng(794)
        powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
        carries = np.array([float(f"{m}e{k}") for k in range(-45, 60)
                            for m in ("9.9999999999995", "9.99999999999949",
                                      "9.99999999999951", "1.00000000000005")])
        cutoffs = [1e-4, 9.9999999999995e-5, 9.99999999999949e-5, 9.99999999999e-5,
                   1e12, 999999999999.5, 999999999999.4, 999999999999.0,
                   99999999999.95, 1e11]
        specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                    -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308]
        halfway = _halfway(rng, range(-40, 60), 40)
        x = np.concatenate([_neighbours(powers), _neighbours(carries),
                            _neighbours(cutoffs, 8), specials,
                            _neighbours(halfway, 1)])
        x = np.concatenate([x, -x])
        assert _spelled(x) == _printf(x)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_exponent_one_off_is_corrected(self, monkeypatch, shift):
        # log10 lands one off only within a few ulps of a power of ten; the
        # pass must recover from an E one off anywhere.
        exponent = _text._decimal_exponent
        monkeypatch.setattr(_text, "_decimal_exponent",
                            lambda a: exponent(a) + shift)
        rng = np.random.default_rng(3)
        x = 10.0 ** rng.uniform(-30, 50, 20_000)
        assert _spelled(x) == _printf(x)


@pytest.mark.bit_exact
class TestThreeWordCells:
    """A digit-pass cell is three words, 22 bytes: no float text is longer
    than 19, in ``%.12g`` or in JSON."""

    @pytest.fixture(scope="class")
    def texts(self):
        # The edge floats and 1M random bit patterns, with their texts.
        # json.dumps spells a finite float as its repr, and the non-finite
        # ones in at most 9 bytes.
        bits = np.random.default_rng(1919).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
        x = np.concatenate([_EDGE_FLOATS, bits.view(float)])
        csv_texts = _printf(x)
        return x, csv_texts, [repr(float(t)) for t in csv_texts]

    def test_no_text_is_longer_than_19_bytes(self, texts):
        _, csv_texts, json_texts = texts
        assert max(map(len, csv_texts)) == 19
        assert max(map(len, json_texts)) == 19

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_longest_texts_match_oracle(self, chunk_rows, texts, fmt):
        x, csv_texts, json_texts = texts
        longest = [v for v, c, j in zip(x.tolist(), csv_texts, json_texts)
                   if len(c) >= 18 or len(j) >= 18][:300]
        cells = [-2.2250738585072014e-308, -5e-324, -1234567890120000.0,
                 -math.inf, math.nan] + longest
        assert ["%.12g" % v for v in cells[:3]] == [
            "-2.22507385851e-308", "-4.94065645841e-324", "-1.23456789012e+15"]
        assert json.dumps(cells[2]) == "-1234567890120000.0"
        cells += cells[:-len(cells) % 4]
        header = ["a", "b%", "c", "d"]
        rows = [cells[i:i + 4] for i in range(0, len(cells), 4)]
        expected = oracles.emit_text(header, rows, fmt)
        assert "".join(_text._table_text(header, _columns(header, rows), fmt)) == expected
        assert chunk_rows == [len(rows)]


_BIG_KINDS = ("bits", "log_uniform", "unit", "whole", "edge")


@st.composite
def big_tables(draw):
    """(header, rows, extra): 300 to 700 rows of float columns, drawn from a
    seeded generator, so each column mixes many exponents and edge values."""
    header = draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)
                           .filter(lambda key: key != "rng"),
                           min_size=1, max_size=6, unique=True))
    kinds = draw(st.lists(st.sampled_from(_BIG_KINDS),
                          min_size=len(header), max_size=len(header)))
    n = draw(st.integers(300, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edge = np.array(_EDGE_FLOATS)
    cols = []
    for kind in kinds:
        if kind == "bits":
            col = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float)
        elif kind == "log_uniform":
            col = 10.0 ** rng.uniform(-40, 40, n) * rng.choice([-1.0, 1.0], n)
        elif kind == "unit":
            col = rng.random(n)
        elif kind == "whole":
            col = rng.integers(-10 ** 6, 10 ** 6, n).astype(float)
        else:
            col = rng.choice(edge, n)
        cols.append(col.tolist())
    extra = draw(st.one_of(st.none(),
                           st.fixed_dictionaries({"rng": st.text(max_size=12)})))
    return header, [list(row) for row in zip(*cols)], extra


@pytest.mark.bit_exact
class TestTableWriterDigitPass:
    """Tables large enough for the digit pass, written as the oracle writes them."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(table=big_tables(), fmt=st.sampled_from(["csv", "json"]))
    def test_matches_oracle(self, table, fmt):
        header, rows, extra = table
        expected = oracles.emit_text(header, rows, fmt, extra)
        with mock.patch.object(_text, "_chunk_text", wraps=_text._chunk_text) as chunk:
            assert "".join(_text._table_text(
                header, _columns(header, rows), fmt, extra)) == expected
        assert chunk.called


def _boundary_table(float_cols, n, seed):
    """(header, rows, extra): ``float_cols`` float columns of ``n`` mixed
    values, with ``%`` in a key and in ``extra``."""
    rng = np.random.default_rng(seed)
    edge = np.array(_EDGE_FLOATS)
    cols = [np.where(rng.random(n) < 0.3, rng.choice(edge, n),
                     10.0 ** rng.uniform(-40, 40, n) * rng.choice([-1.0, 1.0], n)).tolist()
            for _ in range(float_cols)]
    header = ["t", "n%d", "50%"] + [f"x{j}" for j in range(float_cols - 3)]
    return header, [list(row) for row in zip(*cols)], {"rng": "50% pcg64"}


@pytest.fixture
def chunk_rows(monkeypatch):
    """The row count of each chunk the digit pass writes."""
    rows = []
    chunk_text = _text._chunk_text

    def counted(*args):
        rows.append(len(args[1][0]))
        return chunk_text(*args)

    monkeypatch.setattr(_text, "_chunk_text", counted)
    return rows


@pytest.mark.bit_exact
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("float_cols, n, digit_pass",
                         [(3, 85, False), (4, 64, True)], ids=["255", "256"])
def test_route_boundary_matches_oracle(chunk_rows, fmt, float_cols, n, digit_pass):
    # 255 float cells take the % template, 256 the digit pass.
    assert float_cols * n == _text._DIGIT_MIN_CELLS - (not digit_pass)
    header, rows, extra = _boundary_table(float_cols, n, seed=float_cols)
    expected = oracles.emit_text(header, rows, fmt, extra)
    assert "".join(_text._table_text(header, _columns(header, rows), fmt, extra)) == expected
    assert chunk_rows == ([n] if digit_pass else [])


@pytest.mark.bit_exact
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64_array"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_route_int_column_takes_the_template(chunk_rows, fmt, as_array):
    # A table with an int column takes the % template whatever its size,
    # whether the column is a list or an int ndarray.
    n = _text._CHUNK_ROWS + 5
    header, rows, extra = _boundary_table(4, n, seed=5)
    ints = np.random.default_rng(6).integers(-2 ** 62, 2 ** 62, n).tolist()
    header.insert(1, "seed")
    rows = [[row[0], i, *row[1:]] for row, i in zip(rows, ints)]
    expected = oracles.emit_text(header, rows, fmt, extra)
    columns = _columns(header, rows)
    if as_array:
        columns[1] = np.array(columns[1], dtype=np.int64)
    assert "".join(_text._table_text(header, columns, fmt, extra)) == expected
    assert chunk_rows == []


@pytest.mark.bit_exact
@pytest.mark.parametrize("scale", [None, 1 / 7], ids=["int_only", "digit_pass"])
def test_json_longer_than_a_chunk(chunk_rows, scale):
    # An int-only table takes the % template whatever its length; a float
    # table crosses the chunk joint, and the second chunk keeps its first
    # object's ",\n".
    header = ["trials", "seed%"]
    rows = [[i, -7919 * i] if scale is None else [i * scale, -7919 * i * scale]
            for i in range(_text._CHUNK_ROWS + 5)]
    expected = oracles.emit_text(header, rows, "json", {"rng": "%s"})
    assert "".join(_text._table_text(
        header, _columns(header, rows), "json", {"rng": "%s"})) == expected
    assert chunk_rows == ([] if scale is None else [_text._CHUNK_ROWS, 5])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_the_chunks_as_they_are(chunk_rows, tmp_path, fmt):
    # A float table longer than a chunk is four pieces: the header, two
    # chunks and the tail.  _emit writes them unjoined, to stdout and to
    # --out, and opens no file until every piece exists.
    header, rows, extra = _boundary_table(4, _text._CHUNK_ROWS + 5, seed=7)
    columns = _columns(header, rows)
    expected = oracles.emit_text(header, rows, fmt, extra)
    pieces = _text._table_text(header, columns, fmt, extra)
    head, tail = {"csv": (",".join(header) + "\n", ""), "json": ("[\n", "\n]\n")}[fmt]
    assert len(pieces) == 4 and (pieces[0], pieces[3]) == (head, tail)
    assert "".join(pieces) == expected and chunk_rows == [_text._CHUNK_ROWS, 5]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._emit(header, columns, argparse.Namespace(format=fmt, out="-"), extra)
    assert stdout.getvalue() == expected
    path = tmp_path / f"rows.{fmt}"
    cli._emit(header, columns, argparse.Namespace(format=fmt, out=str(path)), extra)
    assert path.read_bytes() == expected.encode()
    path.unlink()
    chunk_text = _text._chunk_text

    def fail_second(consts, cols, *args):
        if len(cols[0]) == 5:
            raise ValidationError("second chunk")
        return chunk_text(consts, cols, *args)

    with mock.patch.object(_text, "_chunk_text", fail_second):
        with pytest.raises(ValidationError):
            cli._emit(header, columns, argparse.Namespace(format=fmt, out=str(path)),
                      extra)
    assert not path.exists()
