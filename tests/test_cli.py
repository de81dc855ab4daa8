import json
import math
import warnings

import pytest

import icotherm.cli as cli
from icotherm.linalg import DensityMatrix, ValidationError


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

    def test_bad_grid(self, capsys):
        code, _, err = run_capture(capsys, [
            "probs", "--t-min", "-1", "--t-max", "2", "--steps", "4"])
        assert code == 2 and "error" in err

    def test_single_step_needs_equal_bounds(self, capsys):
        code, _, _ = run_capture(capsys, [
            "probs", "--t-min", "1", "--t-max", "2", "--steps", "1"])
        assert code == 2

    def test_zero_trials(self, capsys):
        code, _, _ = run_capture(capsys, ["mc", "--trials", "0"])
        assert code == 2

    def test_validation_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(args):
            raise ValidationError("synthetic positivity breach")

        monkeypatch.setitem(cli._COMMANDS, "probs", boom)
        code, _, err = run_capture(capsys, [
            "probs", "--t-min", "1", "--t-max", "1", "--steps", "1"])
        assert code == 3 and "validation" in err


class TestNonFiniteGrid:
    @pytest.mark.parametrize("cmd", ["probs", "heat", "fridge", "circuit-verify"])
    @pytest.mark.parametrize("bound, value", [("t_max", "inf"), ("t_min", "nan")])
    def test_rejected_before_compute(self, capsys, tmp_path, cmd, bound, value):
        path = tmp_path / "rows.csv"
        flag = "--" + bound.replace("_", "-")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(capsys, [
                cmd, flag, value, "--steps", "4", "--out", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("icotherm: error:")
        assert f"{bound} must be finite" in err
        assert not path.exists()


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

    def test_degenerate_fridge_grid_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, err = run_capture(capsys, [
            "fridge", "--t-min", "0.01", "--out", str(path)])
        assert code == 2 and "success probability" in err
        assert not path.exists()
