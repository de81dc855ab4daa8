"""tools/ab.py passes two copies of one tree and fails trees whose bytes differ."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab(a, b, requests=3, rounds=1):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--a", str(a), "--b", str(b),
         "--workload", "circuit_verify", "--requests", str(requests),
         "--rounds", str(rounds)],
        capture_output=True, text=True, timeout=300)


def test_same_tree_passes():
    r = _ab(ROOT, ROOT)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.endswith("0 request(s) differ or fail\n")


def test_a_byte_difference_fails(tmp_path):
    # Every distance moves by 1e-17: still within the workload's check, but
    # the printed digits change.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    circuit = tmp_path / "src" / "icotherm" / "circuit.py"
    text = circuit.read_text()
    assert text.count("\n    return out\n") == 1
    circuit.write_text(text.replace("\n    return out\n",
                                    "\n    return [d + 1e-17 for d in out]\n"))
    r = _ab(ROOT, tmp_path)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "outputs differ" in r.stdout


def test_last_line_brackets_the_median_with_a_bootstrap_interval():
    r = _ab(ROOT, ROOT, requests=12, rounds=3)
    assert r.returncode == 0, r.stdout + r.stderr
    last = r.stdout.splitlines()[-1]
    found = re.search(r"median A/B x([\d.]+) \(95 % bootstrap interval "
                      r"x([\d.]+)-x([\d.]+)\)", last)
    assert found, last
    median, lo, hi = map(float, found.groups())
    assert lo <= median <= hi and lo < hi
    rounds = [float(x) for x in re.findall(r"A/B x([\d.]+),", r.stdout)]
    assert len(rounds) == 3 and median == sorted(rounds)[1]
