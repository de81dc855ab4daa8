"""tools/ab.py passes two copies of one tree and fails trees whose bytes differ."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab(a, b):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--a", str(a), "--b", str(b),
         "--workload", "circuit_verify", "--requests", "3", "--rounds", "1"],
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
