"""The package's top level is its documented API, and the README example runs."""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import icotherm

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

PUBLIC = sorted("""
    TOL DensityMatrix ValidationError kron partial_trace random_density_matrix
    TwoLevelHamiltonian PostSelection effective_temperature thermal_state
    AncillaState apply_channel compose make_quantum_switch
    make_thermalizing_channel switch_closed_form validate_cptp
    build_switch_circuit cswap cswap_to_toffoli thermal_prep_angle
    verify_against_kraus verify_grid
    CycleParams CycleReport DegenerateCycleError IcoPoint MonteCarloStats
    ico_point ico_sweep monte_carlo run_cycle sweep
""".split())

# The names the top level no longer re-exports, still public in their module.
MODULE_ONLY = {
    "linalg": "dagger symmetrize",
    "thermo": "OUTCOMES internal_energy post_select shannon_entropy",
    "channels": "CptpReport QuantumChannel",
    "circuit": "Gate QubitRegister apply_gate crush embed_unitary "
               "gate_unitary ry toffoli x_gate",
    "fridge": "RNG_ALGORITHM",
}


def _section(title):
    return re.search(rf"\n## {title}\n(.*?)(?=\n## |\Z)", README, re.S).group(1)


def test_top_level_exports_the_documented_api():
    names = sorted(n for n, v in vars(icotherm).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC
    assert sorted(re.findall(r"`(\w+)`", _section("Public API"))) == PUBLIC


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_other_names_stay_in_their_modules(module):
    mod = importlib.import_module(f"icotherm.{module}")
    for name in MODULE_ONLY[module].split():
        assert hasattr(mod, name), name


def test_fridge_keeps_the_names_the_benchmark_reads():
    from icotherm import fridge
    assert fridge.TwoLevelHamiltonian is icotherm.TwoLevelHamiltonian
    assert fridge.CycleParams is icotherm.CycleParams
    assert fridge.DegenerateCycleError is icotherm.DegenerateCycleError


def _package_imports_and_math_exp():
    """Per module of src/icotherm: the sibling modules it imports, and
    whether it reads ``math.exp``."""
    out = {}
    for path in sorted((ROOT / "src" / "icotherm").glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports |= ({node.module} if node.module
                            else {a.name for a in node.names})
        exp = any(isinstance(node, ast.Attribute) and node.attr == "exp"
                  and isinstance(node.value, ast.Name) and node.value.id == "math"
                  for node in ast.walk(tree))
        out[path.stem] = imports, exp
    return out


def test_layering_and_one_boltzmann_formula():
    mods = _package_imports_and_math_exp()
    assert mods["circuit"][0] == {"linalg", "thermo"}
    assert "channels" not in mods["cli"][0]
    assert [m for m, (imports, _) in mods.items() if "channels" in imports] == [
        "__init__"]
    # The Boltzmann population is written once, in thermo._thermal_excited.
    assert [m for m, (_, exp) in mods.items() if exp] == ["thermo"]


def _writers(pattern):
    """(module, innermost enclosing def) of every expression in src/icotherm
    whose source text, as ``ast.unparse`` spells it, matches ``pattern``."""
    found = []

    def visit(node, module, where):
        if (isinstance(node, (ast.BinOp, ast.Call, ast.Attribute))
                and re.fullmatch(pattern, ast.unparse(node))):
            found.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, getattr(child, "name", where))

    for path in sorted((ROOT / "src" / "icotherm").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_each_verification_rule_has_one_writer():
    # The switch output's ancilla weights c², s² and sin(phi)/2.
    weights = (r"math\.(cos|sin)\([\w.]+ / 2\) \*\* 2"
               r"|math\.sin\([\w.]+\) / 2(\.0)?")
    assert _writers(weights) == [("thermo", "_ancilla_weights")] * 3
    # The thermal preparation angle arccos(p_g - p_e).
    assert _writers(r"math\.acos") == [("circuit", "_prep_angle")]
    # The partial trace's loop over tensor factors.
    assert _writers(r"np\.trace\(.*axis1=.*\)") == [("linalg", "_trace_out")]


def test_readme_library_example_prints_its_comments():
    code = re.search(r"```python\n(.*?)```", _section("Library example"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    # "print(x)  # 0.29492 -- words": the numbers before "--", to their digits.
    want = [line.split("#", 1)[1].split("--")[0].split()
            for line in code.splitlines() if line.startswith("print(")]
    got = [line.split() for line in out.getvalue().splitlines()]
    assert [len(w) for w in want] == [len(g) for g in got]
    for g_line, w_line in zip(got, want):
        assert [f"{float(g):.{len(w.split('.')[1])}f}"
                for g, w in zip(g_line, w_line)] == w_line
