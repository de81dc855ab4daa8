"""Records hold numbers and build their validated states on first read.

The runtime path (``ico_point``, ``ico_sweep``, ``run_cycle``, ``sweep``,
``monte_carlo``) builds no ``DensityMatrix``; ``post_select``, the
verification path, builds and validates one per call.
"""

import math

import pytest

from icotherm import linalg
from icotherm.channels import AncillaState, switch_closed_form
from icotherm.fridge import (
    CycleParams,
    ico_point,
    ico_sweep,
    monte_carlo,
    run_cycle,
    sweep,
)
from icotherm.linalg import ValidationError
from icotherm.thermo import OUTCOMES, TwoLevelHamiltonian, post_select, thermal_state

H = TwoLevelHamiltonian(1.0)


def _joint():
    rho = thermal_state(H, 1.0)
    return switch_closed_form(AncillaState(math.pi / 2), rho, rho)


@pytest.fixture
def builds(monkeypatch):
    """Number of ``DensityMatrix`` constructions since the fixture was set up."""
    count = [0]
    init = linalg.DensityMatrix.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.DensityMatrix, "__init__", counting)
    return count


@pytest.mark.parametrize("call", [
    lambda: ico_sweep(H, math.pi / 2, 0.05, 5.0, 10_000),
    lambda: ico_sweep(H, 0.0, 0.05, 5.0, 100, "computational"),
    lambda: sweep(CycleParams(), 0.05, 5.0, 10_000),
    lambda: ico_point(H, 1.0, math.pi / 2),
    lambda: run_cycle(CycleParams()),
    lambda: monte_carlo(CycleParams(), 1000, seed=0),
], ids=["ico_sweep", "ico_sweep_computational", "sweep", "ico_point",
        "run_cycle", "monte_carlo"])
def test_runtime_path_builds_no_state(builds, call):
    call()
    assert builds[0] == 0


def test_post_select_builds_one_state_per_call(builds):
    joint = _joint()
    builds[0] = 0
    for n, outcome in enumerate(OUTCOMES, 1):
        ps = post_select(joint, outcome)
        assert builds[0] == n
        assert ps.state is not None
        assert builds[0] == n


def test_post_select_validates_before_it_returns(monkeypatch):
    joint = _joint()

    def reject(states):
        raise ValidationError("rejected")

    monkeypatch.setattr(linalg, "validate_states", reject)
    with pytest.raises(ValidationError, match="rejected"):
        post_select(joint, "minus")


def test_state_is_built_once_on_first_read(builds):
    pt = ico_point(H, 1.0, math.pi / 2)
    rep = run_cycle(CycleParams())
    first = (pt.plus.state, pt.minus.state, rep.rho_minus)
    assert builds[0] == 3
    again = (pt.plus.state, pt.minus.state, rep.rho_minus)
    assert all(a is b for a, b in zip(first, again))
    assert builds[0] == 3


def test_records_compare_and_hash():
    a, b = ico_point(H, 1.0, math.pi / 2), ico_point(H, 1.0, math.pi / 2)
    a.minus.state  # a cached state enters neither == nor hash
    assert a == b and hash(a) == hash(b)
    assert a != ico_point(H, 1.1, math.pi / 2)
    degenerate = ico_point(H, 1.0, 0.0, "computational")
    assert degenerate == ico_point(H, 1.0, 0.0, "computational")
    hash(degenerate)
    r, s = run_cycle(CycleParams()), run_cycle(CycleParams())
    r.rho_minus
    assert r == s and hash(r) == hash(s)
    joint = _joint()
    ps = post_select(joint, "plus")
    assert ps == post_select(joint, "plus") and hash(ps) == hash(post_select(joint, "plus"))
