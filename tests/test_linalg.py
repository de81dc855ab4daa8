import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icotherm.linalg import (
    TOL,
    DensityMatrix,
    ValidationError,
    kron,
    partial_trace,
    random_density_matrix,
    symmetrize,
    validate_states,
)

import oracles

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.3, 0.7]))
        np.testing.assert_allclose(out, np.diag([0.3, 0.7, 0.0, 0.0]))

    def test_basis_permutation_round_trip(self):
        # (sigma_x (x) sigma_x) is an involutive permutation of basis vectors
        k = kron(SX, SX)
        for idx in range(4):
            v = np.zeros(4, complex)
            v[idx] = 1.0
            np.testing.assert_allclose(k @ (k @ v), v, atol=1e-15)

    def test_matches_index_arithmetic_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(kron(a, b), oracles.kron_by_indices(a, b),
                                   atol=1e-15)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.trace(kron(a, b)) == pytest.approx(
                np.trace(a) * np.trace(b), abs=1e-12)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho_a = DensityMatrix(oracles.random_rho(2, rng))
        rho_b = DensityMatrix(oracles.random_rho(2, rng))
        joint = DensityMatrix(kron(rho_a.mat, rho_b.mat), dims=(2, 2))
        np.testing.assert_allclose(partial_trace(joint, {0}).mat, rho_a.mat,
                                   atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, {1}).mat, rho_b.mat,
                                   atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        v = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
        bell = DensityMatrix(np.outer(v, v.conj()), dims=(2, 2))
        np.testing.assert_allclose(partial_trace(bell, {0}).mat, I2 / 2,
                                   atol=1e-12)

    def test_matches_explicit_summation_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = oracles.random_rho(4, rng)
            joint = DensityMatrix(m, dims=(2, 2))
            np.testing.assert_allclose(partial_trace(joint, {0}).mat,
                                       oracles.ptrace_second(m), atol=1e-12)
            np.testing.assert_allclose(partial_trace(joint, {1}).mat,
                                       oracles.ptrace_first(m), atol=1e-12)

    def test_random_two_qubit_marginal_is_valid_state(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            joint = random_density_matrix(4, rng, dims=(2, 2))
            red = partial_trace(joint, {1})
            assert np.trace(red.mat).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(red.mat)[0] >= -1e-10

    def test_all_but_one_factor_of_three_qubits(self):
        rng = np.random.default_rng(17)
        for keep in ({0}, {1}, {2}):
            joint = random_density_matrix(8, rng, dims=(2, 2, 2))
            red = partial_trace(joint, keep)
            assert red.dims == (2,)  # construction re-validates the state

    def test_errors(self):
        rng = np.random.default_rng(19)
        joint = random_density_matrix(4, rng, dims=(2, 2))
        with pytest.raises(ValueError):
            partial_trace(joint, set())
        with pytest.raises(ValueError):
            partial_trace(joint, {2})
        with pytest.raises(ValueError):
            partial_trace(joint, {-1})


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            DensityMatrix(I2 / 2, dims=(3,))

    def test_rejects_nonfinite(self):
        m = np.diag([1.0, np.nan]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_default_qubit_factorization(self):
        assert DensityMatrix(np.eye(8) / 8).dims == (2, 2, 2)
        assert DensityMatrix(np.eye(3) / 3).dims == (3,)

    def test_immutable(self):
        rho = DensityMatrix(I2 / 2)
        with pytest.raises(AttributeError):
            rho.mat = I2
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 9.0

    def test_trace_defect_bound(self):
        slightly_off = np.diag([0.5 + 2e-10, 0.5]).astype(complex)
        with pytest.raises(ValidationError, match="trace off by 2.000e-10"):
            DensityMatrix(slightly_off)
        DensityMatrix(np.diag([0.5 + 0.5e-10, 0.5]).astype(complex))


class TestValidateStates:
    GOOD = I2 / 2
    NON_FINITE = np.diag([1.0, np.nan]).astype(complex)
    NON_HERMITIAN = np.array([[0.5, 0.5], [0.0, 0.5]], complex)
    BAD_TRACE = np.diag([0.7, 0.7]).astype(complex)
    NEGATIVE = np.diag([1.5, -0.5]).astype(complex)

    def _message(self, m):
        with pytest.raises((ValueError, ValidationError)) as e:
            DensityMatrix(m)
        return type(e.value), str(e.value)

    @pytest.mark.parametrize("stack, culprit", [
        # the earliest bad state wins, whatever check a later state fails
        (["GOOD", "NEGATIVE", "NON_HERMITIAN"], "NEGATIVE"),
        (["GOOD", "BAD_TRACE", "NON_FINITE"], "BAD_TRACE"),
        (["NON_FINITE", "NON_HERMITIAN"], "NON_FINITE"),
        (["GOOD", "GOOD", "NON_HERMITIAN", "BAD_TRACE"], "NON_HERMITIAN"),
        (["NEGATIVE", "GOOD"], "NEGATIVE"),
    ])
    def test_raises_what_a_state_by_state_loop_raises_first(self, stack, culprit):
        with pytest.raises((ValueError, ValidationError)) as e:
            validate_states(np.array([getattr(self, k) for k in stack]))
        assert (type(e.value), str(e.value)) == self._message(getattr(self, culprit))

    def test_returns_symmetrized_stack(self):
        rng = np.random.default_rng(4)
        states = np.array([random_density_matrix(4, rng).mat for _ in range(3)])
        drift = states + 1e-13j * rng.normal(size=states.shape)
        out = validate_states(drift)
        np.testing.assert_array_equal(out, (drift + drift.conj().swapaxes(1, 2)) / 2)
        for m in out:
            np.testing.assert_array_equal(m, DensityMatrix(m).mat)


def _real_state(dim, min_eig, rng):
    """Real Q diag(lambda) Q^T of unit trace whose smallest eigenvalue is min_eig."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    rest = rng.random(dim - 1) + 0.05
    lam = np.concatenate([[min_eig], rest * (1.0 - min_eig) / rest.sum()])
    return (q * lam) @ q.T


def _spoil(kind, m, size):
    """A copy of the real state m failing one check by a defect of ``size``."""
    bad = m.copy()
    if kind == "non-finite":
        bad[0, 0] = [np.nan, np.inf][size > 1e-3]
    elif kind == "hermiticity":
        bad[0, 1] += size
    elif kind == "trace":
        bad *= 1.0 + size
    else:  # move weight off the smallest eigenvalue's direction
        _, v = np.linalg.eigh(m)
        bad += size * (np.outer(v[:, -1], v[:, -1]) - np.outer(v[:, 0], v[:, 0]))
    return bad


class TestRealStacks:
    """A real stack stays real and is judged as its complex copy would be."""

    def test_real_stack_stays_real(self):
        rng = np.random.default_rng(11)
        a = np.array([_real_state(16, 0.0, rng) for _ in range(4)])
        a[1, 2, 3] += 1e-13  # Hermiticity drift inside TOL
        out = validate_states(a)
        assert out.dtype == np.float64
        assert np.array_equal(out, symmetrize(a))
        assert np.array_equal(validate_states(a[1]), symmetrize(a[1]))
        assert np.array_equal(validate_states(a.astype(complex)), out)

    @pytest.mark.parametrize("kind", ["non-finite", "hermiticity", "trace",
                                      "eigenvalue"])
    @pytest.mark.parametrize("dim", [2, 16])
    def test_rejections_match_complex(self, kind, dim):
        # State 2 fails; state 4 fails the same check by more, so the
        # batched pass sees state 4's defect and the re-check names state 2.
        rng = np.random.default_rng(12)
        a = np.array([_real_state(dim, 0.0, rng) for _ in range(5)])
        a[2] = _spoil(kind, a[2], 2.5e-10 if kind == "eigenvalue" else 1e-6)
        a[4] = _spoil(kind, a[4], 1e-2)
        verdicts = []
        for m in (a, a[2]):
            for stack in (m, m.astype(complex)):
                with pytest.raises((ValueError, ValidationError)) as e:
                    validate_states(stack)
                verdicts.append((type(e.value), str(e.value)))
        with pytest.raises((ValueError, ValidationError)) as e:
            DensityMatrix(a[2])
        assert verdicts == [(type(e.value), str(e.value))] * 4

    def test_verdict_at_the_bound_is_the_complex_verdict(self):
        # Within rounding of -TOL, real and complex eigvalsh can fall on
        # opposite sides of the bound: a real state gets the complex verdict.
        rng = np.random.default_rng(13)
        for _ in range(300):
            m = _real_state(16, -TOL * (1 + rng.uniform(-3e-5, 3e-5)), rng)
            verdicts = []
            for a in (m, m.astype(complex)):
                try:
                    validate_states(a)
                    verdicts.append(None)
                except ValidationError as e:
                    verdicts.append(str(e))
            assert verdicts[0] == verdicts[1]


def _state_with_min_eig(dim, min_eig, rng):
    """U diag(lambda) U† of unit trace whose smallest eigenvalue is min_eig."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(g)
    rest = rng.random(dim - 1) + 0.05
    lam = np.concatenate([[min_eig], rest * (1.0 - min_eig) / rest.sum()])
    return (u * lam) @ u.conj().T


def _loop_verdict(states):
    """The eigvalsh message of the first state below -TOL, else None."""
    for m in states:
        min_eig = float(np.linalg.eigvalsh(symmetrize(m)).min())
        if min_eig < -TOL:
            return f"state has negative eigenvalue {min_eig:.3e}"
    return None


# lambda_min in units of TOL: far outside, at +-0.1 % and +-1 % of the bound,
# at the certificate's shift (-0.99) and inside.
_MIN_EIG_FACTORS = [-3.0, -2.0, -1.01, -1.001, -1.0, -0.999, -0.99, -0.5, 0.0]


class TestPositivityCertificate:
    """Cholesky of the state shifted by just under TOL, eigvalsh when it fails."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([2, 4, 16]), st.integers(0, 2**32 - 1),
           st.one_of(st.sampled_from(_MIN_EIG_FACTORS).map(lambda f: [f]),
                     st.lists(st.sampled_from(_MIN_EIG_FACTORS), min_size=1,
                              max_size=6).map(lambda fs: fs + [None])))
    def test_verdict_is_eigvalsh_verdict(self, dim, seed, factors):
        # [f] is one (dim, dim) state; a list ending in None is a stack.
        rng = np.random.default_rng(seed)
        states = np.array([_state_with_min_eig(dim, f * TOL, rng)
                           for f in factors if f is not None])
        a = states[0] if factors[-1] is not None else states
        want = _loop_verdict(states)
        if want is None:
            np.testing.assert_array_equal(validate_states(a), symmetrize(a))
        else:
            with pytest.raises(ValidationError) as got:
                validate_states(a)
            assert str(got.value) == want

    def test_fallback_accepts_just_inside_the_bound(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rng = np.random.default_rng(8)
        state = _state_with_min_eig(16, -0.995 * TOL, rng)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(symmetrize(state) + (TOL - 1e-12) * np.eye(16))
        good = [random_density_matrix(16, rng).mat for _ in range(3)]
        for a in (state, np.array([good[0], state, *good[1:]])):
            calls.clear()
            np.testing.assert_array_equal(validate_states(a), symmetrize(a))
            assert calls == [a.shape]  # the certificate failed, eigvalsh ran once

    def test_stack_names_the_state_below_the_bound(self):
        rng = np.random.default_rng(9)
        stack = np.array([random_density_matrix(16, rng).mat for _ in range(16)])
        stack[9] = _state_with_min_eig(16, -2.0 * TOL, rng)
        want = float(np.linalg.eigvalsh(symmetrize(stack[9])).min())
        with pytest.raises(ValidationError) as got:
            validate_states(stack)
        assert str(got.value) == f"state has negative eigenvalue {want:.3e}"

    def test_valid_states_never_need_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(10)
        stack = np.array([random_density_matrix(16, rng).mat for _ in range(16)])

        def refused(a):
            raise AssertionError("eigvalsh ran on a certified state")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        validate_states(stack)
        DensityMatrix(np.diag([1.0, 0.0]))  # pure: PSD but singular


def _symmetrize_first(states):
    """validate_states with symmetrize run before the trace check on every
    stack: the reference the exactly Hermitian fast path must match."""
    def check(a):
        if not np.isfinite(a).all():
            raise ValueError("density matrix contains non-finite entries")
        herm_defect = float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
        if herm_defect > TOL:
            raise ValidationError(
                f"state not Hermitian: max|M - M†| = {herm_defect:.3e}")
        a = symmetrize(a)
        trace_defect = float(np.abs(a.trace(axis1=-2, axis2=-1).real - 1.0).max())
        if trace_defect > TOL:
            raise ValidationError(f"state trace off by {trace_defect:.3e}")
        try:
            np.linalg.cholesky(a + (TOL - 1e-12) * np.eye(a.shape[-1]))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(a.astype(complex)).min())
            if min_eig < -TOL:
                raise ValidationError(
                    f"state has negative eigenvalue {min_eig:.3e}") from None
        return a

    a = np.asarray(states, dtype=complex if np.iscomplexobj(states) else float)
    try:
        return check(a)
    except (ValueError, ValidationError):
        if a.ndim == 3:
            for state in a:
                check(state)
        raise


def _outcome(validate, a):
    """The returned array, or the type and message of the exception raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return validate(a.copy())
    except (ValueError, ValidationError) as e:
        return type(e), str(e)


def _same_outcome(a):
    got, want = _outcome(validate_states, a), _outcome(_symmetrize_first, a)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


@pytest.mark.bit_exact
class TestExactlyHermitianFastPath:
    """An exactly Hermitian stack skips symmetrize and keeps every verdict."""

    def test_exactly_hermitian_real_stacks(self):
        rng = np.random.default_rng(21)
        for dim in (2, 4, 16):
            a = symmetrize(np.array([_real_state(dim, 0.0, rng) for _ in range(5)]))
            assert np.array_equal(a, a.swapaxes(1, 2))
            _same_outcome(a)
            _same_outcome(a[0])
            _same_outcome(a * (1 + 1e-6))  # trace off
            a[3] = symmetrize(_real_state(dim, -2 * TOL, rng))
            _same_outcome(a)  # negative eigenvalue

    def test_exactly_hermitian_complex_stacks(self):
        rng = np.random.default_rng(22)
        for dim in (2, 4, 16):
            a = symmetrize(np.array([_state_with_min_eig(dim, 0.0, rng)
                                     for _ in range(5)]))
            assert np.array_equal(a, a.conj().swapaxes(1, 2))
            _same_outcome(a)
            _same_outcome(a[2])
            a[1] = symmetrize(_state_with_min_eig(dim, -2 * TOL, rng))
            _same_outcome(a)

    def test_mixed_signed_zeros(self):
        a = np.array([[0.5, 0.0], [-0.0, 0.5]])
        out = _same_outcome(a)
        assert np.signbit(out[1, 0])  # kept as given: -0.0 == 0.0
        c = np.array([[[0.5, -0.0j], [0.0j, 0.5]], [[0.5, 0.0], [-0.0, 0.5]]])
        c[0, 0, 0] = complex(0.5, -0.0)
        _same_outcome(c)

    def test_entry_at_2_to_the_1023_is_rejected_with_finite_defects(self):
        # (a + a)/2 overflows there, and so does the modulus of z, but no
        # valid state comes near: each stack gets its own defect, no warning.
        big, z = 2.0**1023, 1.5e308 * (1 + 1j)
        diag = np.array([[big, 0.0], [0.0, 0.5]])
        real = np.array([[0.5, big], [big, 0.5]])
        asym = np.diag([0.5, 0.5])
        asym[0, 1] += 1e-12  # valid, symmetrized
        negative = "state has negative eigenvalue -8.988e+307"
        for a, want in [(diag, "state trace off by 8.988e+307"),
                        (diag.astype(complex), "state trace off by 8.988e+307"),
                        (np.array([diag, asym]), "state trace off by 8.988e+307"),
                        (real, negative),
                        (np.array([real, asym]), negative),
                        (np.array([asym, real]), negative),
                        (np.array([[0.5, z], [z.conjugate(), 0.5]]),
                         "state has negative eigenvalue -inf")]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError) as got:
                    validate_states(a)
            assert str(got.value) == want
        with pytest.raises(ValidationError):
            DensityMatrix(real)

    def test_nan_eigenvalue_is_rejected(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
        with pytest.raises(ValidationError, match="negative eigenvalue nan"):
            validate_states(np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_non_finite_entries(self):
        for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0),
                    complex(0.0, np.nan)):
            a = np.diag([0.5, 0.5]).astype(type(bad))
            a[0, 1] = a[1, 0] = bad
            assert _same_outcome(a) == (
                ValueError, "density matrix contains non-finite entries")

    def test_small_asymmetry_is_symmetrized(self):
        rng = np.random.default_rng(23)
        a = symmetrize(np.array([_real_state(16, 0.0, rng) for _ in range(4)]))
        a[2, 3, 5] += 1e-12  # inside TOL: symmetrized
        out = _same_outcome(a)
        assert np.array_equal(out, symmetrize(a)) and out[2, 3, 5] == out[2, 5, 3]
        a[2, 3, 5] += 1e-6  # beyond TOL: rejected with the same message
        assert _same_outcome(a)[1].startswith("state not Hermitian")

    def test_density_matrix_keeps_its_own_copy(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        rho = DensityMatrix(m)
        m[0, 0] = 1.0  # the caller's array stays writeable
        assert rho.mat[0, 0] == 0.25 and not rho.mat.flags.writeable
