import collections
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asym import (
    GeneratorSet,
    clt_diagnostic,
    converse_certificate,
    g_function,
    qfim,
    qfim_pure,
    rf_ratio,
)
from corpus import random_state
from asym.errors import DimensionMismatch, DomainError, NotAState
from asym.groups import PureState
from asym.lie import pure_density, symmetrized_covariance
from asym.tolerances import TOL_PENCIL

from reference import rf_ratio_200_steps


@pytest.fixture
def spin_half():
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    return GeneratorSet(dim=2, generators=np.array([sx, sy, sz]))


def test_generator_set_validation():
    with pytest.raises(DomainError):
        GeneratorSet(dim=2, generators=np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    with pytest.raises(DimensionMismatch):
        GeneratorSet(dim=3, generators=np.zeros((1, 2, 2)))


def test_qfim_pure_spin_up(spin_half):
    # oracle: variances of the spin components in |0>: (1/4, 1/4, 0)
    F = qfim_pure(PureState(2, np.array([1.0, 0.0])), spin_half)
    assert np.allclose(F, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_qfim_matches_pure_formula_on_projector(spin_half, rng):
    state = random_state(2, rng)
    F_mixed_path = qfim(pure_density(state), spin_half)
    F_pure_path = qfim_pure(state, spin_half)
    assert np.allclose(F_mixed_path, F_pure_path, atol=1e-8)


def test_qfim_mixed_qubit_closed_form():
    # oracle: rho = diag(p, 1-p) with X = sigma_x / 2 gives F = (2p - 1)^2
    X = np.array([[[0.0, 0.5], [0.5, 0.0]]])
    gens = GeneratorSet(dim=2, generators=X)
    for p in (0.9, 0.7, 0.5):
        rho = np.diag([p, 1.0 - p]).astype(complex)
        F = qfim(rho, gens)
        assert F[0, 0] == pytest.approx((2 * p - 1) ** 2, abs=1e-12)


def test_qfim_covariant_under_generator_recombination(spin_half, rng):
    """X' = A X implies F' = A F A^T."""
    state = random_state(2, rng)
    F = qfim_pure(state, spin_half)
    A = rng.normal(size=(3, 3))
    recombined = GeneratorSet(
        dim=2, generators=np.tensordot(A, spin_half.generators, axes=1)
    )
    F2 = qfim_pure(state, recombined)
    assert np.allclose(F2, A @ F @ A.T, atol=1e-10)


def test_qfim_finite_difference(spin_half, rng):
    """F_ii ~ -8 log|chi(eps e_i)| / eps^2 to second order."""
    state = random_state(2, rng)
    F = qfim_pure(state, spin_half)
    eps = 1e-4
    for i, X in enumerate(spin_half.generators):
        w, V = np.linalg.eigh(X)
        U = (V * np.exp(-1j * eps * w)) @ V.conj().T
        chi = state.amplitudes.conj() @ (U @ state.amplitudes)
        approx = -8.0 * math.log(abs(chi)) / eps**2
        assert approx == pytest.approx(F[i, i], abs=1e-5 + 1e-5 * abs(F[i, i]))


def test_qfim_rejects_bad_density(spin_half):
    with pytest.raises(NotAState):
        qfim(np.diag([0.7, 0.7]), spin_half)
    with pytest.raises(NotAState):
        qfim(np.array([[1.0, 0.5], [0.0, 0.0]]), spin_half)


def test_qfim_matches_three_operand_einsum_reference(rng):
    """The spectral formula with <k|X_i|l> from one einsum, as a reference."""
    for d, m in ((3, 2), (16, 4), (24, 3)):
        X = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
        gens = GeneratorSet(dim=d, generators=(X + X.conj().transpose(0, 2, 1)) / 2)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        p, V = np.linalg.eigh(rho)
        A = np.einsum("ak,mab,bl->mkl", V.conj(), gens.generators, V)
        denom = p[:, None] + p[None, :]
        W = 2.0 * (p[:, None] - p[None, :]) ** 2 / denom
        F = np.real(np.einsum("kl,mkl,nkl->mn", W, A, A.conj()))
        F = (F + F.T) / 2.0
        assert np.abs(qfim(rho, gens) - F).max() <= 1e-12 * np.abs(F).max()


def test_symmetrized_covariance_is_psd(spin_half, rng):
    for _ in range(10):
        C = symmetrized_covariance(random_state(2, rng), spin_half)
        assert np.linalg.eigvalsh(C)[0] >= -1e-12


def test_rf_ratio_diagonal_closed_form():
    res = rf_ratio(np.diag([4.0, 2.0]), np.diag([1.0, 2.0]))
    assert res.r_f == pytest.approx(1.0, abs=1e-12)
    assert res.method == "closed_form"
    assert abs(abs(res.direction[1]) - 1.0) < 1e-10


def test_rf_ratio_singular_phi_bisection():
    res = rf_ratio(np.diag([2.0, 3.0]), np.diag([1.0, 0.0]))
    assert res.method == "bisection"
    assert res.r_f == pytest.approx(2.0, rel=1e-9)


def test_rf_ratio_zero_phi_is_infinite():
    res = rf_ratio(np.diag([1.0, 1.0]), np.zeros((2, 2)))
    assert res.r_f == math.inf


def test_rf_ratio_singular_phi_capped_by_its_range():
    # F_phi = diag(1, 0) puts no bound along its null space e_2; along its
    # range e_1, F_psi = I needs 1 - r >= 0, so r_f = 1
    res = rf_ratio(np.eye(2), np.diag([1.0, 0.0]))
    assert res.r_f == pytest.approx(1.0, rel=1e-9)


def test_rf_ratio_boundary_bracketing(rng):
    """At r_f the pencil is on the PSD boundary: feasible just below,
    infeasible just above."""
    for _ in range(10):
        B = rng.normal(size=(3, 3))
        F_phi = B @ B.T + 0.1 * np.eye(3)
        C = rng.normal(size=(3, 3))
        F_psi = C @ C.T
        res = rf_ratio(F_psi, F_phi)
        lo = np.linalg.eigvalsh(F_psi - (res.r_f - 1e-6) * F_phi)[0]
        hi = np.linalg.eigvalsh(F_psi - (res.r_f + 1e-6) * F_phi)[0]
        assert lo >= -1e-7
        assert hi <= 1e-7
        v = res.direction
        assert (v @ F_psi @ v) / (v @ F_phi @ v) == pytest.approx(res.r_f, abs=1e-6)


# ------------------------------------- singular pencils: the bisection's early stop


def count_eigvalsh(monkeypatch) -> list[int]:
    """Patch np.linalg.eigvalsh to count its calls in a one-element list."""
    calls = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls[0] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def singular_pencil(rng, kind):
    """(F_psi, F_phi) with F_phi of rank below m <= 8, at scales from 1e-6 to 1e6.

    kind 0: F_psi positive definite. 1: F_psi symmetric and shifted, often not
    PSD. 2: F_phi negative semidefinite, so r_f = inf. 3: F_psi diagonal with
    one entry exactly at the PSD cut -TOL_PENCIL * scale; eigvalsh rounding on
    the slightly perturbed pencils then often leaves r_f below 2^-200.
    """
    m = int(rng.integers(2, 9))
    B = rng.standard_normal((m, int(rng.integers(1, m))))
    F_phi = 10 ** rng.uniform(-6, 6) * (B @ B.T)
    if kind == 2:
        F_phi = -F_phi
    if kind == 3:
        d = np.zeros(m)
        d[rng.integers(m)] = 1.0
        d[rng.integers(m)] = -TOL_PENCIL * max(np.abs(F_phi).max(), 1.0)
        return np.diag(d), F_phi
    C = rng.standard_normal((m, m))
    if kind == 1:
        F_psi = (C + C.T) / 2 + rng.uniform(-1.0, 3.0) * np.eye(m)
    else:
        F_psi = C @ C.T
    return 10 ** rng.uniform(-6, 6) * F_psi, F_phi


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_rf_ratio_matches_200_step_reference(monkeypatch):
    """Leaving the bisection once lo and hi are adjacent doubles returns bit
    for bit what 200 halvings return, on every branch of the singular path."""
    calls = count_eigvalsh(monkeypatch)
    rng = np.random.default_rng(14)
    branches = collections.Counter()
    for i in range(2000):
        F_psi, F_phi = singular_pencil(rng, i % 4)
        calls[0] = 0
        want = rf_ratio_200_steps(F_psi, F_phi)
        want_calls, calls[0] = calls[0], 0
        got = rf_ratio(F_psi, F_phi)
        assert got.method == want.method == "bisection"
        assert bits(got.r_f) == bits(want.r_f), (i, got.r_f, want.r_f)
        assert (got.direction is None) == (want.direction is None)
        if want.direction is not None:
            assert bits(got.direction) == bits(want.direction)
        assert calls[0] <= want_calls
        if want.r_f == math.inf:
            branches["inf"] += 1
        elif want_calls == 1:  # psd(0) alone
            branches["psd(0) false"] += 1
        elif want.r_f < 2.0**-200:
            branches["below 2^-200"] += 1
            assert calls[0] == want_calls  # the 200-step cap still decides
        else:
            branches["bracketed"] += 1
            assert calls[0] < want_calls
    assert min(branches[b] for b in ("inf", "psd(0) false", "below 2^-200", "bracketed")) > 0, (
        branches
    )


def test_rf_ratio_keeps_the_200_step_cap(monkeypatch):
    """psd true at r = 0 only, as for a pencil with r_f below 2^-200: mid stays
    strictly between 0 and hi, so the cap ends the bisection after psd(0),
    psd(1) and 200 halvings, with r_f = 0."""
    F_psi, F_phi = np.diag([0.0, 1.0]), np.diag([1.0, 0.0])  # F_psi - r F_phi != F_psi for r > 0
    eigvalsh = np.linalg.eigvalsh
    calls = [0]

    def psd_at_zero_only(a):
        calls[0] += 1
        return eigvalsh(a) - (0.0 if np.array_equal(a, F_psi) else 10.0)

    monkeypatch.setattr(np.linalg, "eigvalsh", psd_at_zero_only)
    want = rf_ratio_200_steps(F_psi, F_phi)
    calls[0] = 0
    got = rf_ratio(F_psi, F_phi)
    assert (got.r_f, got.method) == (want.r_f, want.method) == (0.0, "bisection")
    assert bits(got.direction) == bits(want.direction)
    assert calls[0] == 202


def _with(entry, value, base=None):
    F = np.eye(2) if base is None else np.array(base, dtype=float)
    F[entry] = value
    return F


GOOD = np.diag([4.0, 2.0])
REJECTED_PENCILS = [
    # a NaN in F_psi would come out as r_f = nan from the closed form
    pytest.param(_with((0, 0), np.nan), GOOD, DomainError, id="nan-psi"),
    # a NaN in F_phi would come out as r_f = 0.0, and in converse_certificate as
    # an error from g
    pytest.param(GOOD, _with((1, 1), np.nan), DomainError, id="nan-phi"),
    # an inf in F_psi would come out as r_f = 0.0, certified "impossible"
    pytest.param(_with((0, 1), np.inf), GOOD, DomainError, id="inf-psi"),
    pytest.param(GOOD, _with((1, 0), -np.inf), DomainError, id="-inf-phi"),
    # eigh and eigvalsh would read the lower triangle only
    pytest.param(np.array([[1.0, 5.0], [0.0, 1.0]]), GOOD, DomainError, id="asymmetric-psi"),
    pytest.param(GOOD, np.array([[1.0, 5.0], [0.0, 1.0]]), DomainError, id="asymmetric-phi"),
    pytest.param(GOOD, _with((0, 1), 1e-6, np.eye(2) * 10.0), DomainError, id="asymmetric-1e-6"),
    # numpy would raise a bare ValueError or LinAlgError
    pytest.param(np.zeros((0, 0)), np.zeros((0, 0)), DimensionMismatch, id="0x0"),
    pytest.param(np.ones((2, 3)), np.ones((2, 3)), DimensionMismatch, id="2x3"),
    pytest.param(np.eye(2), np.eye(3), DimensionMismatch, id="shapes-differ"),
    pytest.param(np.ones(2), np.ones(2), DimensionMismatch, id="vector"),
]


@pytest.mark.parametrize("F_psi, F_phi, error", REJECTED_PENCILS)
def test_rf_ratio_rejects_bad_pencils(F_psi, F_phi, error):
    with pytest.raises(error):
        rf_ratio(F_psi, F_phi)
    with pytest.raises(error):
        converse_certificate(F_psi, F_phi, r=2.0, delta=0.0)


def test_rf_ratio_symmetry_cut_scales_with_the_entries():
    # TOL_HERM = 1e-8 times the largest entry, at least 1: 1e-6 off at scale 1e3
    # passes, where at scale 10 it is rejected (REJECTED_PENCILS)
    big = np.diag([1e3, 2e3])
    assert rf_ratio(_with((0, 1), 1e-6, big), np.eye(2)).r_f == pytest.approx(1e3)
    assert rf_ratio(big, _with((1, 0), 1e-6, big)).r_f == pytest.approx(1.0)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", [7, 9001])
def test_benchmark_singular_pencils_take_at_most_70_eigvalsh_calls(monkeypatch, tmp_path, seed):
    """The singular rf_ratio calls of the charge_fisher workload, built by its own set-up."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.setup_charge_fisher(seed, lambda build: build(), tmp_path)
    singular = [op for op in ops if op.name.endswith("singular.rf_ratio")]
    assert len(singular) == 2
    calls = count_eigvalsh(monkeypatch)
    for op in singular:
        calls[0] = 0
        res = op.call()
        assert res.method == "bisection" and math.isfinite(res.r_f)
        assert calls[0] <= 70, (op.name, calls[0])


@pytest.mark.parametrize("twice_j", [2, 3, 15])
def test_spin_dicke_pencils_take_at_most_70_eigvalsh_calls(monkeypatch, rng, twice_j):
    """Random spin-j states against |j, j>, whose QFIM has rank 2, as in the
    benchmark's CLI calls (j = 1, 3/2). Spin 1/2 is left out: there F_psi has
    rank 2 too and r_f sits at the PSD cut, near 1e-9, where reaching adjacent
    doubles from [0, 1] takes about 30 more halvings."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    J = importlib.import_module("inputs").spin_generators(twice_j)
    gens = GeneratorSet(dim=twice_j + 1, generators=J)
    F_phi = qfim_pure(PureState(twice_j + 1, np.eye(twice_j + 1)[0]), gens)
    calls = count_eigvalsh(monkeypatch)
    for _ in range(20):
        F_psi = qfim_pure(random_state(twice_j + 1, rng), gens)
        calls[0] = 0
        res = rf_ratio(F_psi, F_phi)
        assert res.method == "bisection" and math.isfinite(res.r_f)
        assert calls[0] <= 70, calls[0]


def test_g_function_values():
    assert g_function(0.0) == 1.0
    assert g_function(0.5) == pytest.approx(0.25, abs=1e-15)
    assert g_function(1e-9) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DomainError):
        g_function(1.0)
    with pytest.raises(DomainError):
        g_function(-0.1)


def test_g_function_monotone_decreasing():
    xs = np.linspace(0.0, 0.999, 500)
    vals = [g_function(float(x)) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_converse_certificate_diagonal_example():
    F_psi = np.diag([4.0, 2.0])
    F_phi = np.diag([1.0, 2.0])
    impossible, v, T = converse_certificate(F_psi, F_phi, r=2.0, delta=0.0)
    assert impossible
    assert T == pytest.approx(0.5, abs=1e-9)
    assert abs(abs(v[1]) - 1.0) < 1e-8
    # g(1/2) = 1/4 loses to 4 sqrt(delta) once delta > 1/256
    impossible, _, T2 = converse_certificate(F_psi, F_phi, r=2.0, delta=0.01)
    assert not impossible
    assert T2 == pytest.approx(T, abs=1e-9)


def test_converse_certificate_silent_below_rf():
    F_psi = np.diag([4.0, 2.0])
    F_phi = np.diag([1.0, 2.0])
    impossible, v, T = converse_certificate(F_psi, F_phi, r=0.9, delta=0.0)
    assert (impossible, v, T) == (False, None, None)


def test_converse_certificate_input_validation():
    with pytest.raises(DomainError):
        converse_certificate(np.eye(2), np.eye(2), r=0.0, delta=0.0)
    with pytest.raises(DomainError):
        converse_certificate(np.eye(2), np.eye(2), r=1.0, delta=-1e-3)


@pytest.mark.parametrize(
    "r, delta", [(math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan), (2.0, math.inf)]
)
def test_converse_certificate_rejects_non_finite_rate_and_error(r, delta):
    # a NaN rate used to skip the certificate and report "not impossible"
    with pytest.raises(DomainError):
        converse_certificate(np.diag([4.0, 2.0]), np.diag([1.0, 2.0]), r=r, delta=delta)


def test_clt_diagnostic_third_order_residual(spin_half, rng):
    state = random_state(2, rng)
    grid_big = [0.01 * v for v in (np.eye(3)[i] for i in range(3))]
    grid_small = [0.001 * v for v in (np.eye(3)[i] for i in range(3))]
    big = clt_diagnostic(state, spin_half, grid_big)
    small = clt_diagnostic(state, spin_half, grid_small)
    assert big < 1e-5
    assert small < 1e-8
    with pytest.raises(DimensionMismatch):
        clt_diagnostic(state, spin_half, [np.zeros(2)])


# ------------------------------------------------------ non-finite input gates

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def _spoil(a, data, bad, imaginary):
    idx = tuple(data.draw(st.integers(0, n - 1)) for n in a.shape)
    a[idx] += 1j * bad if imaginary else bad
    return a


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), m=st.integers(1, 3), data=st.data(), bad=NON_FINITE,
       imaginary=st.booleans())
def test_generator_set_rejects_non_finite(d, m, data, bad, imaginary):
    gens = _spoil(np.zeros((m, d, d), dtype=complex), data, bad, imaginary)
    with pytest.raises(DomainError):
        GeneratorSet(dim=d, generators=gens)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), data=st.data(), bad=NON_FINITE, imaginary=st.booleans())
def test_density_gate_rejects_non_finite(d, data, bad, imaginary):
    rho = _spoil(np.eye(d, dtype=complex) / d, data, bad, imaginary)
    gens = GeneratorSet(dim=d, generators=np.zeros((1, d, d)))
    with pytest.raises(NotAState):
        qfim(rho, gens)
