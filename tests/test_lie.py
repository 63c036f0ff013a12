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
from corpus import SPIN_HALF, random_state
from asym.errors import DimensionMismatch, DomainError, NotAState
from asym.groups import PureState
from asym.lie import pure_density, symmetrized_covariance
from asym.tolerances import TOL_PENCIL, TOL_SUPP

from reference import clt_per_theta, qfim_all_pairs, rf_ratio_200_steps


@pytest.fixture
def spin_half():
    return GeneratorSet(dim=2, generators=SPIN_HALF)


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


def spectra(d, rng):
    """Spectra of rank 1, 2, d - 1 and d, degenerate ones, and ones with
    eigenvalues just above and just below TOL_SUPP/2, the support cut."""
    half = TOL_SUPP / 2.0
    near = [half * 1.2, half * 0.8, half * 1.05, half * 0.95, half * 0.5]
    raw = [
        [1.0],
        rng.uniform(0.1, 1.0, 2),
        rng.uniform(0.1, 1.0, d - 1),
        rng.uniform(0.1, 1.0, d),
        [0.25, 0.25, 0.25, 0.25],  # rank 4, one eigenvalue
        [0.4, 0.4, 0.1, 0.1],
        np.repeat(rng.uniform(0.1, 1.0, d // 2), 2),  # full rank, all doubled
        [*near, 0.7, 0.3],
        [*near[1::2], 1.0],  # a pure state with its tail at the cut
        [half * 1.5, half * 1.5, 0.5, 0.5],
    ]
    for p in raw:
        p = np.concatenate([p, np.zeros(d - len(p))])
        big = p > TOL_SUPP
        p[big] *= (1.0 - p[~big].sum()) / p[big].sum()
        yield p


def test_qfim_on_the_support_matches_the_all_pairs_sum(rng):
    """Rows k of the support only, with each term (k, l), l outside it,
    doubled for its mirror: the all-pairs spectral sum to a relative 1e-12
    at every rank, on degenerate spectra and about the support cut."""
    seen = set()
    for d, m in ((8, 3), (16, 4), (9, 8)):
        X = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
        gens = GeneratorSet(dim=d, generators=(X + X.conj().transpose(0, 2, 1)) / 2)
        for p in spectra(d, rng):
            for _ in range(4):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                V, _ = np.linalg.qr(z)
                rho = (V * p) @ V.conj().T
                w = np.linalg.eigvalsh(rho)
                seen.add(int((w > TOL_SUPP / 2).sum()))
                F, want = qfim(rho, gens), qfim_all_pairs(rho, gens)
                assert np.abs(F - want).max() <= 1e-12 * np.abs(want).max(), (d, p)
    assert {1, 2, 7, 8, 15, 16} <= seen  # ranks 1, 2, d - 1 and d


def test_qfim_keeps_the_terms_between_eigenvalues_about_the_cut(rng):
    """Generators that act only on eigenvectors with eigenvalues about
    TOL_SUPP/2: F is made of the terms between them alone, of order
    TOL_SUPP, and still matches the all-pairs sum to a relative 1e-12. A
    term with p_k in S and p_l just below the cut, p_k + p_l > TOL_SUPP,
    counts; one with both below, p_k + p_l <= TOL_SUPP, does not."""
    half = TOL_SUPP / 2.0
    d = 7
    p = np.array([half * 0.5, half * 0.8, half * 0.95, half * 1.05, half * 1.2, 0.3, 0.0])
    p[-1] = 1.0 - p.sum()
    cut = slice(0, 5)
    for _ in range(10):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        V, _ = np.linalg.qr(z)
        rho = (V * p) @ V.conj().T
        Y = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        X = V[:, cut] @ (Y + Y.conj().transpose(0, 2, 1)) @ V[:, cut].conj().T
        gens = GeneratorSet(dim=d, generators=(X + X.conj().transpose(0, 2, 1)) / 2)
        F, want = qfim(rho, gens), qfim_all_pairs(rho, gens)
        assert 0 < np.abs(want).max() < 1e-11
        assert np.abs(F - want).max() <= 1e-12 * np.abs(want).max()


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


def test_rf_ratio_symmetry_cut_scales_with_the_entries():
    # TOL_HERM = 1e-8 times the largest entry, at least 1: 1e-6 off at scale 1e3
    # passes, where at scale 10 it is rejected (LIBRARY_REFUSALS, *-asymmetric-1e-6)
    big = np.diag([1e3, 2e3])
    upper, lower = big.copy(), big.copy()
    upper[0, 1] = lower[1, 0] = 1e-6
    assert rf_ratio(upper, np.eye(2)).r_f == pytest.approx(1e3)
    assert rf_ratio(big, lower).r_f == pytest.approx(1.0)


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


@pytest.mark.parametrize(
    "r, delta", [(math.nan, 1e-4), (-1.0, 1e-4), (2.0, -1e-3), (2.0, math.nan), ("2", 1e-4)],
    ids=["rate-nan", "rate-negative", "delta-negative", "delta-nan", "rate-str"],
)
def test_converse_certificate_checks_its_arguments_before_any_eigensolver(
    eigensolver_calls, r, delta
):
    # on this rank-deficient pencil a NaN rate, or a negative error, made 56
    # eigvalsh calls (the whole bisection) before its DomainError
    F_psi, F_phi = np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0])
    assert rf_ratio(F_psi, F_phi).method == "bisection"
    eigensolver_calls.clear()
    with pytest.raises(DomainError):
        converse_certificate(F_psi, F_phi, r=r, delta=delta)
    assert sum(eigensolver_calls.values()) == 0


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


@pytest.mark.parametrize("d, m, K", [(2, 3, 1), (4, 2, 5), (16, 3, 12)])
def test_clt_diagnostic_batched_matches_the_per_theta_loop(d, m, K, rng):
    gens = GeneratorSet(dim=d, generators=[(A + A.conj().T) / 2 for A in
                                           rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))])
    state = random_state(d, rng)
    thetas = 0.01 * rng.standard_normal((K, m))
    got = clt_diagnostic(state, gens, thetas)
    assert abs(got - clt_per_theta(state, gens, thetas)) <= 1e-15
    assert clt_diagnostic(state, gens, list(thetas)) == got


def test_clt_diagnostic_grid_shapes(spin_half, rng):
    state = random_state(2, rng)
    for ragged in ([np.zeros(3), np.zeros(2)], [np.zeros(3), np.zeros(4)], np.zeros((2, 2, 3)),
                   np.zeros(3)):
        with pytest.raises(DimensionMismatch):
            clt_diagnostic(state, spin_half, ragged)
    assert clt_diagnostic(state, spin_half, []) == 0.0
    assert clt_diagnostic(state, spin_half, np.zeros((0, 3))) == 0.0


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


def test_generator_set_keeps_a_read_only_copy():
    given_gens = np.array([[[0.5, 0.0], [0.0, -0.5]]], dtype=complex)
    gens = GeneratorSet(dim=2, generators=given_gens)
    given_gens[0, 0, 1] = 5.0  # the caller's array is copied, not frozen
    assert gens.generators[0, 0, 1] == 0.0
    with pytest.raises(ValueError):
        gens.generators[0, 0, 0] = 5.0


def test_qfim_decomposes_rho_once(spin_half, monkeypatch):
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda A, _f=real, _n=name: calls.update([_n]) or _f(A))
    F = qfim(np.diag([0.7, 0.3]), spin_half)
    assert dict(calls) == {"eigh": 1}
    assert np.allclose(F, np.diag([0.16, 0.16, 0.0]), atol=1e-12)
    with pytest.raises(NotAState, match="negative eigenvalue"):
        qfim(np.diag([1.2, -0.2]), spin_half)
