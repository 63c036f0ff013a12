"""End-to-end acceptance gate: nine numbered criteria, one pass line each.

Each test prints a single `[AC<k>] PASS ...` line on success; a failing
assertion identifies the criterion and the first offending instance.
"""

import math

import numpy as np
import pytest

from asym import (
    GeneratorSet,
    approx_rate_class,
    char_from_values,
    char_function,
    charge_distribution,
    classify_sets,
    clt_diagnostic,
    convergence_to_uniform,
    converse_certificate,
    copies_bound,
    dual_fourier,
    exact_rate,
    feasible_exact,
    fourier_weights,
    g_function,
    minimal_copies_search,
    named_group,
    qfim,
    qfim_pure,
    rf_ratio,
)
from asym.abelian import ChargeDistribution, basis_elements
from corpus import GROUP_NAMES, corpus_rep, random_state, z2_population_state
from asym.exact_rate import FINITE
from asym.groups import PureState
from asym.lie import pure_density, symmetrized_covariance
from reference import subgroup_closure


def z2_char(a):
    return char_from_values(named_group("Z_2"), [1.0, a])


def test_ac1_two_outcome_rate_and_copy_thresholds():
    """Exact rate, constructive copy bound, and infeasibility above the rate
    for two-outcome resource states."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        a_q = rng.uniform(0.2, 0.8)
        R = rng.uniform(0.4, 2.5)
        a_p = a_q**R  # p, q in (0.5, 1) via a = 2p - 1
        psi, phi = z2_char(a_p), z2_char(a_q)

        report = exact_rate(psi, phi)
        assert report.kind == FINITE
        assert abs(report.value - math.log(a_p) / math.log(a_q)) < 1e-10

        bound = copies_bound(psi, phi, 0.95 * R)
        found = minimal_copies_search(psi, phi, 0.95 * R, min(bound, 10**4))
        assert found is not None and found <= bound

        assert minimal_copies_search(psi, phi, 1.05 * R, 64) is None
    print("\n[AC1] PASS two-outcome rate formula, sub-rate feasibility within "
          "the copy bound, and super-rate infeasibility up to N = 64 (50 instances)")


def test_ac2_gram_and_fourier_oracles_agree():
    """The Gram-matrix oracle and the abelian Fourier-weight oracle decide
    identically on random cyclic and product-group instances."""
    rng = np.random.default_rng(11)
    groups = [f"Z_{n}" for n in range(2, 9)] + ["Z_2xZ_2"]
    total = 0
    for name in groups:
        group = named_group(name)
        shape, elems = basis_elements(group)
        for _ in range(200):
            p = rng.dirichlet(np.ones(group.order))
            q = rng.dirichlet(np.ones(group.order))
            N = int(rng.integers(1, 21))
            M = int(rng.integers(1, 21))
            dp = ChargeDistribution(shape=shape, probs=p)
            dq = ChargeDistribution(shape=shape, probs=q)
            _, ok_fourier = fourier_weights(dp, dq, N, M)

            chars = []
            for d in (dp, dq):
                vals = np.empty(group.order, dtype=complex)
                vals[elems] = dual_fourier(d).values
                chars.append(char_from_values(group, vals))
            ok_gram = feasible_exact(chars[0], chars[1], N, M).feasible
            assert ok_gram == ok_fourier, (name, N, M, p, q)
            total += 1
    print(f"\n[AC2] PASS Gram-PSD verdict = Fourier-weight verdict on {total} "
          "random instances across Z_2..Z_8 and Z_2xZ_2")


def _threshold_scan(name, dim, seed_psi, seed_phi):
    rep = corpus_rep(name)
    psi = char_function(rep, random_state(dim, np.random.default_rng(seed_psi)))
    phi = char_function(rep, random_state(dim, np.random.default_rng(seed_phi)))

    assert classify_sets(phi).sym == frozenset({rep.group.identity})
    report = exact_rate(psi, phi)
    assert report.assumption_ok and report.kind == FINITE
    R, w = report.value, report.witness

    r_lo = 0.9 * R
    bound = copies_bound(psi, phi, r_lo)
    assert bound <= 64
    for N in range(bound, 65):
        M = math.floor(r_lo * N + 1e-12)
        assert feasible_exact(psi, phi, N, M).feasible, (name, N)

    r_hi = 1.1 * R
    L_psi, L_phi = -float(psi.logmod[w]), -float(phi.logmod[w])
    n_star = math.floor(L_phi / (r_hi * L_phi - L_psi)) + 1
    for N in range(max(n_star, 1), 65):
        M = math.floor(r_hi * N + 1e-12)
        # witness modulus inequality |chi_psi|^N <= |chi_phi|^M must fail
        assert N * L_psi < M * L_phi, (name, N)
        assert not feasible_exact(psi, phi, N, M).feasible, (name, N)
    return R, bound, n_star


def test_ac3_exact_rate_threshold_scan_nonabelian():
    """Feasible everywhere past the copy bound just below the optimal rate;
    witness violation and Gram infeasibility just above it, on S_3 and Q_8."""
    for name, dim, s_psi, s_phi in (("S_3", 3, 18, 109), ("Q_8", 4, 10, 101)):
        _threshold_scan(name, dim, s_psi, s_phi)
    print("\n[AC3] PASS sub/super-rate threshold scans on S_3 and Q_8 "
          "(feasibility from the copy bound to N = 64; witness + Gram "
          "infeasibility above the rate)")


def test_ac4_uniform_convergence_bound():
    """Measured distance to the uniform state obeys the exponential bound
    with the proven decay slope."""
    rng = np.random.default_rng(3)
    checked = 0
    for name in GROUP_NAMES:
        rep = corpus_rep(name)
        n = rep.group.order
        for _ in range(3):
            chi = char_function(rep, random_state(rep.dim, rng))
            report = convergence_to_uniform(chi, list(range(1, 11)))
            s = report.s
            for pt in report.points:
                assert pt.distance <= 0.5 * n * s ** (n * pt.N) + 1e-15
            logs = [math.log(pt.distance) for pt in report.points if pt.distance > 0]
            for d1, d2 in zip(logs, logs[1:]):
                assert d2 - d1 <= n * math.log(s) + 1e-9
            checked += 1
            if checked >= 20:
                break

    chi = char_function(corpus_rep("Z_2"), z2_population_state(0.8))  # |chi| = 0.6
    pt = convergence_to_uniform(chi, [5]).points[0]
    assert abs(pt.distance - 0.6**10 / 2) < 1e-12
    print(f"\n[AC4] PASS exponential uniform-convergence bound on {checked} "
          "random states; Z_2 |chi| = 0.6, N = 5 point equals 0.6^10 / 2")


def test_ac5_approximate_rate_classifier():
    """Unbounded approximate rate exactly when sym(psi) is contained in
    sym(phi), across every corpus group."""
    rng = np.random.default_rng(5)
    total = 0
    for name in GROUP_NAMES:
        rep = corpus_rep(name)
        pairs = 0
        while pairs < 50:
            states = []
            for _ in range(2):
                amps = random_state(rep.dim, rng).amplitudes.copy()
                if rng.random() < 0.4:  # sparsify to vary the symmetry subgroup
                    keep = rng.integers(1, rep.dim + 1)
                    amps[rng.permutation(rep.dim)[keep:]] = 0.0
                    amps = amps / np.linalg.norm(amps)
                states.append(PureState(rep.dim, amps))
            try:
                chi_psi = char_function(rep, states[0])
                chi_phi = char_function(rep, states[1])
                sym_psi = classify_sets(chi_psi).sym
                sym_phi = classify_sets(chi_phi).sym
            except Exception:
                continue  # tolerance-degenerate draw; redraw
            assert subgroup_closure(rep.group, sym_psi) == sym_psi
            assert subgroup_closure(rep.group, sym_phi) == sym_phi
            got = approx_rate_class(chi_psi, chi_phi).classification
            assert got == ("unbounded" if sym_psi <= sym_phi else "zero")
            pairs += 1
            total += 1
    print(f"\n[AC5] PASS unbounded-vs-zero classification matches the "
          f"symmetry-subgroup containment rule on {total} random pairs")


def _random_gens(rng, d, m):
    A = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    return GeneratorSet(dim=d, generators=(A + A.conj().transpose(0, 2, 1)) / 2)


def test_ac6_qfim_identity_finite_difference_additivity():
    """Pure-state QFIM identity, curvature of log|chi|, and additivity over
    two independent copies."""
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        gens = _random_gens(rng, d, m)
        state = random_state(d, rng)
        F = qfim(pure_density(state), gens)
        assert np.abs(F - 4.0 * symmetrized_covariance(state, gens)).max() < 1e-10

    gens = _random_gens(np.random.default_rng(60), 3, 3)
    state = random_state(3, np.random.default_rng(61))
    F = qfim_pure(state, gens)
    eps = 1e-4
    for i, X in enumerate(gens.generators):
        w, V = np.linalg.eigh(X)
        vals = []
        for t in (eps, -eps):
            U = (V * np.exp(-1j * t * w)) @ V.conj().T
            vals.append(abs(state.amplitudes.conj() @ (U @ state.amplitudes)))
        approx = -4.0 * (math.log(vals[0]) + math.log(vals[1])) / eps**2
        assert abs(approx - F[i, i]) <= 1e-5 * max(1.0, abs(F[i, i]))

    two_state = PureState(9, np.kron(state.amplitudes, state.amplitudes))
    eye = np.eye(3)
    doubled = GeneratorSet(
        dim=9,
        generators=np.array(
            [np.kron(X, eye) + np.kron(eye, X) for X in gens.generators]
        ),
    )
    F2 = qfim_pure(two_state, doubled)
    assert np.abs(F2 - 2.0 * F).max() < 1e-9
    print("\n[AC6] PASS QFIM = 4 Cov_sym on 100 random pure states; "
          "finite-difference curvature and two-copy additivity verified")


def test_ac7_pencil_ratio():
    """Closed-form diagonal value, PSD boundary bracketing, and invariance
    under simultaneous coordinate changes."""
    res = rf_ratio(np.diag([4.0, 2.0]), np.diag([1.0, 2.0]))
    assert res.r_f == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        B, C = rng.normal(size=(k, k)), rng.normal(size=(k, k))
        F_phi = B @ B.T + 0.05 * np.eye(k)
        F_psi = C @ C.T + 0.05 * np.eye(k)
        r_f = rf_ratio(F_psi, F_phi).r_f
        assert np.linalg.eigvalsh(F_psi - (r_f - 1e-6) * F_phi)[0] >= -1e-7
        assert np.linalg.eigvalsh(F_psi - (r_f + 1e-6) * F_phi)[0] <= 1e-7

    F_psi = np.diag([4.0, 2.0, 1.0])
    F_phi = np.diag([1.0, 2.0, 0.5])
    base = rf_ratio(F_psi, F_phi).r_f
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        while abs(np.linalg.det(A)) < 0.1:
            A = rng.normal(size=(3, 3))
        moved = rf_ratio(A @ F_psi @ A.T, A @ F_phi @ A.T).r_f
        assert abs(moved - base) < 1e-8 * max(1.0, base)
    print("\n[AC7] PASS pencil ratio: diagonal closed form, +-1e-6 PSD "
          "bracketing, and invariance under 20 random basis changes")


def test_ac8_g_function_and_certificate():
    """Shape of the converse function g and the diagonal impossibility
    certificate."""
    assert g_function(0.5) == 0.25
    xs = np.linspace(0.0, 1.0, 1000, endpoint=False)
    vals = [g_function(float(x)) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))

    impossible, v, T = converse_certificate(
        np.diag([4.0, 2.0]), np.diag([1.0, 2.0]), r=2.0, delta=0.0
    )
    assert impossible
    assert T == pytest.approx(0.5, abs=1e-9)
    print("\n[AC8] PASS g(1/2) = 1/4, monotone decrease on a 1000-point grid, "
          "diagonal certificate impossible with T = 1/2")


def test_ac9_expansion_residual_third_order():
    """Halving theta divides the second-order expansion residual by ~8."""
    rng = np.random.default_rng(42)
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    gens = GeneratorSet(dim=2, generators=np.array([sx, sy, sz]))
    theta0 = 0.04
    for trial in range(10):
        state = random_state(2, rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        big = clt_diagnostic(state, gens, [theta0 * direction])
        small = clt_diagnostic(state, gens, [theta0 / 2 * direction])
        ratio = big / small
        assert abs(ratio - 8.0) <= 1.6, (trial, ratio)
    print("\n[AC9] PASS theta-halving residual ratio within 20% of 8 on "
          "10 random pure states")
