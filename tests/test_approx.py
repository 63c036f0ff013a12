import math

import numpy as np
import pytest

from asym import (
    CharFunction,
    approx_rate_class,
    char_from_values,
    char_function,
    convergence_to_uniform,
    named_group,
)
from corpus import GROUP_NAMES, corpus_rep, random_state, z2_population_state
from asym.errors import DomainError, GroupMismatch
from asym.groups import PureState
from asym.tolerances import TOL_ONE
from reference import convergence_per_element, subgroup_closure

# the largest log|chi| that classify_sets puts off the symmetry subgroup
EDGE = float(np.nextafter(math.log1p(-TOL_ONE), -1.0))


@pytest.fixture
def z4():
    return named_group("Z_4")


def test_convergence_z2_population():
    # s = 0.6; bound at N is |G| s^{|G| N} / 2 = 0.6^{2N}, distance = bound/2
    chi = char_function(corpus_rep("Z_2"), z2_population_state(0.8))
    report = convergence_to_uniform(chi, [1, 2, 5])
    assert report.s == pytest.approx(0.6, abs=1e-12)
    assert report.sym == frozenset({0})
    for pt in report.points:
        assert pt.bound == pytest.approx(0.6 ** (2 * pt.N), rel=1e-12)
        assert pt.distance == pytest.approx(pt.bound / 2, rel=1e-12)
        assert pt.distance <= pt.bound


def test_convergence_is_monotone_in_N(z4):
    chi = char_from_values(z4, [1.0, 0.5, 0.25, 0.5])
    report = convergence_to_uniform(chi, list(range(1, 12)))
    bounds = [pt.bound for pt in report.points]
    dists = [pt.distance for pt in report.points]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))


def test_convergence_symmetric_state_is_exact(z4):
    chi = char_from_values(z4, [1.0, 1.0, 1.0, 1.0])
    report = convergence_to_uniform(chi, [1, 3])
    assert report.s == 0.0
    assert all(pt.bound == 0.0 and pt.distance == 0.0 for pt in report.points)


def test_convergence_rejects_non_subgroup_sym(z4):
    # thresholded |chi| = 1 set {0, 1} is not closed under the group law
    from asym.errors import SymNotSubgroup

    chi = char_from_values(z4, [1.0, 1.0, 0.5, 0.5])
    with pytest.raises(SymNotSubgroup):
        convergence_to_uniform(chi, [1])


def test_approx_class_unbounded_when_sym_contained(z4):
    psi = char_from_values(z4, [1.0, 0.3, 0.2, 0.3])  # sym = {0}
    phi = char_from_values(z4, [1.0, 0.0, 1.0, 0.0])  # sym = {0, 2}
    report = approx_rate_class(psi, phi)
    assert report.classification == "unbounded"
    assert report.sym_psi == frozenset({0})
    assert report.sym_phi == frozenset({0, 2})
    assert report.s == pytest.approx(0.3, abs=1e-12)


def test_approx_class_zero_when_sym_not_contained(z4):
    psi = char_from_values(z4, [1.0, 0.0, 1.0, 0.0])  # sym = {0, 2}
    phi = char_from_values(z4, [1.0, 0.5, 0.5, 0.5])  # sym = {0}
    report = approx_rate_class(psi, phi)
    assert report.classification == "zero"
    assert report.s is None


def test_approx_class_self_conversion_unbounded(z4):
    psi = char_from_values(z4, [1.0, 0.5, 0.25, 0.5])
    assert approx_rate_class(psi, psi).classification == "unbounded"


def test_approx_class_group_mismatch(z4):
    psi = char_from_values(z4, [1.0, 0.5, 0.25, 0.5])
    other = char_from_values(named_group("Z_2"), [1.0, 0.5])
    with pytest.raises(GroupMismatch):
        approx_rate_class(psi, other)


def test_approx_class_matches_brute_force_over_sym_patterns():
    """Exhaustive oracle on Z_4: classification equals the subset test on
    symmetry subgroups computed independently."""
    z4 = named_group("Z_4")
    subgroups = [frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2, 3})]

    def char_with_sym(H):
        vals = [1.0 if g in H else 0.4 for g in range(4)]
        return char_from_values(z4, vals), H

    for Hp in subgroups:
        for Hq in subgroups:
            psi, _ = char_with_sym(Hp)
            phi, _ = char_with_sym(Hq)
            got = approx_rate_class(psi, phi).classification
            assert got == ("unbounded" if Hp <= Hq else "zero")


@pytest.mark.parametrize("N_list", [[0, 2], [-3], [2, 0]])
def test_convergence_rejects_copy_number_below_one(z4, N_list):
    # used to skip such N: [0, 2] reported N = 2 only and [-3] an empty curve
    chi = char_from_values(z4, [1.0, 0.5, 0.25, 0.5])
    with pytest.raises(DomainError):
        convergence_to_uniform(chi, N_list)


def test_convergence_copy_numbers_at_the_float_range(z4):
    # 10^400 used to raise an untyped OverflowError, and so did |G| N past the range;
    # every copy number stops at MAX_COPIES (about 2.9e307)
    chi = char_from_values(z4, [1.0, 0.5, 0.25, 0.5])
    for N in (10**400, 10**308):
        with pytest.raises(DomainError):
            convergence_to_uniform(chi, [1, N])
    (point,) = convergence_to_uniform(chi, [10**307]).points
    assert (point.N, point.bound, point.distance) == (10**307, 0.0, 0.0)


def test_convergence_at_the_tolerance_edge():
    # |chi(1)| is just below the classify_sets cut but rounds to 1 - TOL_ONE:
    # a second cut s >= 1 - TOL_ONE used to refuse the curve that the
    # classification had promised; the bound holds at any s < 1
    z2 = named_group("Z_2")
    chi = CharFunction(group=z2, logmod=np.array([0.0, EDGE]), phase=np.zeros(2))
    report = approx_rate_class(chi, chi)
    assert report.classification == "unbounded"
    assert report.sym_psi == frozenset({0})
    assert 1.0 - TOL_ONE <= report.s < 1.0
    curve = convergence_to_uniform(chi, [1, 2, 10**6])
    assert curve.s == report.s
    assert [pt.N for pt in curve.points] == [1, 2, 10**6]
    assert all(0.0 < pt.distance <= pt.bound for pt in curve.points)


def _random_chars(group, rep, rng, count):
    """Characteristic functions of every kind the approx path meets: random
    and sparsified states, and tables built on a random subgroup H with
    |chi| = 1 or exactly at the cut on H and, off H, exact zeros, values
    just below the cut and random moduli (H = G gives a symmetric state)."""
    n = group.order
    out = []
    for _ in range(count):
        amps = random_state(rep.dim, rng).amplitudes.copy()
        amps[rng.permutation(rep.dim)[rng.integers(1, rep.dim + 1):]] = 0.0
        out.append(char_function(rep, PureState(rep.dim, amps / np.linalg.norm(amps))))
        H = subgroup_closure(group, rng.choice(n, size=rng.integers(0, 3)))
        if rng.random() < 0.2:
            H = frozenset(range(n))
        pick = rng.integers(0, 4, size=n)
        logmod = np.where(pick == 0, -np.inf,
                          np.where(pick == 1, EDGE, np.log(rng.uniform(1e-3, 1.0, size=n))))
        on_H = np.isin(np.arange(n), list(H))
        logmod[on_H] = np.where(rng.random(n) < 0.5, 0.0, math.log1p(-TOL_ONE))[on_H]
        logmod[group.identity] = 0.0
        out.append(CharFunction(group=group, logmod=logmod,
                                phase=rng.uniform(-np.pi, np.pi, size=n)))
    return out


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_approx_matches_the_per_element_reference(name):
    """Masked numpy sums against the per-element loops they replaced: sets,
    class, s and bound bit for bit; distance to 1e-14 relative (the two add
    in a different order)."""
    rep = corpus_rep(name)
    rng = np.random.default_rng(15)
    chars = _random_chars(rep.group, rep, rng, 12)
    N_list = [1, 2, 3, 7, 50, 1000]
    for psi in chars:
        sym, s, points = convergence_per_element(psi, N_list)
        curve = convergence_to_uniform(psi, N_list)
        assert (curve.sym, curve.s) == (sym, s)
        for pt, (N, bound, distance) in zip(curve.points, points, strict=True):
            assert (pt.N, pt.bound) == (N, bound)
            assert abs(pt.distance - distance) <= 1e-14 * distance
        for phi in chars[:6]:
            sym_phi = convergence_per_element(phi, [])[0]
            report = approx_rate_class(psi, phi)
            assert (report.sym_psi, report.sym_phi) == (sym, sym_phi)
            assert report.classification == ("unbounded" if sym <= sym_phi else "zero")
            assert report.s == (s if sym <= sym_phi else None)
