import numpy as np
import pytest

from asym import (
    approx_rate_class,
    can_generate_from_uniform,
    char_from_values,
    char_function,
    convergence_to_uniform,
    named_group,
    uniform_char,
)
from asym.corpus import corpus_rep, z2_population_state
from asym.errors import GroupMismatch, NotASubgroup


@pytest.fixture
def z4():
    return named_group("Z_4")


def test_uniform_char_values(z4):
    uni = uniform_char(z4, {0, 2})
    assert np.allclose(uni.values(), [1, 0, 1, 0])


def test_uniform_char_rejects_non_subgroup(z4):
    with pytest.raises(NotASubgroup):
        uniform_char(z4, {0, 1})  # closure of {1} is all of Z_4


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


def test_can_generate_containment_rule(z4):
    phi = char_from_values(z4, [1.0, 0.0, 1.0, 0.0])  # sym(phi) = {0, 2}
    assert can_generate_from_uniform(z4, {0}, phi, 3)
    assert can_generate_from_uniform(z4, {0, 2}, phi, 3)
    biased = char_from_values(z4, [1.0, 0.5, 0.5, 0.5])  # sym = {0}
    assert not can_generate_from_uniform(z4, {0, 2}, biased, 1)


def test_approx_class_unbounded_when_sym_contained(z4):
    psi = char_from_values(z4, [1.0, 0.3, 0.2, 0.3])  # sym = {0}
    phi = char_from_values(z4, [1.0, 0.0, 1.0, 0.0])  # sym = {0, 2}
    report = approx_rate_class(psi, phi)
    assert report.classification == "unbounded"
    assert report.sym_psi == frozenset({0})
    assert report.sym_phi == frozenset({0, 2})
    assert report.s == pytest.approx(0.3, abs=1e-12)
    assert report.generation_ok


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
