import math

import numpy as np
import pytest

from asym import (
    char_from_values,
    char_function,
    char_power,
    copies_bound,
    exact_rate,
    named_group,
    validate_projective_rep,
)
from asym.charfn import classify_sets
from asym.corpus import corpus_rep, random_state, z2_population_state
from asym.errors import GroupMismatch, RateNotBelowOptimal, SymNotSubgroup
from asym.exact_rate import FINITE, UNBOUNDED, ZERO, _excluded_set
from asym.groups import ProjectiveRep, PureState
from asym.tolerances import DEFAULT


@pytest.fixture
def z2():
    return named_group("Z_2")


def chi_z2(group, value):
    return char_from_values(group, [1.0, value])


def test_rate_z2_halving(z2):
    # oracle: L ratio = ln(0.36) / ln(0.6) = 2, so psi = chi 0.36 into
    # phi = chi 0.6 goes at rate exactly 2
    report = exact_rate(chi_z2(z2, 0.36), chi_z2(z2, 0.6))
    assert report.kind == FINITE
    assert report.value == pytest.approx(2.0, rel=1e-12)
    assert report.witness == 1


def test_rate_direction_reversal_is_reciprocal(z2):
    fwd = exact_rate(chi_z2(z2, 0.36), chi_z2(z2, 0.6))
    rev = exact_rate(chi_z2(z2, 0.6), chi_z2(z2, 0.36))
    assert fwd.value * rev.value == pytest.approx(1.0, rel=1e-12)


def test_rate_zero_branch(z2):
    # phi vanishes where psi does not: not even one copy of phi is reachable
    report = exact_rate(chi_z2(z2, 0.6), chi_z2(z2, 0.0))
    assert report.kind == ZERO


def test_rate_unbounded_for_symmetric_target(z2):
    # phi symmetric: everything is excluded, the minimum is over nothing
    report = exact_rate(chi_z2(z2, 0.6), chi_z2(z2, 1.0))
    assert report.kind == UNBOUNDED


def test_rate_unbounded_when_psi_vanishes_off_excluded(z2):
    report = exact_rate(chi_z2(z2, 0.0), chi_z2(z2, 0.6))
    assert report.kind == UNBOUNDED


def test_rate_excluded_set_general_vs_commutative():
    g = named_group("Z_4")
    # phi with sym = {0, 2}: the general formula's assumption fails, but Z_4 is
    # abelian, so the commutative one holds; both exclude all of sym(phi)
    chi_phi = char_from_values(g, [1.0, 0.5, 1.0, 0.5])
    chi_psi = char_from_values(g, [1.0, 0.25, 1.0, 0.25])
    report = exact_rate(chi_psi, chi_phi)
    assert report.assumption_ok
    assert report.excluded == frozenset({0, 2})
    assert report.value == pytest.approx(2.0, rel=1e-12)


def test_rate_assumption_ok_off_an_abelian_group():
    # S_3 with sym(phi) = {e, (01)}: neither form of the formula is proved there
    rep = corpus_rep("S_3")
    phi = char_function(rep, PureState(3, np.array([0.5, 0.5, 0.7]) / np.sqrt(0.99)))
    psi = char_function(rep, random_state(3, np.random.default_rng(0)))
    sym = classify_sets(phi).sym
    assert len(sym) == 2
    report = exact_rate(psi, phi)
    assert not report.assumption_ok
    assert report.excluded == sym
    assert exact_rate(psi, psi).assumption_ok  # sym(psi) = {e}


def pauli_rep():
    """Z_2 x Z_2 -> X^a Z^b: projective, since X Z = -Z X."""
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    return validate_projective_rep(named_group("Z_2xZ_2"), [np.eye(2), Z, X, X @ Z])


def test_rate_assumption_ok_needs_commuting_matrices():
    # phi = |+> has sym(phi) = {e, X}. The table is abelian, but the Pauli
    # matrices do not commute: the rep is one of a nonabelian central
    # extension, so the commutative proof does not apply
    rep = pauli_rep()
    plus = PureState(2, np.array([1.0, 1.0]) / np.sqrt(2))
    phi = char_function(rep, plus)
    psi = char_function(rep, random_state(2, np.random.default_rng(0)))
    assert classify_sets(phi).sym == {0, 2}
    assert not rep.commutative and not phi.commutative
    assert not exact_rate(psi, phi).assumption_ok
    assert not char_power(phi, 3).commutative
    # the same chi from values is read as a linear rep's, which commutes
    linear = char_from_values(phi.group, phi.values())
    assert linear.commutative and exact_rate(psi, linear).assumption_ok is False
    assert exact_rate(char_from_values(psi.group, psi.values()), linear).assumption_ok
    assert corpus_rep("Z_2xZ_2").commutative


def test_rate_min_over_elements():
    g = named_group("Z_4")
    chi_psi = char_from_values(g, [1.0, 0.5, 0.3, 0.5])
    chi_phi = char_from_values(g, [1.0, 0.6, 0.4, 0.6])
    report = exact_rate(chi_psi, chi_phi)
    # oracle: elementwise ratios, numpy-computed
    ratios = np.log([0.5, 0.3, 0.5]) / np.log([0.6, 0.4, 0.6])
    assert report.value == pytest.approx(ratios.min(), rel=1e-12)
    assert report.witness == int(ratios.argmin()) + 1


def test_rate_group_mismatch(z2):
    g3 = named_group("Z_3")
    with pytest.raises(GroupMismatch):
        exact_rate(chi_z2(z2, 0.5), char_from_values(g3, [1.0, 0.5, 0.5]))


def test_rate_random_states_reciprocal_bound(rng):
    """rate(psi->phi) * rate(phi->psi) <= 1 for generic states."""
    rep = corpus_rep("S_3")
    for _ in range(20):
        a = char_function(rep, random_state(3, rng))
        b = char_function(rep, random_state(3, rng))
        fwd = exact_rate(a, b)
        rev = exact_rate(b, a)
        if fwd.kind == FINITE and rev.kind == FINITE:
            assert fwd.value * rev.value <= 1.0 + 1e-12


def test_copies_bound_z2_quarter_rate(z2):
    # s = 0.6 / 0.6^0.25 = 0.6^0.75, N = ceil(2 ln 2 / (0.75 ln(1/0.6))) + 1
    # = ceil(3.6186...) + 1 = 5
    chi = chi_z2(z2, 0.6)
    assert copies_bound(chi, chi, 0.25) == 5


def test_copies_bound_formula_matches_log_expression(z2):
    chi_psi = chi_z2(z2, 0.36)
    chi_phi = chi_z2(z2, 0.6)
    r = 1.5
    expect = math.ceil(2 * math.log(2) / -(math.log(0.36) - r * math.log(0.6))) + 1
    assert copies_bound(chi_psi, chi_phi, r) == expect


def test_copies_bound_rejects_rate_at_or_above_optimal(z2):
    chi = chi_z2(z2, 0.6)
    with pytest.raises(RateNotBelowOptimal):
        copies_bound(chi, chi, 1.0)
    with pytest.raises(RateNotBelowOptimal):
        copies_bound(chi, chi, 1.3)
    with pytest.raises(RateNotBelowOptimal):
        copies_bound(chi, chi, -0.5)


def test_copies_bound_population_states():
    z2 = named_group("Z_2")
    psi = char_function(corpus_rep("Z_2"), z2_population_state(0.8))
    report = exact_rate(psi, psi)
    assert report.value == pytest.approx(1.0)
    assert copies_bound(psi, psi, 0.5) >= 1


# ------------------------------------------- array pass against the element loops


def loop_exact_rate(char_psi, char_phi):
    """The per-element loop that `exact_rate` replaced, kept as the reference."""
    sets_phi, excluded = _excluded_set(char_phi, DEFAULT)
    if not sets_phi.zero <= classify_sets(char_psi).zero:
        return ZERO, None, None
    best, best_g = math.inf, None
    for g in range(char_psi.group.order):
        if g in excluded:
            continue
        L_phi = -char_phi.logmod[g]
        L_psi = -char_psi.logmod[g]
        ratio = math.inf if np.isinf(L_psi) else float(L_psi / L_phi)
        if ratio < best:
            best, best_g = ratio, g
    if best_g is None or math.isinf(best):
        return UNBOUNDED, None, None
    return FINITE, best, best_g


def loop_copies_bound(char_psi, char_phi, r):
    """The per-element loop that `copies_bound` replaced; None where it raises."""
    _, excluded = _excluded_set(char_phi, DEFAULT)
    log_s = -math.inf
    for g in range(char_psi.group.order):
        if g in excluded:
            continue
        log_s = max(log_s, float(char_psi.logmod[g] - r * char_phi.logmod[g]))
    if math.isinf(log_s) and log_s < 0:
        return 1
    if log_s >= 0:
        return None
    return math.ceil(2.0 * math.log(char_psi.group.order) / (-log_s)) + 1


def _z256_rep(rng, step):
    # charges that are multiples of step: |chi| = 1 on the subgroup of order step
    charges = step * rng.choice(256 // step, size=16, replace=False)
    g = np.arange(256)[:, None]
    mats = np.zeros((256, 16, 16), dtype=complex)
    mats[:, np.arange(16), np.arange(16)] = np.exp(2j * np.pi * g * charges / 256)
    return ProjectiveRep(named_group("Z_256"), 16, mats)  # a true rep


def _states(rep, rng):
    d, small = rep.dim, rep.group.order < 256
    if small:  # |chi| = 1 everywhere; the closure of G is slow at n = 256
        yield PureState(d, np.eye(d)[0])
    yield PureState(d, np.ones(d) / np.sqrt(d))  # zeros on the cyclic groups
    for _ in range(6 if small else 4):
        yield random_state(d, rng)
    amp = np.zeros(d, dtype=complex)
    amp[: max(1, d // 2)] = rng.standard_normal(max(1, d // 2))
    yield PureState(d, amp / np.linalg.norm(amp))


def test_exact_rate_and_copies_bound_match_the_element_loops(corpus, rng):
    reps = [rep for _, rep in corpus.values()] + [_z256_rep(rng, s) for s in (1, 8)]
    compared = finite = 0
    for rep in reps:
        chars = [char_function(rep, s) for s in _states(rep, rng)]
        table = rep.group.mult
        abelian = all(table[g, h] == table[h, g] for g in range(len(table)) for h in range(g))
        for a in chars:
            for b in chars:
                try:
                    want = loop_exact_rate(a, b)
                    trivial = classify_sets(b).sym == {rep.group.identity}
                except SymNotSubgroup:
                    continue
                got = exact_rate(a, b)
                assert (got.kind, got.value, got.witness) == want
                assert got.assumption_ok == (abelian or trivial)
                compared += 1
                rates = [0.5 * want[1], 0.999 * want[1]] if want[1] else [0.3]
                for r in rates:
                    expect = loop_copies_bound(a, b, r)
                    if expect is None:
                        with pytest.raises(RateNotBelowOptimal):
                            copies_bound(a, b, r)
                    else:
                        assert copies_bound(a, b, r) == expect
                        finite += 1
    assert compared > 500 and finite > 500


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_copies_bound_rejects_a_non_finite_rate(z2, r):
    # nan used to return 1, a promise of feasibility from one copy
    chi = chi_z2(z2, 0.6)
    with pytest.raises(RateNotBelowOptimal):
        copies_bound(chi, chi_z2(z2, 0.8), r)
