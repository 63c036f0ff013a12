"""The oracle against instances whose verdict is known by construction
(`ground_truth`): the Gram view, the copy-number scan and the Fourier view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asym import feasible_exact, fourier_weights, minimal_copies_search
from asym.abelian import feasibility
from ground_truth import ABELIAN, FAMILIES


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_feasible_exact_gives_the_verdict_known_by_construction(family, data):
    inst = data.draw(FAMILIES[family]())
    res = feasible_exact(inst.psi, inst.phi, inst.N, inst.M)
    assert res.feasible is inst.feasible, (inst.N, inst.M, res.min_gram_eigenvalue)
    # a feasible f has |f| <= f(e) = 1; an infeasible one is decided by a 2 x 2 minor
    assert (res.modulus_witness is None) is inst.feasible
    assert res.zero_set_witness is None


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_minimal_copies_search_gives_the_copy_number_known_by_construction(family, data):
    # a feasible pair converts at K copies each for every K, an infeasible one at none
    inst = data.draw(FAMILIES[family]())
    assert minimal_copies_search(inst.psi, inst.phi, 1.0, 8) == (1 if inst.feasible else None)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_fourier_view_gives_the_verdict_known_by_construction(family, data):
    inst = data.draw(FAMILIES[family](groups=ABELIAN))
    p, q = inst.charges
    res = feasibility(p, q, inst.N, inst.M)
    assert res.feasible is inst.feasible
    assert (res.modulus_witness is None) is inst.feasible
    if inst.weights is not None:
        w, feasible = fourier_weights(p, q, inst.N, inst.M)
        assert feasible and np.abs(w - inst.weights).max() <= 1e-9
