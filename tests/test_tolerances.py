import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asym import Tolerances
from asym.errors import DomainError
from asym.tolerances import DEFAULT

FIELDS = ("tol_one", "tol_zero", "tol_psd")

out_of_range = st.one_of(
    st.just(math.nan),
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1.0]),
    st.floats(max_value=0.0),
    st.floats(min_value=1.0),
    st.integers(),
)
not_a_number = st.one_of(st.none(), st.text(), st.booleans(), st.lists(st.floats()))


@given(field=st.sampled_from(FIELDS), bad=st.one_of(out_of_range, not_a_number))
def test_tolerances_reject_values_outside_the_open_unit_interval(field, bad):
    with pytest.raises(DomainError, match=field):
        Tolerances(**{field: bad})


@given(
    field=st.sampled_from(FIELDS),
    good=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_tolerances_accept_every_value_inside_it(field, good):
    assert getattr(Tolerances(**{field: good}), field) == good


def test_default_tolerances():
    assert (DEFAULT.tol_one, DEFAULT.tol_zero, DEFAULT.tol_psd) == (1e-10, 1e-10, 1e-9)
    assert DEFAULT == Tolerances()
    with pytest.raises(AttributeError):
        DEFAULT.tol_psd = 0.5  # frozen: one shared default cannot drift
