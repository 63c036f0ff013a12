import numpy as np
import pytest

from corpus import GROUP_NAMES, corpus_rep
from asym.groups import named_group


@pytest.fixture(scope="session")
def corpus():
    """Every corpus group with its faithful representation."""
    out = {}
    for name in GROUP_NAMES:
        group = named_group(name)
        out[name] = (group, corpus_rep(name, group))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(0)
