import collections

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
def z2():
    return named_group("Z_2")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def eigensolver_calls(monkeypatch):
    """A Counter of the `np.linalg.eigvalsh` and `eigh` calls made while the test runs."""
    calls = collections.Counter()

    def counted(name, solver):
        def call(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls
