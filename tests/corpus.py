"""Bundled example corpus: small groups with one faithful representation
each, plus parametrized state generators for tests and docs.

The reps for D_4 and Q_8 append one-dimensional characters to the faithful
two-dimensional irrep so that generic states have trivial symmetry subgroup
(the bare irrep sends the center to -I, forcing |chi| = 1 there).
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from asym import io
from asym.groups import (
    FiniteGroup,
    ProjectiveRep,
    PureState,
    dihedral_matrices,
    named_group,
    permutation_matrices,
    quaternion_matrices,
    validate_projective_rep,
)
from asym.lie import GeneratorSet

GROUP_NAMES = ["Z_2", "Z_3", "Z_4", "Z_2xZ_2", "S_3", "D_4", "Q_8"]


def _cyclic_rep(n: int) -> np.ndarray:
    # direct sum of all characters: U(k) = diag(omega^{jk}), faithful
    omega = np.exp(2j * np.pi / n)
    return np.array([np.diag(omega ** (np.arange(n) * k)) for k in range(n)])


def _z2z2_rep() -> np.ndarray:
    labels = list(itertools.product(range(2), range(2)))
    mats = []
    for a in labels:
        diag = [(-1.0) ** (a[0] * x + a[1] * y) for x, y in labels]
        mats.append(np.diag(diag).astype(complex))
    return np.array(mats)


def _with_characters(two: np.ndarray, *chars) -> np.ndarray:
    """The direct sum of a 2-dim rep and one-dimensional characters."""
    out = np.zeros((len(two), 2 + len(chars), 2 + len(chars)), dtype=complex)
    out[:, :2, :2] = two
    for k, char in enumerate(chars):
        out[:, 2 + k, 2 + k] = char
    return out


def _d4_rep() -> np.ndarray:
    # 2-dim irrep of r^i s^j (index i + 4j) plus the character r -> -1, s -> -1
    return _with_characters(dihedral_matrices(), [(-1.0) ** (g % 4 + g // 4) for g in range(8)])


def _q8_rep() -> np.ndarray:
    # 2-dim irrep plus the two sign characters factoring through Q_8 / {+-1},
    # in element order (1, -1, i, -i, j, -j, k, -k)
    char_i = [1, 1, -1, -1, 1, 1, -1, -1]
    char_j = [1, 1, 1, 1, -1, -1, -1, -1]
    return _with_characters(quaternion_matrices(), char_i, char_j)


_REP_BUILDERS = {
    "Z_2": lambda: _cyclic_rep(2),
    "Z_3": lambda: _cyclic_rep(3),
    "Z_4": lambda: _cyclic_rep(4),
    "Z_2xZ_2": _z2z2_rep,
    "S_3": permutation_matrices,
    "D_4": _d4_rep,
    "Q_8": _q8_rep,
}


def corpus_rep(name: str, group: FiniteGroup | None = None) -> ProjectiveRep:
    group = group if group is not None else named_group(name)
    return validate_projective_rep(group, _REP_BUILDERS[name]())


def z2_population_state(p: float) -> PureState:
    """(sqrt(p), sqrt(1-p)) under the Z_2 corpus rep: chi(g1) = 2p - 1."""
    return PureState(dim=2, amplitudes=np.array([np.sqrt(p), np.sqrt(1.0 - p)]))


def random_state(dim: int, rng: np.random.Generator) -> PureState:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(dim=dim, amplitudes=z / np.linalg.norm(z))


def random_distribution(shape, rng: np.random.Generator) -> np.ndarray:
    p = rng.dirichlet(np.ones(int(np.prod(shape))))
    return p


def write_corpus(directory) -> dict[str, dict[str, Path]]:
    """Write every corpus group/rep plus a few example states as JSON files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[str, dict[str, Path]] = {}
    for name in GROUP_NAMES:
        slug = name.lower().replace("_", "")
        group = named_group(name)
        rep = corpus_rep(name, group)
        gpath = directory / f"{slug}.json"
        rpath = directory / f"{slug}_rep.json"
        io.save_group(gpath, group)
        io.save_rep(rpath, rep)
        written[name] = {"group": gpath, "rep": rpath}
    io.save_state(directory / "z2_psi08.json", z2_population_state(0.8))
    io.save_state(
        directory / "z2_psi068.json", z2_population_state((1 + 0.36) / 2)
    )  # chi(g1) = 0.36 = 0.6^2
    rng = np.random.default_rng(0)
    io.save_state(directory / "s3_random.json", random_state(3, rng))
    io.save_generators(
        directory / "spin_half_gens.json",
        GeneratorSet(
            dim=2,
            generators=np.array(
                [
                    [[0.0, 0.5], [0.5, 0.0]],
                    [[0.0, -0.5j], [0.5j, 0.0]],
                    [[0.5, 0.0], [0.0, -0.5]],
                ]
            ),
        ),
    )
    return written
