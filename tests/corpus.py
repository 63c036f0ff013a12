"""Bundled example corpus: small groups with one faithful representation
each, plus the one home of the tests' builders: group tables beyond the
corpus (`BUILT`), reps (regular, Pauli, product, gauged), states and
positive-type functions.

The reps for D_4 and Q_8 append one-dimensional characters to the faithful
two-dimensional irrep so that generic states have trivial symmetry subgroup
(the bare irrep sends the center to -I, forcing |chi| = 1 there).
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path

import numpy as np

from asym import io
from asym.groups import (
    FiniteGroup,
    ProjectiveRep,
    PureState,
    build_group,
    dihedral_matrices,
    named_group,
    permutation_matrices,
    quaternion_matrices,
    validate_projective_rep,
)
from asym.lie import GeneratorSet
from reference import irrep_matrix

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


def gauged_rep(label: str) -> ProjectiveRep:
    """A non-linear rep gauge-equivalent to a linear corpus rep: "iZ" is
    U(1) = iZ on Z_2 (omega(1, 1) = -1); "Z_3" is the corpus Z_3 rep times
    e^{i theta_k}, theta = (0, 1, -1), where omega(g, g^-1) = 1 but
    omega(1, 1) = e^{3i}."""
    name, phases = {
        "iZ": ("Z_2", np.array([1.0, 1j])),
        "Z_3": ("Z_3", np.exp(1j * np.array([0.0, 1.0, -1.0]))),
    }[label]
    return validate_projective_rep(named_group(name), _REP_BUILDERS[name]() * phases[:, None, None])


def pauli_rep() -> ProjectiveRep:
    """X^a Z^b on Z_2 x Z_2, labels (a, b) in row-major order: projective,
    and not commuting, since X Z = -Z X."""
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    return validate_projective_rep(named_group("Z_2xZ_2"), [np.eye(2), Z, X, X @ Z])


def regular_rep(group: FiniteGroup) -> ProjectiveRep:
    """L(g) e_h = e_{gh}."""
    n = group.order
    mats = np.zeros((n, n, n))
    mats[np.arange(n)[:, None], group.mult, np.arange(n)[None, :]] = 1.0
    return validate_projective_rep(group, mats)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def product_rep(moduli, d: int, rng: np.random.Generator, theta=None) -> ProjectiveRep:
    """V diag(exp(2 pi i c.a / m)) V^+ on the named product group, labels a in
    row-major order, over random charges c and a Haar-random V; times
    exp(i theta.a) per label a when theta is given, a projective rep with
    U^t = exp(i t theta_j) I on the cyclic factors. The ProjectiveRep is
    built directly, skipping validation."""
    group = named_group("x".join(f"Z_{m}" for m in moduli))
    labels = np.indices(moduli).reshape(len(moduli), -1).T
    charges = rng.integers(0, moduli, size=(d, len(moduli)))
    V = haar_unitary(d, rng)
    phases = np.exp(2j * np.pi * (labels / np.array(moduli)) @ charges.T)
    if theta is not None:
        phases *= np.exp(1j * labels @ np.asarray(theta))[:, None]
    return ProjectiveRep(group, d, np.einsum("ij,gj,kj->gik", V, phases, V.conj()))


def relabel(table, perm) -> np.ndarray:
    """The table with element x renamed perm[x]."""
    table, perm = np.asarray(table), np.asarray(perm)
    back = np.argsort(perm)
    return perm[table[back][:, back]]


def dihedral_table(m: int) -> np.ndarray:
    """D_m of order 2m; r^i s^a has index i + m a and s r = r^-1 s."""
    i, a = np.arange(2 * m) % m, np.arange(2 * m) // m
    sign = np.where(a == 1, -1, 1)
    return (i[:, None] + sign[:, None] * i[None, :]) % m + m * ((a[:, None] + a[None, :]) % 2)


def symmetric_table(k: int, even: bool = False) -> np.ndarray:
    """S_k (A_k if even) on sorted permutations, identity first; (p q)(x) = p(q(x))."""
    perms = sorted(itertools.permutations(range(k)))
    if even:
        pairs = list(itertools.combinations(range(k), 2))
        perms = [p for p in perms if sum(p[i] > p[j] for i, j in pairs) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])


def heisenberg_table(p: int) -> np.ndarray:
    """Upper unitriangular 3x3 matrices over Z_p, (a, b, c) at index (a p + b) p + c."""
    a, b, c = (x.ravel() for x in np.meshgrid(*[np.arange(p)] * 3, indexing="ij"))
    ab = ((a[:, None] + a[None, :]) % p) * p + (b[:, None] + b[None, :]) % p
    return ab * p + (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p


# the groups beyond the corpus that the oracle is checked on, up to MAX_ORDER
BUILT = {
    "Z_256": lambda: named_group("Z_256"),
    "Z_2^8": lambda: named_group("x".join(["Z_2"] * 8)),
    "Z_16xZ_16": lambda: named_group("Z_16xZ_16"),
    "D_128": lambda: build_group(dihedral_table(128), name="D_128"),
    "S_5": lambda: build_group(symmetric_table(5), name="S_5"),
    "A_5": lambda: build_group(symmetric_table(5, even=True), name="A_5"),
    "Heis_3": lambda: build_group(heisenberg_table(3), name="Heis_3"),
}


@functools.cache
def built_group(name: str) -> FiniteGroup:
    """A `BUILT` or named group, built once per session: groups are immutable."""
    return BUILT[name]() if name in BUILT else named_group(name)


def positive_type(group: FiniteGroup, rng: np.random.Generator) -> np.ndarray:
    """f(k) = sum_g conj v(g) v(g k) / |v|^2: its Gram matrix is a Gram of vectors."""
    v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return (v.conj()[:, None] * v[group.mult]).sum(axis=0) / np.vdot(v, v).real


def concentrated_type(group: FiniteGroup, rng: np.random.Generator, terms: int = 3) -> np.ndarray:
    """A positive-type f whose state spans few irrep coefficients, so |f| is near 1
    on much of G, and may be 1 on a subgroup or 0 somewhere."""
    cols = rng.choice(group.order, size=terms, replace=False)
    v = irrep_matrix(group)[:, cols] @ (rng.standard_normal(terms) + 1j * rng.standard_normal(terms))
    return (v.conj()[:, None] * v[group.mult]).sum(axis=0) / np.vdot(v, v).real


def z2_population_state(p: float) -> PureState:
    """(sqrt(p), sqrt(1-p)) under the Z_2 corpus rep: chi(g1) = 2p - 1."""
    return PureState(dim=2, amplitudes=np.array([np.sqrt(p), np.sqrt(1.0 - p)]))


def random_state(dim: int, rng: np.random.Generator) -> PureState:
    """A state with i.i.d. complex Gaussian amplitudes, normalised."""
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(dim=dim, amplitudes=z / np.linalg.norm(z))


def random_distribution(shape, rng: np.random.Generator) -> np.ndarray:
    p = rng.dirichlet(np.ones(int(np.prod(shape))))
    return p


SPIN_HALF = np.array(  # X, Y, Z over 2: the generators of corpus/spin_half_gens.json
    [
        [[0.0, 0.5], [0.5, 0.0]],
        [[0.0, -0.5j], [0.5j, 0.0]],
        [[0.5, 0.0], [0.0, -0.5]],
    ]
)


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
    io.save_generators(directory / "spin_half_gens.json", GeneratorSet(dim=2, generators=SPIN_HALF))
    return written
