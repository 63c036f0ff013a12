"""Ground truth by construction: Hypothesis strategies that draw instances
(psi, phi, N, M) whose verdict is known because a covariant channel, or an
obstruction, is built explicitly. The oracle cannot grade itself on them,
as it does when one of its views is compared with another.

Feasible, each for every N >= M (copies of psi beyond M are traced out):
- partial trace: psi = phi (x) xi under L (x) U, with L the regular rep and
  U a corpus rep (the regular rep off the corpus); chi_psi = chi_phi chi_xi;
- the commutant: psi = R(k) phi in the regular rep, where the right
  translation R(k) commutes with every L(g), so chi_psi = chi_phi;
- a character twist: psi = diag(c) phi in the regular rep, for a linear
  character c of G. W = diag(c) has W L(g) W^+ = c(g) L(g), so
  rho -> W rho W^+ is covariant, and chi_psi = conj(c) chi_phi;
- a convolution of charge distributions on Z_n: p = q * w for a
  distribution w, so lambda_p = lambda_q lambda_w and w is the weights.
  q and w are multiples of 2^-10, so p, a multiple of 2^-20, is exact in
  floats: a refusal at large K is the library's own arithmetic;
- the Schur product of two feasible pairs at one (N, M), as
  (psi_1 (x) psi_2) -> (phi_1 (x) phi_2): chi multiplies, and so do the
  charge distributions' dual coefficients (p_1 * p_2);
- a feasible instance with one copy more of psi or one fewer of phi.
The commutant and the twist are drawn in both directions. Each feasible
pair converts psi^K -> phi^K at every K, so `minimal_copies_search` at
rate 1 gives 1.

Infeasible: the partial trace reversed, phi -> phi (x) xi at N <= M, where
|chi_xi(g)| < 1 / (1 + MARGIN) at some g. There |f(g)| = |chi_phi(g)|^(N-M)
|chi_xi(g)|^-M > 1 + MARGIN, so the 2 x 2 principal minor of the Gram
matrix at (e, g) is negative: `modulus_witness` is set, at every K copies
each too, so `minimal_copies_search` at rate 1 gives None.

Left out: pairs whose chi_psi and chi_phi both vanish somewhere (Z != {}),
on which f is free and the oracle still answers wrongly (ROADMAP item 1).
Every draw keeps |chi_phi| >= FLOOR, which rules Z out, and keeps the
division by chi_phi well conditioned.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from asym import ChargeDistribution, char_function, charge_distribution, named_group
from asym.charfn import CharFunction, char_from_values
from asym.convertibility import MAX_SEARCH_COPIES
from asym.groups import PureState, validate_projective_rep
from corpus import GROUP_NAMES, corpus_rep
from reference import irrep_matrix

GROUPS = ["Z_4", "Z_2xZ_2", "S_3", "D_4", "Q_8", "Z_3xZ_3"]
ABELIAN = ["Z_4", "Z_2xZ_2", "Z_3xZ_3"]
CYCLIC_ORDERS = [4, 8, 12]  # the convolution family's Z_n
DYADIC = 2**10  # q and w of the convolution family are multiples of 1 / DYADIC
FLOOR = 1e-3  # least |chi_phi| of a drawn pair
MARGIN = 1e-2  # least excess of |f| over 1 in an infeasible pair
SEEDS = st.integers(0, 2**32 - 1)


@dataclasses.dataclass(frozen=True, eq=False)
class Instance:
    family: str
    psi: CharFunction
    phi: CharFunction
    N: int
    M: int
    feasible: bool
    charges: tuple[ChargeDistribution, ChargeDistribution] | None = None  # p, q on an abelian group
    weights: np.ndarray | None = None  # w with p^N = q^M * w, where known


@functools.cache
def group(name: str):
    return named_group(name)


@functools.cache
def regular(name: str):
    """L(g) e_h = e_{gh}."""
    g = group(name)
    n = g.order
    mats = np.zeros((n, n, n))
    mats[np.arange(n)[:, None], g.mult, np.arange(n)[None, :]] = 1.0
    return validate_projective_rep(g, mats)


@functools.cache
def with_spectator(name: str):
    """L (x) U: the regular rep with the corpus rep (the regular one off the corpus)."""
    g, L = group(name), regular(name)
    U = corpus_rep(name, g) if name in GROUP_NAMES else L
    d = L.dim * U.dim
    return validate_projective_rep(g, np.einsum("gij,gkl->gikjl", L.matrices, U.matrices)
                                   .reshape(g.order, d, d))


def element_orders(g) -> np.ndarray:
    """ord(h) for every element h, by repeated multiplication."""
    h = np.arange(g.order)
    power, order = h.copy(), np.ones(g.order, dtype=int)
    while (left := power != g.identity).any():
        power[left] = g.mult[power[left], h[left]]
        order[left] += 1
    return order


@functools.cache
def linear_characters(name: str) -> np.ndarray:
    """(n, count): the one-dimensional irreps of G as columns, each checked
    to be a homomorphism to the unit circle. c(h) is an ord(h)-th root of
    unity, so each value is snapped to the nearest one: `irrep_matrix`
    rebuilds them through the real basis, off by up to a few 1e-15, and a
    twist by such a c is no exact twist once K copies amplify that K times.
    The quarter turns (+-1, +-i) are exact; other roots are the nearest
    float to exp(2 pi i k / ord(h))."""
    g = group(name)
    d, count = g.irreps.dims[0]
    raw = irrep_matrix(g)[:, :count]
    order = element_orders(g)[:, None]
    k = np.rint(np.angle(raw) * order / (2 * np.pi)).astype(int) % order
    chars = np.exp(2j * np.pi * k / order)
    quarter = 4 * k % order == 0
    chars[quarter] = np.array([1, 1j, -1, -1j])[(4 * k // order)[quarter]]
    assert d == 1 and np.abs(chars - raw).max() <= 1e-12
    assert np.allclose(chars[g.mult], chars[:, None] * chars[None, :], atol=1e-12)
    return chars


def random_state(seed: int, dim: int) -> PureState:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(dim, z / np.linalg.norm(z))


def dyadic(rng: np.random.Generator, size: int) -> np.ndarray:
    """A Dirichlet draw on size points, rounded to multiples of 1 / DYADIC
    that sum to 1 exactly."""
    return rng.multinomial(DYADIC, rng.dirichlet(np.ones(size))) / DYADIC


def convolve(a: ChargeDistribution, b: ChargeDistribution) -> ChargeDistribution:
    """a * b on their label grid, summed label by label (no transform)."""
    grid, axes = np.zeros(a.shape), tuple(range(len(a.shape)))
    for label in np.ndindex(a.shape):
        grid += a.grid()[label] * np.roll(b.grid(), label, axis=axes)
    return ChargeDistribution(a.shape, grid.ravel())


def _pair(family, name, rep_psi, psi, rep_phi, phi, N, M, feasible) -> Instance:
    """The instance of two states, with their charge distributions on an abelian group."""
    c_psi, c_phi = char_function(rep_psi, psi), char_function(rep_phi, phi)
    assume(np.abs(c_phi.values()).min() >= FLOOR)
    charges = None
    if group(name).is_abelian():
        charges = (charge_distribution(rep_psi, psi), charge_distribution(rep_phi, phi))
    return Instance(family, c_psi, c_phi, N, M, feasible, charges)


def _copies(draw) -> tuple[int, int]:
    """N >= M >= 1, up to `MAX_SEARCH_COPIES`."""
    M = draw(st.integers(1, MAX_SEARCH_COPIES))
    return draw(st.integers(M, MAX_SEARCH_COPIES)), M


def _partial_trace(draw, name, N, M) -> Instance:
    L, LU = regular(name), with_spectator(name)
    phi = random_state(draw(SEEDS), L.dim)
    xi = random_state(draw(SEEDS), LU.dim // L.dim)
    psi = PureState(LU.dim, np.kron(phi.amplitudes, xi.amplitudes))
    return _pair("partial trace", name, LU, psi, L, phi, N, M, True)


def _commutant(draw, name, N, M) -> Instance:
    L, g = regular(name), group(name)
    k = draw(st.integers(0, g.order - 1))
    R = np.zeros((g.order, g.order))
    R[g.mult[:, k], np.arange(g.order)] = 1.0  # R(k) e_h = e_{hk}
    phi = random_state(draw(SEEDS), L.dim)
    psi = PureState(L.dim, R @ phi.amplitudes)
    if draw(st.booleans()):
        psi, phi = phi, psi
    return _pair("commutant", name, L, psi, L, phi, N, M, True)


def _twist(draw, name, N, M) -> Instance:
    L, chars = regular(name), linear_characters(name)
    c = chars[:, draw(st.integers(0, chars.shape[1] - 1))]
    phi = random_state(draw(SEEDS), L.dim)
    psi = PureState(L.dim, c * phi.amplitudes)
    if draw(st.booleans()):
        psi, phi = phi, psi
    return _pair("twist", name, L, psi, L, phi, N, M, True)


BASE = {"partial trace": _partial_trace, "commutant": _commutant, "twist": _twist}


@st.composite
def base_pairs(draw, family: str, groups=GROUPS) -> Instance:
    """One of the feasible families of states (`BASE`)."""
    name = draw(st.sampled_from(groups))
    return BASE[family](draw, name, *_copies(draw))


@st.composite
def convolutions(draw, groups=None) -> Instance:
    """p = q * w on Z_n, with lambda_q >= FLOOR and w dense or sparse; at
    K copies each, with the weights w at K = 1. q and w are `dyadic`, so p
    is q * w exactly. groups is unused (the group is Z_n); it is taken so
    that every family is called alike."""
    n = draw(st.sampled_from(CYCLIC_ORDERS))
    rng = np.random.default_rng(draw(SEEDS))
    support = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
    w = np.zeros(n)
    w[support] = dyadic(rng, support.size)
    q = ChargeDistribution((n,), dyadic(rng, n))
    p = convolve(q, ChargeDistribution((n,), w))
    assert np.array_equal(p.probs * DYADIC**2, np.rint(p.probs * DYADIC**2))
    assume(np.abs(q.char.values()).min() >= FLOOR)
    K = draw(st.integers(1, MAX_SEARCH_COPIES))
    return Instance("convolution", p.char, q.char, K, K, True, (p, q), w if K == 1 else None)


@st.composite
def schur_products(draw, groups=GROUPS) -> Instance:
    """(psi_1 (x) psi_2) -> (phi_1 (x) phi_2) from two base pairs at one (N, M)."""
    name = draw(st.sampled_from(groups))
    N, M = _copies(draw)
    a, b = (BASE[draw(st.sampled_from(sorted(BASE)))](draw, name, N, M) for _ in range(2))
    psi, phi = (char_from_values(group(name), x.values() * y.values())
                for x, y in ((a.psi, b.psi), (a.phi, b.phi)))
    assume(np.abs(phi.values()).min() >= FLOOR)
    charges = None
    if a.charges is not None:
        charges = tuple(convolve(x, y) for x, y in zip(a.charges, b.charges))
    return Instance("Schur product", psi, phi, N, M, True, charges)


@st.composite
def one_copy_off(draw, groups=GROUPS) -> Instance:
    """A feasible instance with one copy more of psi, or one fewer of phi."""
    inst = draw(st.one_of(*(base_pairs(f, groups) for f in sorted(BASE)), convolutions()))
    N, M = (inst.N + 1, inst.M) if draw(st.booleans()) else (inst.N, inst.M - 1)
    return dataclasses.replace(inst, family="one copy off", N=N, M=M, weights=None)


@st.composite
def reversed_traces(draw, groups=GROUPS) -> Instance:
    """phi -> phi (x) xi at N <= M, with |chi_xi| < 1 / (1 + MARGIN) somewhere."""
    name = draw(st.sampled_from(groups))
    M = draw(st.integers(1, MAX_SEARCH_COPIES))
    N = draw(st.integers(1, M))
    L, LU = regular(name), with_spectator(name)
    phi = random_state(draw(SEEDS), L.dim)
    xi = random_state(draw(SEEDS), LU.dim // L.dim)
    target = PureState(LU.dim, np.kron(phi.amplitudes, xi.amplitudes))
    inst = _pair("reversed partial trace", name, L, phi, LU, target, N, M, False)
    assume((inst.psi.logmod - inst.phi.logmod).max() > math.log1p(MARGIN))
    return inst


FAMILIES = {
    "partial trace": functools.partial(base_pairs, "partial trace"),
    "commutant": functools.partial(base_pairs, "commutant"),
    "twist": functools.partial(base_pairs, "twist"),
    "convolution": convolutions,
    "Schur product": schur_products,
    "one copy off": one_copy_off,
    "reversed partial trace": reversed_traces,
}
