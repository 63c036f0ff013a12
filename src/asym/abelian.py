"""Fourier-domain view of the feasibility decision for finite abelian groups.

Charge distributions are probability vectors over dual-group labels; their
discrete Fourier transform reproduces the characteristic function. Labels
come from the group's cached `cyclic_decomposition` (the product
Z_{n_1} x ... x Z_{n_k} indexing that also gives the group's characters as
its irreps). The sectors of a state are the DFT over the labels of its
orbit under the phase-gauged basis generators. The gauged squarings
V^(2^j) are computed once per rep and kept (`ProjectiveRep.gauge_squarings`):
sum_j (bit_length(t_j) - 1) d x d squarings and sum_j bit_length(t_j) d^2
complex entries. Per state the orbit grows one axis at a time by doubling,
sum_j ceil(log2 t_j) block products, with one FFT along each axis on the
block just built. A charge distribution's dual coefficients are a
characteristic function on its label group (`groups.label_group`, the same
product on the row-major label grid, whose grid is its recorded cyclic
decomposition), so the convolution condition p = q * w is the Gram view's
decision on that group, `feasible_exact`, and the weights w are its
readout. Each Fourier block of the label group is one number: the block
of grid label k is |G| * w at label -k. So w is the decision's own blocks
(`FeasibilityResult.block_min`) read in label order, with no transform,
|G| min w is the minimum Gram eigenvalue, and there is one verdict. The
interpolator f is never formed as values on the labels: the decision reads
its real coordinates alone, and so do the weights. A
`ChargeDistribution` is immutable, so its dual coefficients and
characteristic function are computed on first read and kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, char_from_values, unit_mask
from .convertibility import FeasibilityResult, feasible_exact
from .errors import (
    NotSimultaneouslyDiagonalizable,
    SelfCheckFailed,
    ShapeMismatch,
)
from .groups import FiniteGroup, ProjectiveRep, PureState, _frozen, label_group
from .tolerances import TOL_CHARGE, TOL_PROB, TOL_SECTOR, TOL_SELF


@dataclass(frozen=True, eq=False)
class ChargeDistribution:
    shape: tuple[int, ...]
    probs: np.ndarray  # flat, row-major over the label grid

    def __post_init__(self):
        shape = tuple(self.shape)
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) for t in shape):
            raise ShapeMismatch(f"shape {shape} has an entry that is not an integer")
        object.__setattr__(self, "shape", tuple(map(int, shape)))  # a key of `label_group`
        if len(self.shape) == 0 or min(self.shape) < 1:
            raise ShapeMismatch(f"shape {self.shape} needs one or more entries, each >= 1")
        p = np.array(self.probs, dtype=float)  # a copy: made read-only below
        size = int(np.prod(self.shape))
        if p.shape != (size,):
            raise ShapeMismatch(f"expected {size} probabilities, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ShapeMismatch("non-finite probability")
        if p.min() < -TOL_PROB:
            raise ShapeMismatch(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > TOL_SECTOR:
            raise ShapeMismatch(f"probabilities sum to {float(p.sum())}")
        object.__setattr__(self, "probs", _frozen(p))

    def grid(self) -> np.ndarray:
        return self.probs.reshape(self.shape)

    @functools.cached_property
    def char(self) -> CharFunction:
        """chi on the label group (`groups.label_group`): the dual coefficients,
        with lambda(0) = chi(e) = 1, built once and kept. ShapeMismatch above
        MAX_ORDER labels."""
        return char_from_values(label_group(self.shape), dual_fourier(self).values)


@dataclass(frozen=True, eq=False)
class DualCoefficients:
    values: np.ndarray  # flat complex, values[0] = 1


def abelian_basis(group: FiniteGroup) -> list[tuple[int, int]]:
    """[(generator, order), ...] of the group's cached `cyclic_decomposition`."""
    return list(group.cyclic_decomposition[0])


def basis_elements(group: FiniteGroup) -> tuple[tuple[int, ...], np.ndarray]:
    """Shape of the cyclic decomposition plus the label -> element index map."""
    basis, elems = group.cyclic_decomposition
    return tuple(t for _, t in basis) or (1,), elems


def charge_distribution(rep: ProjectiveRep, state: PureState) -> ChargeDistribution:
    """Decompose a state into charge sectors of an abelian representation.

    With each basis generator U_j of order t_j phase-gauged to V_j, V_j^{t_j} = I
    (`ProjectiveRep.gauge_squarings`, kept per rep), the DFT over the labels
    of the orbit T[a] = V_1^{a_1} ... V_m^{a_m} psi, divided by |G|, has at
    label k the projection of psi onto the joint eigenspace where V_j acts
    as exp(2 pi i k_j / t_j); p_k is its squared norm. One axis at a time,
    last to first, the orbit grows by doubling: the rows a + m, a < m, are
    the rows a times V_j^m, m = 1, 2, 4, ..., truncated at t_j, each step
    one matrix product of the block built so far. One FFT along the new axis
    then transforms that block; it commutes with the matrices of the axes
    still to come, so the sectors are those of the full orbit's DFT.

    Cost: once per rep, sum_j (bit_length(t_j) - 1) d x d squarings (and
    popcount(t_j) - 1 products for the U^t = z I check), keeping
    sum_j bit_length(t_j) d^2 complex entries; per state, sum_j
    ceil(log2 t_j) block products and one FFT per axis, on n x d entries.
    """
    basis = abelian_basis(rep.group)
    squarings = rep.gauge_squarings
    d = rep.dim
    orbit = state.amplitudes[None, :]  # rows: labels of the axes done, transformed
    for (_, t), Vt in zip(reversed(basis), reversed(squarings)):
        block = np.empty((t, *orbit.shape), dtype=complex)
        block[0] = orbit
        for j in range((t - 1).bit_length()):  # rows [m, m + k) from rows [0, k)
            m = 1 << j
            k = min(m, t - m)
            np.matmul(block[:k].reshape(-1, d), Vt[j], out=block[m:m + k].reshape(-1, d))
        orbit = np.fft.fft(block, axis=0).reshape(-1, d)

    shape, _ = basis_elements(rep.group)
    probs = (orbit.real**2 + orbit.imag**2).sum(axis=-1) / float(rep.group.order) ** 2
    total = probs.sum()
    if abs(total - 1.0) > TOL_SECTOR:
        raise NotSimultaneouslyDiagonalizable(
            f"sector weights sum to {float(total)}; diagonalization lost probability"
        )
    return ChargeDistribution(shape=shape, probs=probs / total)


def dual_fourier(dist: ChargeDistribution) -> DualCoefficients:
    """lambda_a = sum_k p_k exp(i 2 pi a.k / n), componentwise over the shape."""
    grid = dist.grid()
    lam = np.fft.ifftn(grid) * grid.size
    return DualCoefficients(values=lam.ravel())


def fourier_weights(
    p: ChargeDistribution, q: ChargeDistribution, N: int, M: int
) -> tuple[np.ndarray, bool]:
    """Candidate convolution weights w with p^N-sector = q^M-sector * w, and the verdict.

    Both are read off one decision, `feasibility`: w is `label_weights` of its
    Fourier blocks, so |G| min w is its minimum Gram eigenvalue, and w sums
    to one since f(0) = 1. There is no second rule: the verdict is the
    decision's, zero-set rule included.
    """
    res = feasibility(p, q, N, M)
    return label_weights(res, p.char.group), res.feasible


def feasibility(p: ChargeDistribution, q: ChargeDistribution, N: int, M: int) -> FeasibilityResult:
    """`feasible_exact` of p^N -> q^M on their label group, whose elements are
    the row-major label indices. ShapeMismatch for different shapes or more
    than MAX_ORDER labels."""
    if p.shape != q.shape:
        raise ShapeMismatch(f"shapes differ: {p.shape} vs {q.shape}")
    return feasible_exact(p.char, q.char, N, M)


def label_weights(res: FeasibilityResult, group: FiniteGroup) -> np.ndarray:
    """w_k = block_min[-k] / |G|: the Gram blocks of a decision on the label
    group (`groups.label_group`), read in label order. Block k of an
    interpolator f is sum_a f(a) exp(2 pi i a.k / n), one number, real since
    f is Hermitian; at label -k it is the DFT of f at k, so w = DFT(f) / |G|
    with no transform run."""
    return res.block_min[group.inv] / group.order


def shift_canonicalize(dist: ChargeDistribution) -> ChargeDistribution:
    """Translate the support so every dual coefficient that `charfn.unit_mask` keeps is 1.

    A single shift by any support label does it: if |lambda_a| = 1 then all
    support labels share the same character phase at a, so re-centering on
    one of them cancels it for every such a simultaneously. The probability
    multiset is unchanged. The shift is one gather of the flat
    probabilities: label l of the result reads label l + k1 (mod the shape),
    k1 the first support label, its row-major index built one axis at a
    time. SelfCheckFailed unless every kept coefficient is then within
    TOL_SELF of 1.
    """
    k1 = np.unravel_index(int(np.argmax(dist.probs > TOL_CHARGE)), dist.shape)
    src = np.zeros(1, dtype=np.intp)
    for t, k in zip(dist.shape, k1):
        src = (src[:, None] * t + (np.arange(t) + k) % t).ravel()
    out = ChargeDistribution(shape=dist.shape, probs=dist.probs[src])
    lam = dual_fourier(out).values
    with np.errstate(divide="ignore"):
        unit = unit_mask(np.log(np.abs(lam)))
    if not (np.abs(lam[unit] - 1.0) <= TOL_SELF).all():
        raise SelfCheckFailed("shift canonicalization left a unit-modulus coefficient != 1")
    return out
