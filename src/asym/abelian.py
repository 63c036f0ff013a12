"""Fourier-domain view of the feasibility decision for finite abelian groups.

Charge distributions are probability vectors over dual-group labels; their
discrete Fourier transform reproduces the characteristic function. Labels
come from the group's cached `cyclic_decomposition` (the product
Z_{n_1} x ... x Z_{n_k} indexing that also gives the group's characters as
its irreps). The sectors of a state come from one FFT over its orbit under
the basis generators. The convolution condition p = q * w turns single-shot
feasibility into nonnegativity of an inverse DFT of the interpolator that
`convertibility.interpolate` builds for the Gram view too, over the label
inverse a -> -a; |G| * w is that view's Gram spectrum, so both read one
decision. A `ChargeDistribution` is immutable, so its dual coefficients and
label inverse are computed on first read and kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .charfn import SplitPolar, _polar, make_hermitian, split_polar, unit_mask, zero_mask
from .convertibility import _first_failure, _interpolate
from .errors import (
    NotSimultaneouslyDiagonalizable,
    SelfCheckFailed,
    ShapeMismatch,
)
from .groups import FiniteGroup, ProjectiveRep, PureState, _frozen, pair_split
from .tolerances import TOL_CHARGE, TOL_PROB, TOL_SECTOR, TOL_SELF


@dataclass(frozen=True, eq=False)
class ChargeDistribution:
    shape: tuple[int, ...]
    probs: np.ndarray  # flat, row-major over the label grid

    def __post_init__(self):
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
            raise ShapeMismatch(f"probabilities sum to {p.sum()!r}")
        object.__setattr__(self, "probs", _frozen(p))

    def grid(self) -> np.ndarray:
        return self.probs.reshape(self.shape)

    @functools.cached_property
    def polar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log|lambda|, phase, zero mask) of the dual coefficients, made Hermitian
        over `inv` and encoded as chi is (`charfn._polar`): lambda(0) = chi(e) = 1."""
        lam = make_hermitian(dual_fourier(self).values, self.inv)
        logmod, phase = _polar(lam, 0, self.inv)
        return _frozen(logmod), _frozen(phase), _frozen(zero_mask(logmod))

    @functools.cached_property
    def split_polar(self) -> SplitPolar:
        """`polar` on the representatives of the label inverse `inv`, built once and kept."""
        return split_polar(self.polar, pair_split(self.inv))

    @functools.cached_property
    def inv(self) -> np.ndarray:
        """The flat index of -a (mod the shape) for each label a, kept."""
        labels = np.arange(self.probs.size).reshape(self.shape)
        return _frozen(np.roll(np.flip(labels), 1, axis=tuple(range(labels.ndim))).ravel())


@dataclass(frozen=True, eq=False)
class DualCoefficients:
    shape: tuple[int, ...]
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

    Phase-gauges each basis generator U_j of order t_j to V_j with
    V_j^{t_j} = I, builds the orbit T[a] = V_1^{a_1} ... V_m^{a_m} psi over
    the label grid, and takes its DFT over the labels divided by |G|: entry
    k is the projection of psi onto the joint eigenspace where V_j acts as
    exp(2 pi i k_j / t_j), and p_k is its squared norm.
    """
    group = rep.group
    basis = abelian_basis(group)
    if not rep.commutative:
        raise NotSimultaneouslyDiagonalizable(
            "generator matrices do not commute (projective obstruction)"
        )
    gens = [rep.matrices[g] for g, _ in basis]
    d = rep.dim
    orbit = state.amplitudes[None, :]  # rows: the orbit over the labels so far
    for (g, t), U in zip(basis, gens):
        P = np.linalg.matrix_power(U, t)
        z = P[0, 0]
        if abs(abs(z) - 1.0) > TOL_SECTOR or np.abs(P - z * np.eye(d)).max() > TOL_SECTOR:
            raise NotSimultaneouslyDiagonalizable(
                f"U^{t} for generator {g} is not a phase multiple of the identity"
            )
        Vt = (U * np.exp(-1j * np.angle(z) / t)).T
        rows = [orbit]
        for _ in range(t - 1):
            rows.append(rows[-1] @ Vt)
        orbit = np.stack(rows, axis=1).reshape(-1, d)

    shape = tuple(t for _, t in basis) or (1,)
    sectors = np.fft.fftn(orbit.reshape(*shape, d), axes=range(len(shape))) / group.order
    probs = (sectors.real**2 + sectors.imag**2).sum(axis=-1)
    total = probs.sum()
    if abs(total - 1.0) > TOL_SECTOR:
        raise NotSimultaneouslyDiagonalizable(
            f"sector weights sum to {total!r}; diagonalization lost probability"
        )
    return ChargeDistribution(shape=shape, probs=(probs / total).ravel())


def dual_fourier(dist: ChargeDistribution) -> DualCoefficients:
    """lambda_a = sum_k p_k exp(i 2 pi a.k / n), componentwise over the shape."""
    grid = dist.grid()
    lam = np.fft.ifftn(grid) * grid.size
    return DualCoefficients(shape=dist.shape, values=lam.ravel())


def fourier_weights(
    p: ChargeDistribution, q: ChargeDistribution, N: int, M: int
) -> tuple[np.ndarray, bool]:
    """Candidate convolution weights w with p^N-sector = q^M-sector * w.

    lambda(w) = lambda(p)^N / lambda(q)^M off the q zero set (|lambda(q)| <=
    TOL_ZERO) and 0 on it, from `convertibility.interpolate`'s core, the
    Gram view's too, and the verdict is the Gram view's rule with min eig =
    |G| * min w: feasible iff the zero-set rule holds and |G| * min w >=
    -TOL_PSD * |G|, that is min w >= -TOL_PSD. lambda(w) is Hermitian bit for
    bit over the label inverse `p.inv`. lambda(0) is 1, as chi(e) is, so w
    sums to one.
    """
    if p.shape != q.shape:
        raise ShapeMismatch(f"shapes differ: {p.shape} vs {q.shape}")
    (coords,), (violation,) = _interpolate(p.split_polar, q.split_polar, N, M)
    lam_w = p.split_polar.pairs.expand(coords)
    n = lam_w.size
    w = (np.fft.fftn(lam_w.reshape(p.shape)) / n).real.ravel()
    return w, _first_failure(np.array([n * w.min()]), violation, n) < 0


def shift_canonicalize(dist: ChargeDistribution) -> ChargeDistribution:
    """Translate the support so every dual coefficient that `charfn.unit_mask` keeps is 1.

    A single shift by any support label does it: if |lambda_a| = 1 then all
    support labels share the same character phase at a, so re-centering on
    one of them cancels it for every such a simultaneously. The probability
    multiset is unchanged.
    """
    grid = dist.grid()
    support = np.argwhere(grid > TOL_CHARGE)
    if support.size == 0:
        return dist
    k1 = support[0]
    shifted = np.roll(grid, shift=tuple(-int(k) for k in k1), axis=tuple(range(grid.ndim)))
    out = ChargeDistribution(shape=dist.shape, probs=shifted.ravel())
    lam = dual_fourier(out).values
    with np.errstate(divide="ignore"):
        unit = unit_mask(np.log(np.abs(lam)))
    if not np.allclose(lam[unit], 1.0, atol=TOL_SELF):
        raise SelfCheckFailed("shift canonicalization left a unit-modulus coefficient != 1")
    return out
