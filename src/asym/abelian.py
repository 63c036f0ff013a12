"""Fourier-domain oracle for finite abelian groups.

Charge distributions are probability vectors over dual-group labels; their
discrete Fourier transform reproduces the characteristic function, and the
convolution condition p = q * w turns single-shot feasibility into
nonnegativity of an inverse DFT. Dual labels reuse the group's own product
Z_{n_1} x ... x Z_{n_k} indexing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotAbelian,
    NotSimultaneouslyDiagonalizable,
    SelfCheckFailed,
    ShapeMismatch,
)
from .groups import FiniteGroup, ProjectiveRep, PureState, subgroup_closure

TOL_W = 1e-9
TOL_NORM = 1e-10
TOL_EIG = 1e-8


@dataclass(frozen=True, eq=False)
class ChargeDistribution:
    shape: tuple[int, ...]
    probs: np.ndarray  # flat, row-major over the label grid

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        size = int(np.prod(self.shape))
        if p.shape != (size,):
            raise ShapeMismatch(f"expected {size} probabilities, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ShapeMismatch("non-finite probability")
        if p.min() < -TOL_W:
            raise ShapeMismatch(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-8:
            raise ShapeMismatch(f"probabilities sum to {p.sum()!r}")
        object.__setattr__(self, "probs", p)

    def grid(self) -> np.ndarray:
        return self.probs.reshape(self.shape)


@dataclass(frozen=True, eq=False)
class DualCoefficients:
    shape: tuple[int, ...]
    values: np.ndarray  # flat complex, values[0] = 1

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.shape)


def abelian_basis(group: FiniteGroup) -> list[tuple[int, int]]:
    """Deterministic cyclic decomposition of an abelian group table.

    Returns [(generator, order), ...] with orders in non-increasing order;
    the map (k_1, ..., k_m) -> prod g_j^{k_j} is a bijection onto G.
    Greedy maximal-quotient-order choice with a coset adjustment so every
    chosen generator satisfies g^order = e exactly.
    """
    if not group.is_abelian():
        raise NotAbelian("multiplication table is not symmetric")
    n = group.order
    e = group.identity
    H = frozenset({e})
    basis: list[tuple[int, int]] = []
    while len(H) < n:
        best_g, best_t = None, 0
        for g in range(n):
            if g in H:
                continue
            x, t = g, 1
            while x not in H:
                x = int(group.mult[x, g])
                t += 1
            if t > best_t:
                best_g, best_t = g, t
        # adjust within the coset so the lift has exact order best_t
        chosen = None
        for h in sorted(H):
            cand = int(group.mult[best_g, h])
            x = e
            for _ in range(best_t):
                x = int(group.mult[x, cand])
            if x == e:
                chosen = cand
                break
        if chosen is None:  # cannot happen for abelian tables; guard anyway
            raise NotAbelian("failed to lift a basis generator")
        basis.append((chosen, best_t))
        H = subgroup_closure(group, set(H) | {chosen})
    # verify the product map is a bijection
    seen = set()
    for k in itertools.product(*[range(t) for _, t in basis]):
        x = e
        for (g, _), kj in zip(basis, k):
            for _ in range(kj):
                x = int(group.mult[x, g])
        seen.add(x)
    if len(seen) != n:
        raise NotAbelian("basis decomposition failed the bijection check")
    return basis


def basis_elements(group: FiniteGroup) -> tuple[tuple[int, ...], np.ndarray]:
    """Shape of the cyclic decomposition plus the label -> element index map."""
    basis = abelian_basis(group)
    shape = tuple(t for _, t in basis) if basis else (1,)
    if not basis:
        return shape, np.array([group.identity], dtype=np.intp)
    elems = np.empty(shape, dtype=np.intp)
    for k in itertools.product(*[range(t) for t in shape]):
        x = group.identity
        for (g, _), kj in zip(basis, k):
            for _ in range(kj):
                x = int(group.mult[x, g])
        elems[k] = x
    return shape, elems.ravel()


def _orth(cols: np.ndarray, tol: float = TOL_EIG) -> np.ndarray:
    if cols.size == 0:
        return cols.reshape(cols.shape[0], 0)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, s > tol]


def charge_distribution(rep: ProjectiveRep, state: PureState) -> ChargeDistribution:
    """Decompose a state into charge sectors of an abelian representation.

    Simultaneously block-diagonalizes the commuting unitaries via exact
    character-averaged spectral projectors of each basis generator (after a
    per-generator phase gauge making U^order = I), then measures the squared
    projection of the state onto each joint sector.
    """
    group = rep.group
    basis = abelian_basis(group)
    mats = rep.matrices
    gens = [mats[g] for g, _ in basis]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if np.abs(gens[i] @ gens[j] - gens[j] @ gens[i]).max() > TOL_EIG:
                raise NotSimultaneouslyDiagonalizable(
                    "generator matrices do not commute (projective obstruction)"
                )
    d = rep.dim
    gauged = []
    for (g, t), U in zip(basis, gens):
        P = np.linalg.matrix_power(U, t)
        z = P[0, 0]
        if abs(abs(z) - 1.0) > TOL_EIG or np.abs(P - z * np.eye(d)).max() > TOL_EIG:
            raise NotSimultaneouslyDiagonalizable(
                f"U^{t} for generator {g} is not a phase multiple of the identity"
            )
        gauged.append(U * np.exp(-1j * np.angle(z) / t))

    shape = tuple(t for _, t in basis) if basis else (1,)
    subspaces: list[tuple[np.ndarray, tuple[int, ...]]] = [(np.eye(d, dtype=complex), ())]
    for (g, t), U in zip(basis, gauged):
        pows = [np.eye(d, dtype=complex)]
        for _ in range(t - 1):
            pows.append(pows[-1] @ U)
        refined = []
        for B, lab in subspaces:
            for k in range(t):
                # exact spectral projector onto the e^{2 pi i k / t} eigenspace
                P = sum(np.exp(-2j * np.pi * k * s / t) * pows[s] for s in range(t)) / t
                Q = _orth(P @ B)
                if Q.shape[1]:
                    refined.append((Q, lab + (k,)))
        subspaces = refined

    psi = state.amplitudes
    probs = np.zeros(shape)
    for B, lab in subspaces:
        probs[lab if lab else (0,)] = float(np.linalg.norm(B.conj().T @ psi) ** 2)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise NotSimultaneouslyDiagonalizable(
            f"sector weights sum to {total!r}; diagonalization lost probability"
        )
    return ChargeDistribution(shape=shape, probs=(probs / total).ravel())


def dual_fourier(dist: ChargeDistribution) -> DualCoefficients:
    """lambda_a = sum_k p_k exp(i 2 pi a.k / n), componentwise over the shape."""
    grid = dist.grid()
    lam = np.fft.ifftn(grid) * grid.size
    return DualCoefficients(shape=dist.shape, values=lam.ravel())


def _log_power(lam: np.ndarray, k: int) -> np.ndarray:
    """log(lam^k) = k log|lam| + i k arg(lam), with 0^k = 0 and 0^0 = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logmod = np.where(lam == 0, -np.inf if k else 0.0, k * np.log(np.abs(lam)))
    return logmod + 1j * k * np.angle(lam)


def fourier_weights(
    p: ChargeDistribution,
    q: ChargeDistribution,
    N: int,
    M: int,
    tol_w: float = TOL_W,
    tol_zero: float = 1e-10,
) -> tuple[np.ndarray, bool]:
    """Candidate convolution weights w with p^N-sector = q^M-sector * w.

    Sets lambda(w) = lambda(p)^N / lambda(q)^M off the q zero set and 0 on
    it; feasible iff the inverse DFT is nonnegative, sums to one, and the
    zero-set rule holds (lambda(p)^N must vanish wherever lambda(q)^M does).
    The ratio is formed in log-modulus, so powers that underflow a float on
    their own still give a finite ratio.
    """
    if p.shape != q.shape:
        raise ShapeMismatch(f"shapes differ: {p.shape} vs {q.shape}")
    lam_p = dual_fourier(p).values
    lam_q = dual_fourier(q).values
    zero_q = np.abs(lam_q) <= tol_zero
    zero_ok = bool(np.all(np.abs(lam_p[zero_q]) <= tol_zero))
    log_w = _log_power(lam_p, N) - _log_power(np.where(zero_q, 1.0, lam_q), M)
    # cap the log-ratio as build_interpolator does: a grossly infeasible
    # instance gets a huge finite weight instead of an overflow
    with np.errstate(under="ignore"):
        lam_w = np.exp(np.minimum(log_w.real, 350.0) + 1j * log_w.imag)
    lam_w[zero_q] = 0.0
    w = np.fft.fftn(lam_w.reshape(p.shape)) / lam_w.size
    w = np.real_if_close(w, tol=1e6).real.ravel()
    feasible = (
        zero_ok
        and float(w.min()) >= -tol_w
        and abs(float(w.sum()) - 1.0) <= max(TOL_NORM, 1e-9 * w.size)
    )
    return w, feasible


def shift_canonicalize(dist: ChargeDistribution, tol_one: float = 1e-10) -> ChargeDistribution:
    """Translate the support so every unit-modulus dual coefficient equals 1.

    A single shift by any support label does it: if |lambda_a| = 1 then all
    support labels share the same character phase at a, so re-centering on
    one of them cancels it for every such a simultaneously. The probability
    multiset is unchanged.
    """
    grid = dist.grid()
    support = np.argwhere(grid > 1e-15)
    if support.size == 0:
        return dist
    k1 = support[0]
    shifted = np.roll(grid, shift=tuple(-int(k) for k in k1), axis=tuple(range(grid.ndim)))
    out = ChargeDistribution(shape=dist.shape, probs=shifted.ravel())
    lam = dual_fourier(out).values
    unit = np.abs(lam) >= 1.0 - tol_one
    if not np.allclose(lam[unit], 1.0, atol=1e-8):
        raise SelfCheckFailed("shift canonicalization left a unit-modulus coefficient != 1")
    return out
