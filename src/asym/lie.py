"""Lie-group side: SLD quantum Fisher information matrices from Hermitian
generators, the matrix-pencil ratio r_F, the impossibility certificate for
approximate conversion, and the second-order expansion diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotAState, SelfCheckFailed
from .groups import PureState
from .tolerances import (
    TOL_CLIP_T,
    TOL_DENSITY,
    TOL_DIRECTION,
    TOL_HERM,
    TOL_PENCIL,
    TOL_PURE,
    TOL_SELF,
    TOL_SUPP,
)


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    dim: int
    generators: np.ndarray  # (m, d, d) complex Hermitian

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=complex)
        if gens.ndim != 3 or gens.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"expected (m, {self.dim}, {self.dim}) generators, got {gens.shape}"
            )
        if not np.isfinite(gens).all():
            raise DomainError("generators have a non-finite entry")
        dev = np.abs(gens - gens.conj().transpose(0, 2, 1)).max() if gens.size else 0.0
        if not dev <= TOL_HERM:
            raise DomainError(f"generators deviate from Hermitian by {dev:.3e}")
        object.__setattr__(self, "generators", gens)

    @property
    def m(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True, eq=False)
class RfResult:
    r_f: float  # may be math.inf
    direction: np.ndarray | None  # pencil minimizer when r_f is finite
    method: str  # 'closed_form' or 'bisection'


def _check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotAState(f"density matrix must be square, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise NotAState("density matrix has a non-finite entry")
    if not np.abs(rho - rho.conj().T).max() <= TOL_HERM:
        raise NotAState("density matrix is not Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= TOL_DENSITY:
        raise NotAState(f"trace is {np.trace(rho)!r}")
    if np.linalg.eigvalsh(rho)[0] < -TOL_DENSITY:
        raise NotAState("density matrix has a negative eigenvalue")
    return rho


def pure_density(state: PureState) -> np.ndarray:
    psi = state.amplitudes
    return np.outer(psi, psi.conj())


def symmetrized_covariance(state: PureState, gens: GeneratorSet) -> np.ndarray:
    """Cov_sym[i,j] = <{X_i, X_j}>/2 - <X_i><X_j> for a pure state."""
    psi = state.amplitudes
    Xpsi = gens.generators @ psi  # (m, d)
    means = np.real(psi.conj() @ Xpsi.T)  # (m,)
    second = np.real(Xpsi.conj() @ Xpsi.T)  # <X_i X_j> symmetrized automatically
    return (second + second.T) / 2.0 - np.outer(means, means)


def qfim(rho, gens: GeneratorSet) -> np.ndarray:
    """SLD quantum Fisher information matrix of rho for the given generators.

    Spectral form: F_ij = sum over eigenpairs (k, l) with p_k + p_l above the
    support cutoff TOL_SUPP of 2 (p_k - p_l)^2 / (p_k + p_l) <k|X_i|l><l|X_j|k>,
    symmetrized. For (numerically) pure inputs the pure-state identity
    F = 4 Cov_sym is re-checked; a mismatch raises SelfCheckFailed.
    """
    rho = _check_density(rho)
    if rho.shape[0] != gens.dim:
        raise DimensionMismatch(f"rho dim {rho.shape[0]} != generator dim {gens.dim}")
    p, V = np.linalg.eigh(rho)
    p = np.clip(p, 0.0, None)
    A = V.conj().T @ gens.generators @ V  # (m, d, d): <k|X_i|l>
    denom = p[:, None] + p[None, :]
    num = (p[:, None] - p[None, :]) ** 2
    W = np.where(denom > TOL_SUPP, 2.0 * num / np.where(denom > TOL_SUPP, denom, 1.0), 0.0)
    F = np.real(np.einsum("kl,mkl,nkl->mn", W, A, A.conj()))
    F = (F + F.T) / 2.0

    if p[-1] > 1.0 - TOL_PURE:  # pure input: cross-check against 4 * Cov_sym
        psi = PureState(dim=rho.shape[0], amplitudes=V[:, -1])
        F_cov = 4.0 * symmetrized_covariance(psi, gens)
        if not np.abs(F - F_cov).max() <= TOL_SELF * max(1.0, np.abs(F).max()):
            raise SelfCheckFailed("spectral QFIM of a pure state differs from 4 Cov_sym")
    return F


def qfim_pure(state: PureState, gens: GeneratorSet) -> np.ndarray:
    """QFIM of a pure state, via the 4 * Cov_sym identity."""
    return 4.0 * symmetrized_covariance(state, gens)


def rf_ratio(F_psi, F_phi) -> RfResult:
    """sup { r : F_psi - r F_phi is positive semidefinite }.

    Both matrices must be square, of one shape m x m with m >= 1, finite and
    symmetric to within TOL_HERM times the larger of their largest entries
    and 1; otherwise this raises DimensionMismatch or DomainError.

    Positive definite F_phi admits the closed form: the minimum eigenvalue of
    F_phi^{-1/2} F_psi F_phi^{-1/2}. A singular F_phi is handled by bisection
    on r with the TOL_PENCIL PSD test (the Schur-complement infimum on range(F_phi));
    F_phi = 0 gives +inf.

    The bisection keeps psd(lo) true and psd(hi) false. It stops once the
    midpoint of [lo, hi] is not strictly between them, which is when lo and
    hi are adjacent doubles (about 55 halvings), or after 200 halvings,
    which still decides an r_f below 2^-200. A further halving would round
    the midpoint to lo or hi and, psd being deterministic, leave both bounds
    unchanged, so the result is bit for bit that of running all 200.
    """
    F_psi = np.asarray(F_psi, dtype=float)
    F_phi = np.asarray(F_phi, dtype=float)
    if F_psi.shape != F_phi.shape or F_psi.ndim != 2 or F_psi.shape[0] != F_psi.shape[1]:
        raise DimensionMismatch(
            f"QFIMs must be square, of one shape: {F_psi.shape} vs {F_phi.shape}"
        )
    if F_psi.size == 0:
        raise DimensionMismatch("QFIMs are 0 x 0: the pencil has no direction")
    if not (np.isfinite(F_psi).all() and np.isfinite(F_phi).all()):
        raise DomainError("QFIM has a non-finite entry")
    scale = max(np.abs(F_phi).max(), np.abs(F_psi).max(), 1.0)
    for name, F in (("F_psi", F_psi), ("F_phi", F_phi)):
        dev = np.abs(F - F.T).max()
        if not dev <= TOL_HERM * scale:
            raise DomainError(f"{name} deviates from symmetric by {dev:.3e}")
    if np.abs(F_phi).max() <= TOL_PENCIL:
        return RfResult(r_f=math.inf, direction=None, method="closed_form")

    w, V = np.linalg.eigh(F_phi)
    if w[0] > TOL_PENCIL * scale:
        inv_sqrt = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
        pencil = inv_sqrt @ F_psi @ inv_sqrt
        vals, vecs = np.linalg.eigh(pencil)
        r_f = max(float(vals[0]), 0.0)
        direction = inv_sqrt @ vecs[:, 0]
        direction = direction / np.linalg.norm(direction)
        return RfResult(r_f=r_f, direction=direction, method="closed_form")

    def psd(r: float) -> bool:
        return float(np.linalg.eigvalsh(F_psi - r * F_phi)[0]) >= -TOL_PENCIL * scale * max(1.0, r)

    if not psd(0.0):
        return RfResult(r_f=0.0, direction=_pencil_direction(F_psi, F_phi, 0.0), method="bisection")
    hi = 1.0
    while psd(hi):
        hi *= 2.0
        if hi > 1e15:
            return RfResult(r_f=math.inf, direction=None, method="bisection")
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if psd(mid):
            lo = mid
        else:
            hi = mid
    r_f = lo
    return RfResult(r_f=r_f, direction=_pencil_direction(F_psi, F_phi, r_f), method="bisection")


def _pencil_direction(F_psi: np.ndarray, F_phi: np.ndarray, r_f: float) -> np.ndarray:
    """Direction achieving the pencil minimum at the boundary rate r_f.

    Among the near-null directions of F_psi - r_f F_phi, prefer one with
    nonzero F_phi weight so the quotient is well-defined.
    """
    vals, vecs = np.linalg.eigh(F_psi - r_f * F_phi)
    for idx in np.argsort(vals):
        v = vecs[:, idx]
        if float(v @ F_phi @ v) > TOL_DIRECTION * max(np.abs(F_phi).max(), 1.0):
            return v
    return vecs[:, int(np.argmin(vals))]


def g_function(x: float) -> float:
    """x^{x/(1-x)} - x^{1/(1-x)} on [0, 1), with the limit value 1 at x = 0."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"g is defined on [0, 1), got {x}")
    if x == 0.0:
        return 1.0
    lx = math.log(x)
    return math.exp(x * lx / (1.0 - x)) - math.exp(lx / (1.0 - x))


def converse_certificate(F_psi, F_phi, r: float, delta: float):
    """Impossibility certificate for conversion at rate r with error delta.

    When r exceeds the pencil ratio, picks the pencil-minimizing direction,
    forms T = (v F_psi v) / (r v F_phi v) in [0, 1), and certifies
    impossibility iff g(T) strictly exceeds 4 sqrt(delta). Returns
    (impossible, witness_direction, T).
    """
    return _certificate(rf_ratio(F_psi, F_phi), F_psi, F_phi, r, delta)


def _certificate(rf: RfResult, F_psi, F_phi, r: float, delta: float):
    """`converse_certificate` from rf, the `rf_ratio` of (F_psi, F_phi)."""
    if not 0 < r < math.inf:
        raise DomainError(f"rate must be positive and finite, got {r}")
    if not 0 <= delta < math.inf:
        raise DomainError(f"error must be nonnegative and finite, got {delta}")
    if not rf.r_f < r or rf.direction is None:
        return False, None, None
    v = rf.direction
    F_psi = np.asarray(F_psi, dtype=float)
    F_phi = np.asarray(F_phi, dtype=float)
    num = float(v @ F_psi @ v)
    den = float(r * (v @ F_phi @ v))
    T = min(max(num / den, 0.0), 1.0 - TOL_CLIP_T)
    impossible = g_function(T) > 4.0 * math.sqrt(delta)
    return impossible, v, T


def clt_diagnostic(state: PureState, gens: GeneratorSet, theta_grid) -> float:
    """Max deviation of log chi from its second-order (mean, QFIM) model.

    For each small parameter vector, compares log <psi|exp(-i theta.X)|psi>
    against -i theta.<X> - theta^T F theta / 8; the residual is third order
    in |theta|.
    """
    psi = state.amplitudes
    means = np.array([np.real(psi.conj() @ (X @ psi)) for X in gens.generators])
    F = qfim_pure(state, gens)
    worst = 0.0
    for theta in theta_grid:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (gens.m,):
            raise DimensionMismatch(
                f"theta has shape {theta.shape}, expected ({gens.m},)"
            )
        Y = np.tensordot(theta, gens.generators, axes=1)
        w, V = np.linalg.eigh(Y)
        U = (V * np.exp(-1j * w)) @ V.conj().T
        chi = complex(psi.conj() @ (U @ psi))
        lhs = np.log(chi)
        model = -1j * float(theta @ means) - float(theta @ F @ theta) / 8.0
        worst = max(worst, abs(lhs - model))
    return worst
