"""Lie-group side: SLD quantum Fisher information matrices from Hermitian
generators, the matrix-pencil ratio r_F, the impossibility certificate for
approximate conversion, and the second-order expansion diagnostic. The
certificate's domain is checked once, by `_certificate_domain`, for
`converse_certificate` and `asym rf` alike, before any eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotAState, SelfCheckFailed
from .groups import PureState, as_index, as_real
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
        object.__setattr__(self, "dim", as_index(self.dim, "dim"))
        gens = np.array(self.generators, dtype=complex)  # a copy: made read-only below
        if gens.ndim != 3 or gens.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"expected (m, {self.dim}, {self.dim}) generators, got {gens.shape}"
            )
        if not np.isfinite(gens).all():
            raise DomainError("generators have a non-finite entry")
        dev = np.abs(gens - gens.conj().transpose(0, 2, 1)).max() if gens.size else 0.0
        if not dev <= TOL_HERM:
            raise DomainError(f"generators deviate from Hermitian by {dev:.3e}")
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def m(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True, eq=False)
class RfResult:
    r_f: float  # may be math.inf
    direction: np.ndarray | None  # pencil minimizer when r_f is finite
    method: str  # 'closed_form' or 'bisection'


def _density_spectrum(rho) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a density matrix: NotAState unless it is square, finite,
    Hermitian, of unit trace and has no eigenvalue below -TOL_DENSITY."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotAState(f"density matrix must be square, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise NotAState("density matrix has a non-finite entry")
    if not np.abs(rho - rho.conj().T).max() <= TOL_HERM:
        raise NotAState("density matrix is not Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= TOL_DENSITY:
        raise NotAState(f"trace is {complex(np.trace(rho))}")
    p, V = np.linalg.eigh(rho)
    if p[0] < -TOL_DENSITY:
        raise NotAState("density matrix has a negative eigenvalue")
    return p, V


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
    support cutoff TOL_SUPP of 2 (p_k - p_l)^2 / (p_k + p_l) Re <k|X_i|l><l|X_j|k>,
    symmetrized. Such a term has k or l in the support S = {k : p_k >
    TOL_SUPP/2}, so <k|X_i|l> is formed for k in S only, and each term with
    l outside S counts twice, for its mirror (l, k), whose real part is the
    same. Cost: one `eigh` of rho, then O(m r d^2) for the m generators, with
    r = |S| the rank of rho (r = 1 for a pure state). For (numerically) pure
    inputs the pure-state identity F = 4 Cov_sym is re-checked; a mismatch
    raises SelfCheckFailed.
    """
    p, V = _density_spectrum(rho)
    if p.size != gens.dim:
        raise DimensionMismatch(f"rho dim {p.size} != generator dim {gens.dim}")
    p = np.clip(p, 0.0, None)  # ascending, so S is the tail p[s:]
    s = int(np.searchsorted(p, TOL_SUPP / 2.0, side="right"))
    A = V[:, s:].conj().T @ gens.generators @ V  # (m, r, d): <k|X_i|l>, k in S
    denom = p[s:, None] + p  # > TOL_SUPP/2 > 0
    W = np.where(denom > TOL_SUPP, 2.0 * (p[s:, None] - p) ** 2 / denom, 0.0)
    W[:, :s] *= 2.0  # the mirror term (l, k) of each l outside S
    n = 2 * W.size  # Re and Im of each <k|X_i|l>: F = Re sum_kl W A_i conj(A_j), one real matmul
    F = (A * W).view(float).reshape(-1, n) @ A.view(float).reshape(-1, n).T
    F = (F + F.T) / 2.0

    if p[-1] > 1.0 - TOL_PURE:  # pure input: cross-check against 4 * Cov_sym
        psi = PureState(dim=p.size, amplitudes=V[:, -1])
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
    as_real(x, "x", 0, 1)
    if x == 0.0:
        return 1.0
    lx = math.log(x)
    return math.exp(x * lx / (1.0 - x)) - math.exp(lx / (1.0 - x))


def converse_certificate(F_psi, F_phi, r: float, delta: float):
    """Impossibility certificate for conversion at rate r with error delta.

    When r exceeds the pencil ratio, picks the pencil-minimizing direction,
    forms T = (v F_psi v) / (r v F_phi v) in [0, 1), and certifies
    impossibility iff g(T) strictly exceeds 4 sqrt(delta). Returns
    (impossible, witness_direction, T); r and delta are checked first."""
    _certificate_domain(delta, r)
    return _certificate(rf_ratio(F_psi, F_phi), F_psi, F_phi, r, delta)


def _certificate(rf: RfResult, F_psi, F_phi, r: float, delta: float):
    """`converse_certificate` from rf, the `rf_ratio` of (F_psi, F_phi), past its checks."""
    if not rf.r_f < r or rf.direction is None:
        return False, None, None
    v = rf.direction
    num, den = (float(v @ np.asarray(F, dtype=float) @ v) for F in (F_psi, F_phi))
    T = min(max(num / (r * den), 0.0), 1.0 - TOL_CLIP_T)
    impossible = g_function(T) > 4.0 * math.sqrt(delta)
    return impossible, v, T


def _certificate_domain(delta: float, *rates: float) -> None:
    """DomainError unless each rate is in (0, inf) and the error delta in [0, inf)."""
    for r in rates:
        as_real(r, "rate", 0, math.inf, "()")
    as_real(delta, "error", 0, math.inf)


def clt_diagnostic(state: PureState, gens: GeneratorSet, theta_grid) -> float:
    """Max deviation of log chi from its second-order (mean, QFIM) model.

    For each small parameter vector, compares log <psi|exp(-i theta.X)|psi>
    against -i theta.<X> - theta^T F theta / 8; the residual is third order
    in |theta|. One batched `eigh` of theta.X over the whole grid gives
    chi = sum_j |<v_j|psi>|^2 exp(-i w_j) row by row. DimensionMismatch
    unless the grid is K vectors of m entries, DomainError for a non-finite
    entry; 0.0 for an empty grid.
    """
    try:
        thetas = np.asarray(theta_grid, dtype=float)
    except ValueError as exc:  # a ragged grid
        raise DimensionMismatch(f"theta grid is not K vectors of {gens.m} numbers: {exc}") from None
    if thetas.shape[:1] == (0,):
        return 0.0
    if thetas.ndim != 2 or thetas.shape[1] != gens.m:
        raise DimensionMismatch(f"theta grid has shape {thetas.shape}, expected (K, {gens.m})")
    if not np.isfinite(thetas).all():
        raise DomainError("theta grid has a non-finite entry")
    psi = state.amplitudes
    means = (psi.conj() @ gens.generators @ psi).real
    F = qfim_pure(state, gens)
    w, V = np.linalg.eigh(np.tensordot(thetas, gens.generators, axes=1))
    amp = psi.conj() @ V  # <psi|v_j>, one row per theta
    chi = ((amp.real**2 + amp.imag**2) * np.exp(-1j * w)).sum(axis=-1)
    model = -1j * (thetas @ means) - np.einsum("ki,ij,kj->k", thetas, F, thetas) / 8.0
    return float(np.abs(np.log(chi) - model).max())
