"""Single-shot exact convertibility oracle via positive definite interpolators.

A conversion psi -> phi under G-covariant operations is possible iff
chi_psi = chi_phi * f for some positive definite f on G; the candidate f is
the ratio of characteristic functions (zero where chi_phi vanishes), built by
`interpolate` for this Gram view and the abelian Fourier view alike, and
positive definiteness is decided by the minimum eigenvalue of the Gram
matrix M[g, h] = f(g^-1 h).

M is a convolution operator, M = sum_k f(k) R(k) over the right translations
R(k), so its spectrum is the union of the spectra of the Fourier blocks
f^(rho) = sum_k f(k) rho(k), one d_rho x d_rho block per irrep rho. The
oracle never forms M: it reads the blocks off the group's cached irrep basis
(`FiniteGroup.irreps`; the characters, 1 x 1 blocks, for an abelian group)
and takes one batched `eigvalsh` per irrep dimension.
Cost: a one-off O(n^3) decomposition per group object, then O(n * sum d^2)
= O(n^2) per call, against O(n^3) for a dense eigendecomposition of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, check_same_group, wrap_phase, zero_mask
from .errors import DomainError, NotHermitian, ZeroSetViolation
from .groups import FiniteGroup
from .tolerances import DEFAULT, TOL_HERM, Tolerances


@dataclass(frozen=True, eq=False)
class GroupFunction:
    group: FiniteGroup
    values: np.ndarray  # (n,) complex


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    min_gram_eigenvalue: float
    f: GroupFunction
    method: str  # 'gram': the verdict reads the Gram spectrum
    modulus_witness: int | None = None  # smallest g with |f(g)| > 1, if any


def interpolate(
    psi_logmod: np.ndarray,
    psi_phase: np.ndarray,
    phi_logmod: np.ndarray,
    phi_phase: np.ndarray,
    N: int,
    M: int,
    tol: Tolerances = DEFAULT,
) -> tuple[np.ndarray, int | None]:
    """f = chi_psi^N / chi_phi^M from log-polar chi, 0 on the chi_phi zero set.

    Returns the values and the first index where chi_phi vanishes but chi_psi
    does not, or None. Zero sets are classified on the single-copy functions
    (chi^N vanishes exactly where chi does); M = 0 is the trivial target,
    identically 1. Shared by the Gram view (chi on G) and the Fourier view
    (dual coefficients).
    """
    if N < 1 or M < 0:
        raise DomainError(f"copy numbers must be N >= 1 and M >= 0, got ({N}, {M})")
    psi_zero = zero_mask(psi_logmod, tol)
    phi_zero = zero_mask(phi_logmod, tol)
    target = M * np.where(phi_zero, 0.0, phi_logmod)  # log|chi_phi^M|, no 0 * -inf
    phi_zero &= M > 0  # phi^0 is the trivial state: no zeros
    bad = np.flatnonzero(phi_zero & ~psi_zero)
    with np.errstate(invalid="ignore", under="ignore", over="ignore"):
        logmod = N * psi_logmod
        # cap the log-ratio so a grossly infeasible instance yields a huge
        # finite |f| (clearly failing the Gram test) instead of overflow
        dlog = np.minimum(logmod - target, 350.0)
        vals = np.exp(dlog + 1j * (wrap_phase(N * psi_phase) - wrap_phase(M * phi_phase)))
    vals[phi_zero | np.isneginf(logmod)] = 0.0
    return vals, int(bad[0]) if bad.size else None


def _interpolator(
    char_psi: CharFunction, char_phi: CharFunction, N: int, M: int, tol: Tolerances
) -> GroupFunction:
    """`interpolate` on one group; ZeroSetViolation if no interpolator exists."""
    check_same_group(char_psi, char_phi)
    vals, bad = interpolate(
        char_psi.logmod, char_psi.phase, char_phi.logmod, char_phi.phase, N, M, tol
    )
    if bad is not None:
        raise ZeroSetViolation(bad)
    return GroupFunction(group=char_psi.group, values=vals)


def build_interpolator(
    char_psi: CharFunction, char_phi: CharFunction, tol: Tolerances = DEFAULT
) -> GroupFunction:
    """f = chi_psi / chi_phi off the phi zero set, 0 on it.

    Raises ZeroSetViolation when chi_phi vanishes somewhere chi_psi does not;
    no interpolating function can exist there and the conversion rate is zero.
    """
    return _interpolator(char_psi, char_phi, 1, 1, tol)


def is_positive_definite(f: GroupFunction, tol: Tolerances = DEFAULT) -> FeasibilityResult:
    """Gram-matrix positive semidefiniteness test for a function on G.

    Reports feasible iff the minimum eigenvalue of M[g, h] = f(g^-1 h) is
    >= -tol.tol_psd * |G|, computed block by block from the Fourier transform of
    f. M is Hermitian iff f(g^-1) = conj f(g); a function that is not (or is
    not finite) cannot be positive definite and is reported as an error.
    """
    group = f.group
    n = group.order
    vals = f.values
    # the entries of M - M^+ are exactly these n differences (NaN if f is not finite)
    with np.errstate(invalid="ignore"):
        herm_dev = float(np.abs(vals - vals[group.inv].conj()).max())
    scale = max(1.0, float(np.abs(vals).max()))
    if not herm_dev <= TOL_HERM * scale:
        raise NotHermitian(f"Gram matrix deviates from Hermitian by {herm_dev:.3e}")
    min_eig = min(
        float(np.linalg.eigvalsh((B + B.conj().swapaxes(1, 2)) / 2.0)[:, 0].min())
        for B in group.irreps.fourier_blocks(vals)
    )
    over = np.where(np.abs(vals) > 1.0 + tol.tol_psd)[0]
    return FeasibilityResult(
        feasible=min_eig >= -tol.tol_psd * n,
        min_gram_eigenvalue=min_eig,
        f=f,
        method="gram",
        modulus_witness=int(over[0]) if over.size else None,
    )


def feasible_exact(
    char_psi: CharFunction,
    char_phi: CharFunction,
    N: int,
    M: int,
    tol: Tolerances = DEFAULT,
) -> FeasibilityResult:
    """Feasibility of psi^N -> phi^M under G-covariant operations.

    M = 0 is accepted as the trivial (symmetric) target, which is always
    reachable; the interpolator of `interpolate` goes to the Gram test.
    """
    return is_positive_definite(_interpolator(char_psi, char_phi, N, M, tol), tol)


def minimal_copies_search(
    char_psi: CharFunction,
    char_phi: CharFunction,
    r: float,
    n_max: int,
    tol: Tolerances = DEFAULT,
) -> int | None:
    """Smallest N <= n_max from which psi^N -> phi^{floor(rN)} stays feasible.

    Persistence is required: every N' in [N, n_max] must pass the oracle.
    Returns None when no such N exists (in particular whenever r exceeds the
    optimal exact rate and the witness inequality eventually fails).
    """
    if not math.isfinite(r):
        raise DomainError(f"rate must be finite, got {r}")
    if n_max < 1 or n_max > 10**4:
        raise ValueError(f"n_max must be in [1, 10^4], got {n_max}")
    first = None
    for N in range(n_max, 0, -1):
        M = math.floor(r * N + 1e-12)
        try:
            ok = feasible_exact(char_psi, char_phi, N, M, tol).feasible
        except ZeroSetViolation:
            ok = False
        if not ok:
            break
        first = N
    return first
