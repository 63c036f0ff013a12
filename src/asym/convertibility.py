"""Single-shot exact convertibility oracle via positive definite interpolators.

A conversion psi -> phi under G-covariant operations is possible iff
chi_psi = chi_phi * f for some positive definite f on G; the candidate f is
the ratio of characteristic functions (zero where chi_phi vanishes), built by
`interpolate` for this Gram view and the abelian Fourier view alike, and
positive definiteness is decided by the minimum eigenvalue of the Gram
matrix M[g, h] = f(g^-1 h). Where chi_phi vanishes and chi_psi does not, no
f exists: that is an infeasible verdict with the element as its witness,
not an error. `_first_failure` states the rule once (no such element, and a
minimum Gram eigenvalue >= -TOL_PSD * |G|) for `is_positive_definite`, the
copy-number scan and the Fourier view. The zero sets are cut at TOL_ZERO
(`charfn.zero_mask`).

M is a convolution operator, M = sum_k f(k) R(k) over the right translations
R(k), so its spectrum is the union of the spectra of the Fourier blocks
f^(rho) = sum_k f(k) rho(k), one d_rho x d_rho block per irrep rho. The
oracle never forms M: it reads the blocks off the group's cached irrep basis
(`FiniteGroup.irreps`; the characters, 1 x 1 blocks, for an abelian group)
and takes the minimum eigenvalue of each block: the block itself for d = 1,
a closed form for d = 2 (the dihedral groups, S_3, Q_8), and one batched
`eigvalsh` per irrep dimension above 2.
Cost: a one-off O(n^3) decomposition per group object, then O(n * sum d^2)
= O(n^2) per copy number, against O(n^3) for a dense eigendecomposition of M.

`interpolate` and `gram_min_eigenvalues` work on rows of copy numbers;
`feasible_exact` and `is_positive_definite` are their single-row case, and
`minimal_copies_search` decides a block of copy numbers per pass: one
interpolation, one matmul against the irrep basis and the block spectra,
with as many rows per block as fit in
`groups._CHUNK_BYTES` (64 rows at n = 256). The search costs O(n_max * n^2)
time; its memory beyond the irrep basis is a few blocks, whatever n_max is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .charfn import CharFunction, check_same_group, copy_numbers, zero_mask
from .errors import DomainError, NotHermitian
from .groups import FiniteGroup, _block_rows
from .tolerances import TOL_FLOOR, TOL_HERM, TOL_PSD

MAX_SEARCH_COPIES = 10**4  # largest n_max of `minimal_copies_search`


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    min_gram_eigenvalue: float
    f: np.ndarray  # (n,) the interpolator, values on G
    modulus_witness: int | None = None  # smallest g with |f(g)| > 1, if any
    zero_set_witness: int | None = None  # smallest g with chi_phi^M(g) = 0 != chi_psi^N(g)


def interpolate(
    psi_logmod: np.ndarray,
    psi_phase: np.ndarray,
    phi_logmod: np.ndarray,
    phi_phase: np.ndarray,
    N: int | np.ndarray,
    M: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """f = chi_psi^N / chi_phi^M from log-polar chi, 0 on the chi_phi zero set.

    N and M are copy numbers: two ints, or K each (any shape with K entries)
    for K rows at once. Returns the (K, n) values and, per row, the first
    index where chi_phi^M vanishes but chi_psi^N does not, or -1. Zero sets
    are classified once, on the single-copy functions (chi^N vanishes exactly
    where chi does); M = 0 is the trivial target, identically 1. DomainError
    for N < 1, M < 0 or a copy number above MAX_COPIES. Shared by
    the Gram view (chi on G) and the Fourier view (dual coefficients).
    """
    N, M = (np.reshape(copy_numbers(x, low), (-1, 1)) for x, low in ((N, 1), (M, 0)))
    psi_zero = zero_mask(psi_logmod)
    phi_zero = zero_mask(phi_logmod)
    bad = np.flatnonzero(phi_zero & ~psi_zero)
    violation = np.where(M[:, 0] > 0, bad[0] if bad.size else -1, -1)
    target = M * np.where(phi_zero, 0.0, phi_logmod)  # log|chi_phi^M|, no 0 * -inf
    phi_zero = phi_zero & (M > 0)  # phi^0 is the trivial state: no zeros
    with np.errstate(invalid="ignore", under="ignore", over="ignore"):
        logmod = N * psi_logmod
        # cap the log-ratio so a grossly infeasible instance yields a huge
        # finite |f| (clearly failing the Gram test) instead of overflow
        dlog = np.minimum(logmod - target, 350.0)
        vals = np.exp(dlog + 1j * (N * psi_phase - M * phi_phase))
    vals[phi_zero | np.isneginf(logmod)] = 0.0
    return vals, violation


def gram_min_eigenvalues(group: FiniteGroup, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum eigenvalue of M[g, h] = f(g^-1 h) for each row f of values (K, n).

    Returns the K minimum eigenvalues, NaN where M is not Hermitian, and the
    K Hermitian deviations. M is Hermitian iff f(g^-1) = conj f(g): the
    entries of M - M^+ are exactly these n differences, which must stay within
    TOL_HERM * max(1, max |f|); a row that is not finite fails. The spectrum
    comes from one matmul against the irrep basis and `_block_min_eig` per
    irrep dimension d: a 1 x 1 block (a character) is its own eigenvalue, the
    real part of the Hermitian row's block; a 2 x 2 block's minimum is taken
    in closed form; above 2, one batched `eigvalsh` per dimension.
    """
    with np.errstate(invalid="ignore"):
        herm_dev = np.abs(values - values[:, group.inv].conj()).max(axis=1)
        hermitian = herm_dev <= TOL_HERM * np.maximum(1.0, np.abs(values).max(axis=1))
    min_eig = np.full(len(values), np.nan)
    blocks = group.irreps.fourier_blocks(values[hermitian])
    min_eig[hermitian] = np.min([_block_min_eig(B).min(axis=-1) for B in blocks], axis=0)
    return min_eig, herm_dev


def _block_min_eig(B: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of the Hermitian part (B + B^+)/2 of each d x d block B (..., d, d).

    d = 1: the real part. d = 2: the closed form (a + c)/2 - hypot((a - c)/2, |b|),
    with a, c the real parts of the diagonal and b = (B01 + conj B10)/2, with
    no LAPACK call. d > 2: one batched `eigvalsh`.
    """
    d = B.shape[-1]
    if d == 1:
        return B[..., 0, 0].real
    if d == 2:
        a, c = B[..., 0, 0].real, B[..., 1, 1].real
        b = (B[..., 0, 1] + B[..., 1, 0].conj()) / 2.0
        return (a + c) / 2.0 - np.hypot((a - c) / 2.0, np.abs(b))
    return np.linalg.eigvalsh((B + B.conj().swapaxes(-1, -2)) / 2.0)[..., 0]


def _first_failure(min_eig: np.ndarray, violation, order: int, herm_dev) -> int:
    """The feasibility rule over rows in scan order: the first row it rejects, or -1.

    A row is feasible iff it has no zero-set violation (violation < 0, one
    value or one per row) and its minimum Gram eigenvalue is
    >= -TOL_PSD * order. The first rejected row raises NotHermitian
    instead when its Gram matrix is not Hermitian (min_eig NaN, deviation
    herm_dev), whatever its zero set.
    """
    fails = np.flatnonzero((violation >= 0) | ~(min_eig >= -TOL_PSD * order))
    if not fails.size:
        return -1
    i = fails[0]
    if np.isnan(min_eig[i]):
        raise NotHermitian(f"Gram matrix deviates from Hermitian by {herm_dev[i]:.3e}")
    return int(i)


def is_positive_definite(group: FiniteGroup, values: np.ndarray) -> FeasibilityResult:
    """Gram-matrix positive semidefiniteness test for the function f = values (n,) on G.

    Reports feasible iff the minimum eigenvalue of M[g, h] = f(g^-1 h) is
    >= -TOL_PSD * |G|, computed block by block from the Fourier transform of
    f. M is Hermitian iff f(g^-1) = conj f(g); a function that is not (or is
    not finite) cannot be positive definite and is reported as an error.
    """
    min_eig, herm_dev = gram_min_eigenvalues(group, values[None])
    over = np.flatnonzero(np.abs(values) > 1.0 + TOL_PSD)
    return FeasibilityResult(
        feasible=_first_failure(min_eig, -1, group.order, herm_dev) < 0,
        min_gram_eigenvalue=float(min_eig[0]),
        f=values,
        modulus_witness=int(over[0]) if over.size else None,
    )


def feasible_exact(
    char_psi: CharFunction, char_phi: CharFunction, N: int, M: int
) -> FeasibilityResult:
    """Feasibility of psi^N -> phi^M under G-covariant operations.

    The interpolator of `interpolate` goes to the Gram test. Where chi_phi^M
    vanishes and chi_psi^N does not, the answer is infeasible, with the
    smallest such element as `zero_set_witness`. M = 0 is accepted as the
    trivial (symmetric) target, which is always reachable. NotHermitian if
    the interpolator's Gram matrix is not Hermitian.
    """
    check_same_group(char_psi, char_phi)
    (vals,), (bad,) = interpolate(
        char_psi.logmod, char_psi.phase, char_phi.logmod, char_phi.phase, N, M
    )
    res = is_positive_definite(char_psi.group, vals)
    return res if bad < 0 else replace(res, feasible=False, zero_set_witness=int(bad))


def minimal_copies_search(
    char_psi: CharFunction,
    char_phi: CharFunction,
    r: float,
    n_max: int,
) -> int | None:
    """Smallest N <= n_max from which psi^N -> phi^{floor(rN)} stays feasible.

    Persistence is required: every N' in [N, n_max] must pass the oracle.
    Returns None when no such N exists (in particular whenever r exceeds the
    optimal exact rate and the witness inequality eventually fails).

    The scan runs from n_max down, a block of copy numbers at a time, and
    stops at the first N that `feasible_exact` would reject, or would raise
    NotHermitian for.
    """
    if not (math.isfinite(r) and r >= 0):
        raise DomainError(f"rate must be a finite number >= 0, got {r}")
    if not 1 <= n_max <= MAX_SEARCH_COPIES:
        raise DomainError(f"n_max must be in [1, {MAX_SEARCH_COPIES}], got {n_max}")
    check_same_group(char_psi, char_phi)
    group = char_psi.group
    rows = _block_rows(group.order * np.dtype(complex).itemsize)
    first = None
    for top in range(n_max, 0, -rows):
        N = np.arange(top, max(top - rows, 0), -1)
        M = np.floor(r * N + TOL_FLOOR)
        vals, violation = interpolate(
            char_psi.logmod, char_psi.phase, char_phi.logmod, char_phi.phase, N, M
        )
        min_eig, herm_dev = gram_min_eigenvalues(group, vals)
        i = _first_failure(min_eig, violation, group.order, herm_dev)
        if i >= 0:
            return int(N[i - 1]) if i else first
        first = int(N[-1])
    return first
