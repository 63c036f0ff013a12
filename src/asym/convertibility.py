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
(`charfn.zero_mask`), once per characteristic function (`CharFunction.zero`).
The Gram test is the criterion on a linear rep only (on a projective one
the kernel carries omega^(N-M)), so `feasible_exact` and
`minimal_copies_search` raise DomainError unless `CharFunction.linear`
holds for both. `interpolate` makes f Hermitian bit for bit in both views,
over the inverse map of G or of the charge labels; only
`is_positive_definite` checks the Hermiticity of values a caller passes.

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
`minimal_copies_search` decides a block of copy numbers per pass, with as
many rows per block as fit in `groups._CHUNK_BYTES` (64 rows at n = 256).
It first settles what it can from m = |f| alone (`_settle`): the Gram
matrix has a unit diagonal and off-diagonal row moduli summing to
sum_{g != e} m(g), whatever the irreps, so a sum <= 1 is feasible by
Gershgorin; a zero-set violation, or max m above 1 by a margin, is
infeasible by a 2 x 2 principal minor. Only the unsettled rows before a
block's first row settled infeasible go through the interpolation, the
matmul against the irrep basis and the block spectra. The search costs O(n)
real work per settled row and O(n^2) per unsettled one, so O(n_max * n^2)
at worst; its memory beyond the irrep basis is a few blocks, whatever n_max
is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, check_same_group, copy_numbers, make_hermitian
from .errors import DomainError, NotHermitian
from .groups import FiniteGroup, _block_rows
from .tolerances import TOL_FLOOR, TOL_HERM, TOL_PSD

MAX_SEARCH_COPIES = 10**4  # largest n_max of `minimal_copies_search`
_LOG_TINY = math.log(np.finfo(float).tiny)  # below it |f| would be subnormal: f is 0 there


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    min_gram_eigenvalue: float
    f: np.ndarray  # (n,) the interpolator, values on G
    modulus_witness: int | None = None  # smallest k != e that `_minor_fails` at, if any
    zero_set_witness: int | None = None  # smallest g with chi_phi^M(g) = 0 != chi_psi^N(g)


def _log_ratio(psi, phi, N: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|f| of f = chi_psi^N / chi_phi^M for rows of copy numbers N, M (K, 1).

    psi and phi are (logmod, phase, zero mask) triples. The log-ratio is
    capped at 350, so a grossly infeasible instance yields a huge finite |f|
    (clearly failing the Gram test) instead of overflow, and it is -inf
    exactly where f is 0: on the chi_phi zero set when M > 0 (phi^0 is the
    trivial state: no zeros), where chi_psi^N is an exact 0, and where |f|
    would be subnormal (numpy's complex exp is several times slower there;
    no cut comes near it). Returns the (K, n) log-ratios and, per row, the
    first index where chi_phi^M vanishes but chi_psi^N does not, or -1.
    """
    psi_logmod, _, psi_zero = psi
    phi_logmod, _, phi_zero = phi
    bad = np.flatnonzero(phi_zero & ~psi_zero)
    violation = np.where(M[:, 0] > 0, bad[0] if bad.size else -1, -1)
    target = M * np.where(phi_zero, 0.0, phi_logmod)  # log|chi_phi^M|, no 0 * -inf
    with np.errstate(invalid="ignore", over="ignore"):
        logmod = N * psi_logmod
        dlog = np.minimum(logmod - target, 350.0)
    dlog[(phi_zero & (M > 0)) | np.isneginf(logmod) | (dlog < _LOG_TINY)] = -np.inf
    return dlog, violation


def interpolate(
    psi, phi, N: int | np.ndarray, M: int | np.ndarray, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """f = chi_psi^N / chi_phi^M from log-polar chi, 0 on the chi_phi zero set.

    psi and phi are (logmod, phase, zero mask) triples: a CharFunction's
    `logmod`, `phase` and `zero`, or `ChargeDistribution.polar`. inv (n,) is
    the inverse map: `group.inv` in the Gram view, the negated charge label in
    the Fourier view. N and M are copy numbers: two ints, or K each (any
    shape with K entries) for K rows at once. Returns the (K, n) values,
    Hermitian bit for bit (`_values`), and, per row, the first index where
    chi_phi^M vanishes but chi_psi^N does not, or -1. Zero sets are
    classified once, on the single-copy functions (chi^N vanishes exactly
    where chi does); M = 0 is the trivial target, identically 1. DomainError
    for N < 1, M < 0 or a copy number above MAX_COPIES.
    """
    N, M = (np.reshape(copy_numbers(x, low), (-1, 1)) for x, low in ((N, 1), (M, 0)))
    dlog, violation = _log_ratio(psi, phi, N, M)
    return _values(dlog, psi, phi, N, M, inv), violation


def _values(dlog: np.ndarray, psi, phi, N: np.ndarray, M: np.ndarray, inv) -> np.ndarray:
    """f = exp(dlog + i (N phase_psi - M phase_phi)) (K, n), exactly 0 where
    dlog is -inf, made Hermitian by `charfn.make_hermitian`. On e and the
    involutions chi is real, so f takes the sign (-1)^(N [chi_psi < 0] +
    M [chi_phi < 0]) from the parities of N and M, not exp(i M pi)."""
    own = inv == np.arange(inv.size)
    theta = N * psi[1] - M * phi[1]
    odd = N % 2 * (np.abs(psi[1][own]) > np.pi / 2) + M % 2 * (np.abs(phi[1][own]) > np.pi / 2)
    theta[:, own] = np.pi * (odd % 2)
    with np.errstate(invalid="ignore", under="ignore"):
        vals = np.exp(dlog + 1j * theta)
    vals[np.isneginf(dlog)] = 0.0
    return make_hermitian(vals, inv)


def gram_min_eigenvalues(group: FiniteGroup, values: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of M[g, h] = f(g^-1 h) for each row f of values (K, n).

    M is Hermitian iff f(g^-1) = conj f(g), as `interpolate` makes f and
    `is_positive_definite` checks it. The spectrum comes from one matmul
    against the irrep basis and `_block_min_eig` per irrep dimension d: a
    1 x 1 block (a character) is its own eigenvalue, the real part of the
    Hermitian row's block; a 2 x 2 block's minimum is taken in closed form;
    above 2, one batched `eigvalsh` per dimension.
    """
    blocks = group.irreps.fourier_blocks(values)
    return np.min([_block_min_eig(B).min(axis=-1) for B in blocks], axis=0)


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


def _first_failure(min_eig: np.ndarray, violation, order: int) -> int:
    """The feasibility rule over rows in scan order: the first row it rejects, or -1.

    A row is feasible iff it has no zero-set violation (violation < 0, one
    value or one per row) and its minimum Gram eigenvalue is
    >= -TOL_PSD * order; a NaN minimum fails.
    """
    fails = np.flatnonzero((violation >= 0) | ~(min_eig >= -TOL_PSD * order))
    return int(fails[0]) if fails.size else -1


def is_positive_definite(group: FiniteGroup, values: np.ndarray) -> FeasibilityResult:
    """Gram-matrix positive semidefiniteness test for the function f = values (n,) on G.

    The Gram rule (`_verdict`) behind an input gate: M[g, h] = f(g^-1 h) is
    Hermitian iff f(g^-1) = conj f(g), and values that miss it by more than
    TOL_HERM * max(1, max |f|), or are not finite, raise NotHermitian.
    """
    dev = np.abs(values - values[group.inv].conj()).max() if np.isfinite(values).all() else np.nan
    if not dev <= TOL_HERM * max(1.0, np.abs(values).max()):
        raise NotHermitian(f"Gram matrix deviates from Hermitian by {dev:.3e}")
    return _verdict(group, values, -1)


def _verdict(group: FiniteGroup, values: np.ndarray, bad: int) -> FeasibilityResult:
    """The Gram rule on one Hermitian row f = values (n,) with zero-set
    violation bad (an element, or -1): feasible iff bad < 0 and the minimum
    eigenvalue of M[g, h] = f(g^-1 h), from its Fourier blocks, is
    >= -TOL_PSD * |G|; with the witnesses of the report."""
    min_eig = gram_min_eigenvalues(group, values[None])
    fails = _minor_fails(np.abs(values), values[group.identity].real, group.order)
    fails[group.identity] = False  # the minor takes k != e
    over = np.flatnonzero(fails)
    return FeasibilityResult(
        feasible=_first_failure(min_eig, bad, group.order) < 0,
        min_gram_eigenvalue=float(min_eig[0]),
        f=values,
        modulus_witness=int(over[0]) if over.size else None,
        zero_set_witness=int(bad) if bad >= 0 else None,
    )


def _minor_fails(m: np.ndarray, diag, n: int) -> np.ndarray:
    """Where m = |f(k)|, k != e, proves that the Gram test fails, with diag =
    Re f(e) and n = |G|: m (1 - TOL_PSD n) > diag + TOL_PSD n. The 2 x 2
    principal minor of M at rows (g, g k) then has an eigenvalue
    diag - m < -TOL_PSD n (1 + m), below the cut -TOL_PSD n by a margin that
    the computed minimum keeps (`_settle`)."""
    return m * (1.0 - TOL_PSD * n) > diag + TOL_PSD * n


def _require_linear(char_psi: CharFunction, char_phi: CharFunction) -> None:
    if not (char_psi.linear and char_phi.linear):
        raise DomainError(
            "the Gram test takes a linear rep (omega = 1); for a commuting projective rep, "
            "use `asym charges` and `asym convert-abelian`, which phase-gauge it"
        )


def feasible_exact(
    char_psi: CharFunction, char_phi: CharFunction, N: int, M: int
) -> FeasibilityResult:
    """Feasibility of psi^N -> phi^M under G-covariant operations.

    One row of the scan: the Hermitian interpolator of `interpolate` goes to
    the Gram rule (`_verdict`). Where chi_phi^M vanishes and chi_psi^N does
    not, the answer is infeasible, with the smallest such element as
    `zero_set_witness`. M = 0 is accepted as the trivial (symmetric) target,
    which is always reachable. DomainError unless both characteristic
    functions come from a linear rep (`CharFunction.linear`).
    """
    check_same_group(char_psi, char_phi)
    _require_linear(char_psi, char_phi)
    group = char_psi.group
    (vals,), (bad,) = interpolate(_polar(char_psi), _polar(char_phi), N, M, group.inv)
    return _verdict(group, vals, int(bad))


def _polar(char: CharFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return char.logmod, char.phase, char.zero


def _settle(group: FiniteGroup, dlog, violation) -> tuple[np.ndarray, np.ndarray]:
    """Rows of copy numbers that the Gram test would decide, decided from |f|.

    dlog and violation are `_log_ratio`'s for K rows, so m = |f| =
    exp(dlog), raised to e^-600 where it is smaller (or where `interpolate`
    zeroes f), and f(e) = 1 since chi(e) = 1. Returns two K-entry masks: the
    rows settled feasible and those settled infeasible; a row in neither
    needs the Gram spectrum.

    Row g of the Gram matrix M[g, h] = f(g^-1 h) holds f(e) = 1 on the
    diagonal and f(k), k != e, off it, so its off-diagonal moduli sum to
    S = sum_{k != e} m(k). M is Hermitian by construction (`interpolate`),
    and no irrep enters, so this holds for every group. With n = |G|:

    Feasible: no zero-set violation and S <= 1 (the floor only raises S). By
    Gershgorin every eigenvalue of M is >= 1 - S >= 0, and the computed
    minimum is off by rounding only, far less than TOL_PSD * n.

    Infeasible: a zero-set violation, or m(k) = max m with
    m(k) (1 - TOL_PSD n) > 1 + TOL_PSD n. The 2 x 2 principal submatrix of
    M at rows (g, g k) is [[1, b], [conj b, 1]] with b = f(k), |b| = m(k),
    so by interlacing lambda_min(M) <= 1 - m(k) < -TOL_PSD n - TOL_PSD n m(k).
    The computed minimum is below the cut -TOL_PSD n while its error is
    below TOL_PSD n max |f|, ten times the 1e-10 n to which the block spectra
    are tested against a dense eigendecomposition at |f| of order 1; the
    complex exp that gives f(k) moves |b| from m(k) by a few units of
    roundoff, relative, far inside that margin. Cost: O(n) real work per
    row, against O(n^2) complex work for the Gram spectrum.
    """
    n = group.order
    # exp, and sums of m, are many times slower where they underflow; m is
    # raised to e^-600 (3e-261), far below every cut here
    m = np.exp(np.maximum(dlog, -600.0))
    top = m.max(axis=1)
    off = m.sum(axis=1) - m[:, group.identity]  # S
    feasible = (violation < 0) & (off <= 1.0)
    return feasible, (violation >= 0) | _minor_fails(top, 1.0, n)


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
    stops at the first N that `feasible_exact` would reject. `_settle`
    decides what it can of each block from |f|; only the unsettled rows
    before the block's first row settled infeasible get their values and the
    Gram test. DomainError for a copy number `interpolate` would refuse, and
    unless both characteristic functions come from a linear rep.
    """
    if not (math.isfinite(r) and r >= 0):
        raise DomainError(f"rate must be a finite number >= 0, got {r}")
    if not 1 <= n_max <= MAX_SEARCH_COPIES:
        raise DomainError(f"n_max must be in [1, {MAX_SEARCH_COPIES}], got {n_max}")
    check_same_group(char_psi, char_phi)
    _require_linear(char_psi, char_phi)
    copy_numbers(np.floor(r * n_max + TOL_FLOOR), 0)  # the largest M of the scan
    group = char_psi.group
    psi, phi = _polar(char_psi), _polar(char_phi)
    rows = _block_rows(group.order * np.dtype(complex).itemsize)
    first = None
    for top in range(n_max, 0, -rows):
        N = np.arange(top, max(top - rows, 0), -1.0)[:, None]
        M = np.floor(r * N + TOL_FLOOR)
        dlog, violation = _log_ratio(psi, phi, N, M)
        feasible, infeasible = _settle(group, dlog, violation)
        i = int(np.argmax(infeasible)) if infeasible.any() else -1
        todo = np.flatnonzero(~feasible[: i if i >= 0 else None])
        if todo.size:
            vals = _values(dlog[todo], psi, phi, N[todo], M[todo], group.inv)
            min_eig = gram_min_eigenvalues(group, vals)
            j = _first_failure(min_eig, violation[todo], group.order)
            if j >= 0:
                i = int(todo[j])
        if i >= 0:
            return int(N[i - 1, 0]) if i else first
        first = int(N[-1, 0])
    return first
