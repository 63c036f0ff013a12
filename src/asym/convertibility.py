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
holds for both. On a linear rep chi(g^-1) = conj chi(g), and so is f: it
is built as its n real coordinates (`groups.PairSplit`), f on e and the
involutions and Re f, Im f on one element g < g^-1 of each other pair, read
off the same coordinates of chi (`CharFunction.split_polar`); `interpolate`
expands them to values, Hermitian bit for bit in both views, over the
inverse map of G or of the charge labels. Only `is_positive_definite`
checks the Hermiticity of values a caller passes.

M is a convolution operator, M = sum_k f(k) R(k) over the right translations
R(k), so its spectrum is the union of the spectra of the Fourier blocks
f^(rho) = sum_k f(k) rho(k), one d_rho x d_rho block per irrep rho. The
oracle never forms M. Each block of a Hermitian f is Hermitian, with d^2
real coordinates; sum d^2 = n, so one real n x n matrix per group
(`IrrepBasis.real`, cached with the irreps; the characters for an abelian
group) takes f's coordinates to all of them at once. The minimum eigenvalue
of each block is the block itself for d = 1, a closed form for d = 2 (the
dihedral groups, S_3, Q_8), and one batched `eigvalsh` per irrep dimension
above 2.
Cost: a one-off O(n^3) decomposition per group object, then per copy number
O(n) transcendentals on the n/2 to n representatives and one real
O(n^2) matmul, against O(n^3) for a dense eigendecomposition of M.

`interpolate` and `gram_min_eigenvalues` work on rows of copy numbers;
`feasible_exact` and `is_positive_definite` are their single-row case, and
`minimal_copies_search` decides a block of copy numbers per pass, with as
many rows per block as fit in `groups._CHUNK_BYTES` (64 rows at n = 256).
It first settles what it can from m = |f| alone (`_settle`): the Gram
matrix has a unit diagonal and off-diagonal row moduli summing to
sum_{g != e} m(g), whatever the irreps, so a sum <= 1 is feasible by
Gershgorin; a zero-set violation, or max m above 1 by a margin, is
infeasible by a 2 x 2 principal minor. Only the unsettled rows before a
block's first row settled infeasible go on to their coordinates, the
matmul and the block spectra. The search costs O(n) real work per settled
row and O(n^2) per unsettled one, so O(n_max * n^2) at worst; its memory
beyond the irrep basis is a few blocks, whatever n_max is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, SplitPolar, check_hermitian, check_same_group, copy_numbers
from .charfn import negative_parity, split_polar
from .errors import DomainError
from .groups import FiniteGroup, _block_rows, hermitian_matrix, pair_split
from .tolerances import TOL_FLOOR, TOL_PSD

MAX_SEARCH_COPIES = 10**4  # largest n_max of `minimal_copies_search`
_LOG_TINY = math.log(np.finfo(float).tiny)  # below it |f| would be subnormal: f is 0 there


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    min_gram_eigenvalue: float
    f: np.ndarray  # (n,) the interpolator, values on G
    modulus_witness: int | None = None  # smallest k != e that `_minor_fails` at, if any
    zero_set_witness: int | None = None  # smallest g with chi_phi^M(g) = 0 != chi_psi^N(g)


def _log_ratio(
    psi: SplitPolar, phi: SplitPolar, N: np.ndarray, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log|f| of f = chi_psi^N / chi_phi^M on the representatives, for rows of
    copy numbers N, M (K, 1).

    The log-ratio is capped at 350, so a grossly infeasible instance yields a
    huge finite |f| (clearly failing the Gram test) instead of overflow, and
    it is -inf exactly where f is 0: on the chi_phi zero set when M > 0
    (phi^0 is the trivial state: no zeros), where chi_psi^N is an exact 0,
    and where |f| would be subnormal (exp is many times slower there; no
    cut comes near it). Returns the (K, n0 + p) log-ratios on
    `psi.pairs.heads` and, per row, the first element where chi_phi^M
    vanishes but chi_psi^N does not, or -1.
    """
    bad = np.flatnonzero(phi.zero & ~psi.zero)
    first_bad = int(psi.pairs.heads[bad].min()) if bad.size else -1
    violation = np.where(M[:, 0] > 0, first_bad, -1)
    with np.errstate(invalid="ignore", over="ignore"):
        logmod = N * psi.logmod
        dlog = np.minimum(logmod - M * phi.target, 350.0)
    dlog[(phi.zero & (M > 0)) | np.isneginf(logmod) | (dlog < _LOG_TINY)] = -np.inf
    return dlog, violation


def _coords(dlog: np.ndarray, psi: SplitPolar, phi: SplitPolar, N, M) -> np.ndarray:
    """The (K, n) real coordinates (`groups.PairSplit`) of f = exp(dlog + i
    (N phase_psi - M phase_phi)): on e and the involutions f is real, with
    the sign from the parities of N and M (`charfn.negative_parity`); 0
    where dlog is -inf."""
    n0 = psi.pairs.own.size
    m = np.exp(dlog)
    odd = negative_parity((psi.negative, N), (phi.negative, M))
    theta = N * psi.phase - M * phi.phase
    mp = m[:, n0:]
    return np.concatenate([m[:, :n0] * (1.0 - 2.0 * odd), mp * np.cos(theta), mp * np.sin(theta)],
                          axis=1)


def _interpolate(psi: SplitPolar, phi: SplitPolar, N, M) -> tuple[np.ndarray, np.ndarray]:
    """`interpolate` on split characteristic functions, in coordinates: the
    (K, n) coordinates of f and the (K,) zero-set violations."""
    N, M = (np.reshape(copy_numbers(x, low), (-1, 1)) for x, low in ((N, 1), (M, 0)))
    dlog, violation = _log_ratio(psi, phi, N, M)
    return _coords(dlog, psi, phi, N, M), violation


def interpolate(
    psi, phi, N: int | np.ndarray, M: int | np.ndarray, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """f = chi_psi^N / chi_phi^M from log-polar chi, 0 on the chi_phi zero set.

    psi and phi are (logmod, phase, zero mask) triples from charfn's codec:
    `CharFunction.polar` or `ChargeDistribution.polar`. inv (n,) is the
    inverse map: `group.inv` in the Gram view, the negated charge label in
    the Fourier view. N and M are copy numbers: two ints, or K each (any
    shape with K entries) for K rows at once. Returns the (K, n) values,
    Hermitian bit for bit (`PairSplit.expand`), and, per row, the first
    index where chi_phi^M vanishes but chi_psi^N does not, or -1. Zero sets
    are classified once, on the single-copy functions (chi^N vanishes
    exactly where chi does); M = 0 is the trivial target, identically 1.
    DomainError for N < 1, M < 0 or a copy number off the integers up to
    MAX_COPIES.
    """
    pairs = pair_split(inv)
    coords, violation = _interpolate(split_polar(psi, pairs), split_polar(phi, pairs), N, M)
    return pairs.expand(coords), violation


def gram_min_eigenvalues(group: FiniteGroup, values: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of M[g, h] = f(g^-1 h) for each row f of values (K, n).

    M is Hermitian iff f(g^-1) = conj f(g), as `interpolate` makes f and
    `is_positive_definite` checks it; the spectrum is that of f's Hermitian
    part, read off its coordinates (`_min_eig`).
    """
    return _min_eig(group, group.pairs.coords(np.asarray(values)))


def _min_eig(group: FiniteGroup, coords: np.ndarray) -> np.ndarray:
    """Minimum Gram eigenvalue for each row of coordinates (K, n): one real
    matmul against the irrep basis (`IrrepBasis.block_coords`) and
    `_block_min_eig` per irrep dimension."""
    blocks = group.irreps.block_coords(coords)
    return np.min([_block_min_eig(C).min(axis=-1) for C in blocks], axis=0)


def _block_min_eig(C: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of each Hermitian d x d block with coordinates C
    (..., d^2) (`groups.hermitian_coords`).

    d = 1: the block itself. d = 2: the closed form
    (a + c)/2 - hypot((a - c)/2, |b|), with a, c the diagonal and b the
    upper entry, with no LAPACK call. d > 2: one batched `eigvalsh`.
    """
    if C.shape[-1] == 1:
        return C[..., 0]
    if C.shape[-1] == 4:
        a, c = C[..., 0], C[..., 1]
        b = C[..., 2] + 1j * C[..., 3]  # complex abs and hypot of the parts differ in the last bit
        return (a + c) / 2.0 - np.hypot((a - c) / 2.0, np.abs(b))
    return np.linalg.eigvalsh(hermitian_matrix(C))[..., 0]


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

    The Gram rule (`_verdict`) behind the gate `charfn.check_hermitian` at
    scale max(1, max |f|): M[g, h] = f(g^-1 h) is Hermitian iff f(g^-1) = conj f(g).
    """
    check_hermitian(values, group.inv, max(1.0, np.abs(values).max()), "f")
    return _verdict(group, group.pairs.coords(values), values, -1)


def _verdict(group: FiniteGroup, coords: np.ndarray, f: np.ndarray, bad: int) -> FeasibilityResult:
    """The Gram rule on one Hermitian row f (n,), of coordinates coords (n,),
    with zero-set violation bad (an element, or -1): feasible iff bad < 0
    and the minimum eigenvalue of M[g, h] = f(g^-1 h), from its Fourier
    blocks, is >= -TOL_PSD * |G|; with the witnesses of the report."""
    min_eig = _min_eig(group, coords[None])
    fails = _minor_fails(np.abs(f), f[group.identity].real, group.order)
    fails[group.identity] = False  # the minor takes k != e
    over = np.flatnonzero(fails)
    return FeasibilityResult(
        feasible=_first_failure(min_eig, bad, group.order) < 0,
        min_gram_eigenvalue=float(min_eig[0]),
        f=f,
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

    One row of the scan: the coordinates of the Hermitian interpolator go to
    the Gram rule (`_verdict`), and are expanded once, to the report's f.
    Where chi_phi^M vanishes and chi_psi^N does not, the answer is
    infeasible, with the smallest such element as `zero_set_witness`. M = 0
    is accepted as the trivial (symmetric) target, which is always
    reachable. DomainError unless both characteristic functions come from a
    linear rep (`CharFunction.linear`).
    """
    check_same_group(char_psi, char_phi)
    _require_linear(char_psi, char_phi)
    group = char_psi.group
    (coords,), (bad,) = _interpolate(char_psi.split_polar, char_phi.split_polar, N, M)
    return _verdict(group, coords, group.pairs.expand(coords), int(bad))


def _settle(group: FiniteGroup, dlog, violation) -> tuple[np.ndarray, np.ndarray]:
    """Rows of copy numbers that the Gram test would decide, decided from |f|.

    dlog and violation are `_log_ratio`'s for K rows, so m = |f| =
    exp(dlog) on the representatives (`PairSplit.heads`), raised to e^-600
    where it is smaller (or where f is 0), and f(e) = 1 since chi(e) = 1.
    Returns two K-entry masks: the rows settled feasible and those settled
    infeasible; a row in neither needs the Gram spectrum.

    Row g of the Gram matrix M[g, h] = f(g^-1 h) holds f(e) = 1 on the
    diagonal and f(k), k != e, off it, so its off-diagonal moduli sum to
    S = sum_{k != e} m(k): m on the involutions, plus twice m on each
    g < g^-1 (|f(g^-1)| = |f(g)|). M is Hermitian by construction, and no
    irrep enters, so this holds for every group. With n = |G|:

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
    exp, cos and sin that give f(k) move |b| from m(k) by a few units of
    roundoff, relative, far inside that margin. Cost: O(n) real work per
    row, against O(n^2) for the Gram spectrum.
    """
    pairs = group.pairs
    # exp, and sums of m, are many times slower where they underflow; m is
    # raised to e^-600 (3e-261), far below every cut here
    m = np.exp(np.maximum(dlog, -600.0))
    top = m.max(axis=1)
    weight = np.ones(m.shape[1])
    weight[pairs.own.size :] = 2.0
    weight[np.searchsorted(pairs.own, group.identity)] = 0.0
    off = m @ weight  # S
    feasible = (violation < 0) & (off <= 1.0)
    return feasible, (violation >= 0) | _minor_fails(top, 1.0, group.order)


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
    before the block's first row settled infeasible get their coordinates
    and the Gram test. DomainError for a copy number `interpolate` would
    refuse, and unless both characteristic functions come from a linear rep.
    """
    if not (math.isfinite(r) and r >= 0):
        raise DomainError(f"rate must be a finite number >= 0, got {r}")
    if not 1 <= n_max <= MAX_SEARCH_COPIES:
        raise DomainError(f"n_max must be in [1, {MAX_SEARCH_COPIES}], got {n_max}")
    check_same_group(char_psi, char_phi)
    _require_linear(char_psi, char_phi)
    copy_numbers(np.floor(r * n_max + TOL_FLOOR), 0)  # the largest M of the scan
    group = char_psi.group
    psi, phi = char_psi.split_polar, char_phi.split_polar
    # a row's share of a block: its log-ratios and its coordinates, ~2n floats
    rows = _block_rows(2 * group.order * np.dtype(float).itemsize)
    first = None
    for top in range(n_max, 0, -rows):
        N = np.arange(top, max(top - rows, 0), -1.0)[:, None]
        M = np.floor(r * N + TOL_FLOOR)
        dlog, violation = _log_ratio(psi, phi, N, M)
        feasible, infeasible = _settle(group, dlog, violation)
        i = int(np.argmax(infeasible)) if infeasible.any() else -1
        todo = np.flatnonzero(~feasible[: i if i >= 0 else None])
        if todo.size:
            min_eig = _min_eig(group, _coords(dlog[todo], psi, phi, N[todo], M[todo]))
            j = _first_failure(min_eig, violation[todo], group.order)
            if j >= 0:
                i = int(todo[j])
        if i >= 0:
            return int(N[i - 1, 0]) if i else first
        first = int(N[-1, 0])
    return first
