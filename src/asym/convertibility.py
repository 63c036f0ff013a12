"""Single-shot exact convertibility oracle via positive definite interpolators.

A conversion psi -> phi under G-covariant operations is possible iff
chi_psi = chi_phi * f for some positive definite f on G; the candidate f is
the ratio of characteristic functions (zero where chi_phi vanishes), and
positive definiteness is decided by the minimum eigenvalue of the Gram
matrix M[g, h] = f(g^-1 h). Where chi_phi vanishes and chi_psi does not, no
f exists for any N and any M >= 1: that is an infeasible verdict with the
element as its witness, not an error. It is a fact of the pair, stated once
(`charfn.zero_violation`) and read once per call, never per row. `_passes`
states the Gram cut once (a minimum Gram eigenvalue >= -TOL_PSD * |G|) for
`feasible_exact`, `is_positive_definite` and the copy-number scan. The
abelian Fourier view is `feasible_exact` on the label group of a charge
distribution (`abelian.fourier_weights`), so it reads this decision too:
its weights are the minima of the Gram blocks that the decision hands out
(`FeasibilityResult.block_min`), each block one number on an abelian group.
Its `min_gram_eigenvalue` is no stored field but the least of those blocks.
The zero sets are cut at TOL_ZERO (`charfn.zero_mask`), once per
characteristic function (`CharFunction.zero`).
The Gram test is the criterion on a linear rep only (on a projective one
the kernel carries omega^(N-M)), so `feasible_exact` and
`minimal_copies_search` raise DomainError unless `CharFunction.linear`
holds for both. On a linear rep chi(g^-1) = conj chi(g), and so is f: it
is built as its n real coordinates (`groups.PairSplit`), f on e and the
involutions and Re f, Im f on one element g < g^-1 of each other pair, read
off the same coordinates of chi (`CharFunction.split_polar`). f is never
formed as values: the spectrum and the witnesses are read off them. Only
`is_positive_definite` takes values, and checks that they are Hermitian.

M is a convolution operator, M = sum_k f(k) R(k) over the right translations
R(k), so its spectrum is the union of the spectra of the Fourier blocks
f^(rho) = sum_k f(k) rho(k), one d_rho x d_rho block per irrep rho. The
oracle never forms M. Each block of a Hermitian f is Hermitian, with d^2
real coordinates, its pair coordinates under the transpose, in f's own codec
(`groups.block_pairs`); sum d^2 = n, so one real n x n matrix per group
(`IrrepBasis.real`, cached with the irreps; the characters for an abelian
group) takes f's coordinates to all of them at once. The minimum eigenvalue
of each block is the block itself for d = 1, a closed form for d = 2 (the
dihedral groups, S_3, Q_8), and one batched `eigvalsh` per dimension above 2.
Cost: a one-off O(n^3) decomposition per group object, then per copy number
O(n) transcendentals on the n/2 to n representatives and one real
O(n^2) matmul, against O(n^3) for a dense eigendecomposition of M.

One path takes copy numbers to coordinates, for one row or K at once:
`_moduli` and `_coords` broadcast two floats (one row: 1-D arrays) or two
(K, 1) columns (K rows: 2-D arrays), and `_coords` reuses the m = |f| that
`_moduli` takes with one exp per row. So the m and coordinates of
`feasible_exact` are bit for bit those the scan gives that row; it and
`is_positive_definite` take the single-row Gram rule (`_verdict`), which
reads the modulus witness off m and decides with one Python bool.
`minimal_copies_search` answers a pair with a zero-set violation None
before any row once its largest M is >= 1, and otherwise scans rows with
M = 0 only, so no row it scans has a violation. It decides a block of
copy numbers per pass, with as many rows per block as fit in
`groups._CHUNK_BYTES` (64 rows at n = 256), and first settles what it can
from m alone (`_settle`): the Gram matrix has a unit diagonal and
off-diagonal row moduli summing to sum_{g != e} m(g), whatever the
irreps, so a sum <= 1 is feasible by Gershgorin, and max m above 1 by a
margin is infeasible by a 2 x 2 principal minor. The weights of that sum
and the slot of e among the coordinates depend on the group alone, so
they are cached with it (`FiniteGroup.gershgorin_weight`,
`.identity_slot`). Only the unsettled rows before a block's first row
settled infeasible go on to their coordinates (from the same m), the
matmul and the block spectra.
The search costs O(n) real work per settled row and O(n^2) per unsettled
one, so O(n_max * n^2) at worst; its memory beyond the irrep basis is a
few blocks, whatever n_max is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, SplitPolar, check_hermitian, check_same_group, copy_numbers
from .charfn import exact_copy_numbers, negative_parity, zero_violation
from .errors import DimensionMismatch, DomainError
from .groups import FiniteGroup, _block_rows, as_index, as_real, block_pairs
from .tolerances import TOL_FLOOR, TOL_PSD

MAX_SEARCH_COPIES = 10**4  # largest n_max of `minimal_copies_search`
_LOG_TINY = math.log(np.finfo(float).tiny)  # below it |f| would be subnormal: f is 0 there


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    block_min: np.ndarray  # minimum eigenvalue of each irrep block, in `IrrepBasis` order
    modulus_witness: int | None = None  # smallest k != e that `_minor_fails` at, if any
    zero_set_witness: int | None = None  # smallest g with chi_phi^M(g) = 0 != chi_psi^N(g)

    @property
    def min_gram_eigenvalue(self) -> float:
        """The minimum eigenvalue of the Gram matrix: the least of `block_min`."""
        return float(self.block_min.min())


def _moduli(psi: SplitPolar, phi: SplitPolar, N, M) -> np.ndarray:
    """m = |f| of f = chi_psi^N / chi_phi^M on the representatives
    (`PairSplit.heads`), for one row of copy numbers or K rows at once.

    N and M are two floats (one row: m is (n0 + p,)) or two (K, 1) columns
    (K rows: (K, n0 + p)); the arithmetic is the same, by broadcasting, so a
    row gets the same bits either way. m is the exp of the log-ratio, taken
    once per row and shared by `_settle` and `_coords`. The log-ratio is
    capped at 350, so a grossly infeasible instance yields a huge finite |f|
    (clearly failing the Gram test) instead of overflow, and m is exactly 0
    on the chi_phi zero set when M > 0 (phi^0 is the trivial state: no
    zeros), where chi_psi^N is an exact 0, and where |f| would be subnormal
    (exp is many times slower there; no cut comes near it). So each m is 0
    or a normal float, and no sum of them underflows.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        dlog = np.minimum(N * psi.logmod - M * phi.target, 350.0)
    # below the cut: the chi_phi zero set at M > 0 (`SplitPolar.target`), an
    # exact 0 of chi_psi^N and |f| that would be subnormal; NaN >= x is
    # false, so the -inf - -inf of a 0 of chi_psi^N at an M whose M * target
    # overflows is cut too
    dlog = np.where(dlog >= _LOG_TINY, dlog, -np.inf)
    return np.exp(dlog, out=dlog)


def _coords(m: np.ndarray, psi: SplitPolar, phi: SplitPolar, N, M) -> np.ndarray:
    """The real coordinates (`groups.PairSplit`) of f = m exp(i (N phase_psi -
    M phase_phi)), with m = |f| from `_moduli`: on e and the involutions f is real,
    with the sign from the parities of N and M (`charfn.negative_parity`);
    0 where m is. N and M are two floats with m (n0 + p,), giving (n,), or
    (K, 1) columns with m (K, n0 + p), giving (K, n)."""
    n0 = psi.pairs.own.size
    odd = negative_parity((psi.negative, N), (phi.negative, M))
    theta = N * psi.phase - M * phi.phase
    mo, mp = m[..., :n0], m[..., n0:]
    return np.concatenate([np.where(odd, -mo, mo), mp * np.cos(theta), mp * np.sin(theta)], axis=-1)


def _block_mins(group: FiniteGroup, coords: np.ndarray) -> list[np.ndarray]:
    """Minimum eigenvalue of each irrep block for one row of coordinates (n,)
    or each of K rows (K, n): one real matmul against the irrep basis
    (`IrrepBasis.block_coords`) and `_block_min_eig` per irrep dimension,
    one (count,) or (K, count) array per dimension."""
    return [_block_min_eig(C) for C in group.irreps.block_coords(coords)]


def _block_min_eig(C: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of each Hermitian d x d block with coordinates C
    (..., d^2), its pair coordinates under the transpose (`groups.block_pairs`).

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
    d = math.isqrt(C.shape[-1])
    return np.linalg.eigvalsh(block_pairs(d).expand(C).reshape(*C.shape[:-1], d, d))[..., 0]


def _passes(min_eig, order: int):
    """The Gram cut: a minimum Gram eigenvalue >= -TOL_PSD * order passes; a
    NaN fails. Elementwise on K rows; on one row given as a Python float, a
    Python bool."""
    return min_eig >= -TOL_PSD * order


def is_positive_definite(group: FiniteGroup, values: np.ndarray) -> FeasibilityResult:
    """Gram-matrix positive semidefiniteness test for the function f = values (n,) on G.

    The Gram rule (`_verdict`) on the coordinates of f, behind the gate
    `charfn.check_hermitian` at scale max(1, max |f|): M[g, h] = f(g^-1 h)
    is Hermitian iff f(g^-1) = conj f(g). DimensionMismatch unless values is (n,).
    """
    values = np.asarray(values)
    if values.shape != (group.order,):
        raise DimensionMismatch(f"expected {group.order} values, got shape {values.shape}")
    check_hermitian(values, group.inv, max(1.0, np.abs(values).max()), "f")
    pairs = group.pairs
    coords = pairs.coords(values)
    n0, p = pairs.own.size, pairs.first.size  # |c| on own, the modulus of (Re, Im) on first
    m = np.concatenate([np.abs(coords[:n0]), np.hypot(coords[n0 : n0 + p], coords[n0 + p :])])
    return _verdict(group, coords, m, -1)


def _verdict(group: FiniteGroup, coords: np.ndarray, m: np.ndarray, bad: int) -> FeasibilityResult:
    """The Gram rule on one Hermitian f of coordinates coords (n,), with
    m = |f| on the representatives (`PairSplit.heads`) and zero-set
    violation bad (a Python int: an element, or -1): feasible iff bad < 0
    and the minimum eigenvalue of M[g, h] = f(g^-1 h), from its Fourier
    blocks, passes the cut -TOL_PSD * |G| (`_passes`), as one Python bool;
    with the witnesses of the report and the minimum of each block, of which
    min_gram_eigenvalue is the least. On an abelian group every block is
    1 x 1, so these are the whole spectrum.

    The modulus witness is the smallest representative k != e where m
    fails the 2 x 2 minor (`_minor_fails`), with diag = the coordinate at e.
    As |f(g^-1)| = |f(g)|, that is the smallest failing element; the slot of
    e among the representatives is cached with the group
    (`FiniteGroup.identity_slot`). `feasible_exact` passes the m that
    `_settle` reads for the same row, so a row settled infeasible by the
    minor gets its witness from that same m."""
    mins = _block_mins(group, coords)
    block_min = mins[0] if len(mins) == 1 else np.concatenate(mins)
    e = group.identity_slot
    fails = _minor_fails(m, coords[e], group.order)
    fails[e] = False  # the minor takes k != e
    return FeasibilityResult(
        feasible=bad < 0 and _passes(float(block_min.min()), group.order),
        block_min=block_min,
        modulus_witness=int(group.pairs.heads[fails].min()) if fails.any() else None,
        zero_set_witness=bad if bad >= 0 else None,
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

    One row of the scan: |f| (`_moduli`) and the coordinates (`_coords`) of
    the Hermitian interpolator f = chi_psi^N / chi_phi^M, 0 on the chi_phi
    zero set, from the scan's own path on one pair of floats, go to the Gram
    rule (`_verdict`). For M >= 1, where chi_phi vanishes and chi_psi does
    not (`charfn.zero_violation`), the answer is infeasible, with the
    smallest such element as `zero_set_witness`. M = 0 is accepted as the
    trivial (symmetric) target, identically 1, which is always reachable.
    Zero sets are classified once, on the single-copy functions (chi^N
    vanishes exactly where chi does). DomainError for N < 1, M < 0, a copy
    number off the integers up to MAX_COPIES, an integer that no float
    holds exactly, or anything but one number (`charfn.exact_copy_numbers`),
    and unless both characteristic functions come from a linear rep
    (`CharFunction.linear`).
    """
    check_same_group(char_psi, char_phi)
    _require_linear(char_psi, char_phi)
    N, M = exact_copy_numbers(N, 1), exact_copy_numbers(M, 0)
    psi, phi = char_psi.split_polar, char_phi.split_polar
    m = _moduli(psi, phi, N, M)
    bad = zero_violation(char_psi, char_phi) if M else -1
    return _verdict(char_psi.group, _coords(m, psi, phi, N, M), m, bad)


def _settle(group: FiniteGroup, m) -> tuple[np.ndarray, np.ndarray]:
    """Rows of copy numbers that the Gram test would decide, decided from |f|.

    m = |f| on the representatives (`PairSplit.heads`) for K rows
    (K, n0 + p) is `_moduli`'s, the one exp per row that `_coords` reuses;
    f(e) = 1 since chi(e) = 1. Each m is 0 or a normal float, so no sum of
    them underflows. The rows have no zero-set violation:
    `minimal_copies_search` answers a pair with one before any row it could
    reach. Returns two K-entry masks: the rows settled feasible and those
    settled infeasible; a row in neither needs the Gram spectrum.

    Row g of the Gram matrix M[g, h] = f(g^-1 h) holds f(e) = 1 on the
    diagonal and f(k), k != e, off it, so its off-diagonal moduli sum to
    S = sum_{k != e} m(k): m on the involutions, plus twice m on each
    g < g^-1 (|f(g^-1)| = |f(g)|), the weights cached with the group
    (`FiniteGroup.gershgorin_weight`). M is Hermitian by construction, and
    no irrep enters, so this holds for every group. With n = |G|:

    Feasible: S <= 1. By Gershgorin every eigenvalue of M is >= 1 - S >= 0,
    and the computed minimum is off by rounding only, far less than
    TOL_PSD * n.

    Infeasible: m(k) = max m with m(k) (1 - TOL_PSD n) > 1 + TOL_PSD n. The
    2 x 2 principal submatrix of M at rows (g, g k) is [[1, b], [conj b, 1]]
    with b = f(k), |b| = m(k), so by interlacing
    lambda_min(M) <= 1 - m(k) < -TOL_PSD n - TOL_PSD n m(k).
    The computed minimum is below the cut -TOL_PSD n while its error is
    below TOL_PSD n max |f|, ten times the 1e-10 n to which the block spectra
    are tested against a dense eigendecomposition at |f| of order 1; the
    exp, cos and sin that give f(k) move |b| from m(k) by a few units of
    roundoff, relative, far inside that margin. Cost: O(n) real work per
    row, against O(n^2) for the Gram spectrum.
    """
    return m @ group.gershgorin_weight <= 1.0, _minor_fails(m.max(axis=1), 1.0, group.order)


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
    stops at the first N that `feasible_exact` would reject, up to the last
    bits of the Gram spectrum: the scan multiplies a block's unsettled rows
    by the irrep basis in one matrix product (BLAS gemm), `feasible_exact`
    one row (gemv), as the scan does a block with one unsettled row, and
    the two products round differently. So a row whose minimum Gram
    eigenvalue lies within rounding of the cut -TOL_PSD |G| may stop
    the scan where `feasible_exact` accepts it, or pass where it rejects.
    Their coordinates and |f| agree bit for bit. A pair with a zero-set
    violation (`charfn.zero_violation`) is answered None before any row
    when floor(r n_max) >= 1, as row n_max is then infeasible; otherwise
    every row has M = 0 and none has a violation. `_settle` decides what it
    can of each block from |f|; only the unsettled rows before the block's
    first row settled infeasible get their coordinates and the Gram test.
    DomainError for a copy number `feasible_exact` would refuse, for a rate
    outside [0, inf) or an n_max outside the integers of [1, MAX_SEARCH_COPIES]
    (`groups.as_real`, `groups.as_index`), and unless both characteristic
    functions come from a linear rep.
    """
    as_real(r, "rate", 0, math.inf)
    n_max = as_index(n_max, "n_max", 1, MAX_SEARCH_COPIES, "[]")
    check_same_group(char_psi, char_phi)
    _require_linear(char_psi, char_phi)
    top_M = copy_numbers(np.floor(r * n_max + TOL_FLOOR), 0)  # the largest M of the scan
    if top_M and zero_violation(char_psi, char_phi) >= 0:
        return None  # row n_max, at M >= 1, is infeasible by the zero-set rule
    group = char_psi.group
    psi, phi = char_psi.split_polar, char_phi.split_polar
    # a row's share of a block: its |f| and its coordinates, ~2n floats
    rows = _block_rows(2 * group.order * np.dtype(float).itemsize)
    first = None
    for top in range(n_max, 0, -rows):
        N = np.arange(top, max(top - rows, 0), -1.0)[:, None]
        M = np.floor(r * N + TOL_FLOOR)
        m = _moduli(psi, phi, N, M)
        feasible, infeasible = _settle(group, m)
        i = int(np.argmax(infeasible)) if infeasible.any() else -1
        todo = np.flatnonzero(~feasible[: i if i >= 0 else None])
        if todo.size:
            mins = _block_mins(group, _coords(m[todo], psi, phi, N[todo], M[todo]))
            min_eig = np.min([b.min(axis=-1) for b in mins], axis=0)  # the least block of each row
            fails = np.flatnonzero(~_passes(min_eig, group.order))
            if fails.size:
                i = int(todo[fails[0]])
        if i >= 0:
            return int(N[i - 1, 0]) if i else first
        first = int(N[-1, 0])
    return first
