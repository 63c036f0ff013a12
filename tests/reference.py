"""Brute-force references that the tests compare the package against."""

import math

import numpy as np

from asym.charfn import ClassSets, exact_copy_numbers, symmetry_subgroup, zero_mask
from asym.convertibility import _coords, _moduli
from asym.errors import DomainError, RateNotBelowOptimal
from asym.exact_rate import FINITE, UNBOUNDED, ZERO, RateReport
from asym.groups import block_pairs
from asym.lie import RfResult, _pencil_direction, qfim_pure
from asym.tolerances import TOL_ONE, TOL_PENCIL, TOL_SUPP, TOL_ZERO


def subgroup_closure(group, seed) -> frozenset[int]:
    """Smallest subgroup containing the seed elements; always contains e.
    The fixed-point loop that `groups.is_subgroup` must agree with."""
    n = group.order
    for s in seed:
        if not 0 <= int(s) < n:
            raise DomainError(f"element index must be in [0, {n}), got {s}")
    closed = {group.identity}
    frontier = list(set(int(s) for s in seed))
    closed.update(group.inv[g] for g in frontier)
    closed.update(frontier)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                c = int(group.mult[a, b])
                if c not in closed:
                    closed.add(c)
                    changed = True
    return frozenset(closed)


def dense_gram(group, values) -> np.ndarray:
    """The ascending spectrum of the Hermitian part of the Gram matrix
    M[g, h] = f(g^-1 h) of f = values (n,), by one dense n x n eigvalsh."""
    M = values[group.mult[group.inv, :]]
    return np.linalg.eigvalsh((M + M.conj().T) / 2.0)


def one_row(psi, phi, N, M) -> tuple[np.ndarray, np.ndarray]:
    """m = |f| (n0 + p,) and the coordinates (n,) of f = chi_psi^N / chi_phi^M,
    for split characteristic functions psi and phi, built the way
    `feasible_exact` builds them: its copy-number gate
    (`charfn.exact_copy_numbers`), then `_moduli` and `_coords` on two floats."""
    N, M = exact_copy_numbers(N, 1), exact_copy_numbers(M, 0)
    m = _moduli(psi, phi, N, M)
    return m, _coords(m, psi, phi, N, M)


def interpolator(char_psi, char_phi, N, M) -> np.ndarray:
    """The values on G of the interpolator f = chi_psi^N / chi_phi^M that
    `feasible_exact` decides on: its coordinates (`one_row`), expanded
    (`PairSplit.expand`)."""
    _, coords = one_row(char_psi.split_polar, char_phi.split_polar, N, M)
    return char_psi.group.pairs.expand(coords)


def k_rows(psi, phi, N, M) -> tuple[np.ndarray, np.ndarray]:
    """K rows of f = chi_psi^N / chi_phi^M, for split characteristic
    functions psi and phi and K copy numbers each in N and M, built the way
    `minimal_copies_search` builds a block: `_moduli` on (K, 1) float
    columns, then `_coords`. Returns m = |f| (K, n0 + p) and the coordinates
    (K, n), each row of which `one_row` must give bit for bit for that one
    pair."""
    N, M = (np.asarray(x, dtype=float).reshape(-1, 1) for x in (N, M))
    m = _moduli(psi, phi, N, M)
    return m, _coords(m, psi, phi, N, M)


def qfim_all_pairs(rho, gens) -> np.ndarray:
    """The SLD QFIM as the spectral sum over every eigenpair (k, l) with
    p_k + p_l > TOL_SUPP, from a d x d conjugation <k|X_i|l> of each
    generator: what `lie.qfim` computed before it formed rows k in the
    support only."""
    p, V = np.linalg.eigh(np.asarray(rho, dtype=complex))
    p = np.clip(p, 0.0, None)
    A = V.conj().T @ gens.generators @ V  # (m, d, d): <k|X_i|l>
    denom = p[:, None] + p[None, :]
    num = (p[:, None] - p[None, :]) ** 2
    W = np.where(denom > TOL_SUPP, 2.0 * num / np.where(denom > TOL_SUPP, denom, 1.0), 0.0)
    F = np.real(np.einsum("kl,mkl,nkl->mn", W, A, A.conj()))
    return (F + F.T) / 2.0


def four_cov_sym(psi, gens) -> np.ndarray:
    """4 Cov_sym of the generators gens (k, d, d) in the pure state psi (d,),
    from its first and second moments: the QFIM of a pure state."""
    mean = np.einsum("a,iab,b->i", psi.conj(), gens, psi).real
    second = np.einsum("a,iab,jbc,c->ij", psi.conj(), gens, gens, psi).real
    return 2 * (second + second.T) - 4 * np.outer(mean, mean)


def fourier_blocks(group, values) -> list[np.ndarray]:
    """Fourier blocks sum_k f(k) rho(k) of f = values (n,), or of each row of
    values (K, n), from the group's real irrep basis: one (count, d, d), or
    (K, count, d, d), array per dimension. f = h + i h' with h, h' Hermitian
    (h' the Hermitian part of -i f), so each block is the Hermitian block of
    h plus i times that of h'."""
    values = np.asarray(values)
    basis, pairs = group.irreps, group.pairs
    h = basis.block_coords(pairs.coords(values))
    h_ = basis.block_coords(pairs.coords(-1j * values))
    return [hermitian_block(a) + 1j * hermitian_block(b) for a, b in zip(h, h_)]


def hermitian_block(C) -> np.ndarray:
    """The Hermitian d x d blocks (..., d, d) with coordinates C (..., d^2)
    under the transpose (`groups.block_pairs`)."""
    d = math.isqrt(C.shape[-1])
    return block_pairs(d).expand(C).reshape(*C.shape[:-1], d, d)


def irrep_matrix(group) -> np.ndarray:
    """(n, n) complex: row k holds rho(k), flattened row-major, for every
    irrep rho in the order of `IrrepBasis.dims`, rebuilt from the real basis."""
    n = group.order
    return np.concatenate([B.reshape(n, -1) for B in fourier_blocks(group, np.eye(n))], axis=1)


def fft_label_weights(f, shape) -> np.ndarray:
    """w = DFT(f) / |G| over the label grid of shape, by one `np.fft.fftn`:
    the weights of an interpolator f (n,) on the label group, as they were
    computed before they were read off the Gram decision's blocks."""
    return (np.fft.fftn(f.reshape(shape)) / f.size).real.ravel()


def clt_per_theta(state, gens, theta_grid):
    """`clt_diagnostic` one theta at a time, with the unitary exp(-i theta.X)
    built from its own `eigh`: the batched readout must agree with it."""
    psi = state.amplitudes
    means = np.array([np.real(psi.conj() @ (X @ psi)) for X in gens.generators])
    F = qfim_pure(state, gens)
    worst = 0.0
    for theta in theta_grid:
        w, V = np.linalg.eigh(np.tensordot(theta, gens.generators, axes=1))
        chi = complex(psi.conj() @ ((V * np.exp(-1j * w)) @ V.conj().T @ psi))
        worst = max(worst, abs(np.log(chi) - (-1j * float(theta @ means) - float(theta @ F @ theta) / 8)))
    return worst


def rf_ratio_200_steps(F_psi, F_phi) -> RfResult:
    """`lie.rf_ratio` on a singular, nonzero F_phi, bisected for a fixed 200
    halvings however early the bracket stops shrinking; no input gate. The
    early stop of `rf_ratio` must return bit for bit what this returns."""
    F_psi = np.asarray(F_psi, dtype=float)
    F_phi = np.asarray(F_phi, dtype=float)
    scale = max(np.abs(F_phi).max(), np.abs(F_psi).max(), 1.0)

    def psd(r: float) -> bool:
        return float(np.linalg.eigvalsh(F_psi - r * F_phi)[0]) >= -TOL_PENCIL * scale * max(1.0, r)

    if not psd(0.0):
        return RfResult(0.0, _pencil_direction(F_psi, F_phi, 0.0), "bisection")
    hi = 1.0
    while psd(hi):
        hi *= 2.0
        if hi > 1e15:
            return RfResult(math.inf, None, "bisection")
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if psd(mid):
            lo = mid
        else:
            hi = mid
    return RfResult(lo, _pencil_direction(F_psi, F_phi, lo), "bisection")


def convergence_per_element(char_psi, N_list):
    """The symmetry set, decay base and distance curve of psi, one element at
    a time: sym(psi) by the `classify_sets` cut, s = max |chi| off it (0 when
    nothing is off it) and, for each N, the bound |G| s^{|G| N} / 2 and the
    distance (1/2) sum off sym of |chi(g)|^{|G| N}, summed in Python. The
    masked numpy sums of `approx` must agree with it. Returns (sym, s, points)
    with points a list of (N, bound, distance)."""
    n = char_psi.group.order
    lm = char_psi.logmod
    sym = frozenset(g for g in range(n) if lm[g] >= math.log1p(-TOL_ONE))
    rest = [lm[g] for g in range(n) if g not in sym]
    s = float(np.exp(max(rest))) if rest else 0.0
    log_s = math.log(s) if s > 0 else -math.inf
    points = []
    for N in N_list:
        eps = 0.5 * n * math.exp(n * N * log_s) if s > 0 else 0.0
        delta = 0.5 * float(
            sum(
                math.exp(n * N * lm[g])
                for g in range(n)
                if g not in sym and not np.isneginf(lm[g])
            )
        )
        points.append((N, eps, delta))
    return sym, s, points


def uncached_sets(char) -> ClassSets:
    """phi's classification from scratch, bypassing the cache on `CharFunction`:
    the `symmetry_subgroup` cut and check, and the `zero_mask` cut of logmod."""
    zero = frozenset(int(g) for g in np.flatnonzero(zero_mask(char.logmod)))
    return ClassSets(sym=symmetry_subgroup(char), zero=zero)


def loop_exact_rate(char_psi, char_phi) -> RateReport:
    """`exact_rate` one element at a time, with phi classified from scratch:
    the zero rate where chi_phi vanishes and chi_psi does not, else the least
    L_psi / L_phi off sym(phi) u zeros, where L_psi is infinite on the zero
    set of chi_psi (|chi_psi| <= TOL_ZERO, not only exact zeros). The cached
    `exact_rate` must return this report bit for bit."""
    n = char_psi.group.order
    sets = uncached_sets(char_phi)
    excluded = sets.sym | sets.zero
    ok = sets.sym == frozenset({char_phi.group.identity}) or (
        char_psi.commutative and char_phi.commutative)
    psi_zero = {g for g in range(n) if char_psi.logmod[g] <= math.log(TOL_ZERO)}
    if not sets.zero <= psi_zero:
        return RateReport(kind=ZERO, value=None, witness=None, assumption_ok=ok, excluded=excluded)
    best, best_g = math.inf, None
    for g in range(n):
        if g in excluded or g in psi_zero:  # L_psi = inf: no bound there
            continue
        ratio = float(-char_psi.logmod[g] / -char_phi.logmod[g])
        if ratio < best:
            best, best_g = ratio, g
    if best_g is None:
        return RateReport(kind=UNBOUNDED, value=None, witness=None, assumption_ok=ok,
                          excluded=excluded)
    return RateReport(kind=FINITE, value=best, witness=best_g, assumption_ok=ok, excluded=excluded)


def loop_copies_bound(char_psi, char_phi, r) -> int:
    """`copies_bound` one element at a time, for 0 < r < inf: log s the largest
    log|chi_psi| - r log|chi_phi| off sym(phi) u zeros and off the zero set
    of chi_psi, with the library's `RateNotBelowOptimal` where s >= 1."""
    sets = uncached_sets(char_phi)
    excluded = sets.sym | sets.zero
    log_s = -math.inf
    for g in range(char_psi.group.order):
        if g in excluded or char_psi.logmod[g] <= math.log(TOL_ZERO):  # |chi_psi| = 0 there
            continue
        log_s = max(log_s, float(char_psi.logmod[g] - r * char_phi.logmod[g]))
    if log_s == -math.inf:
        return 1
    if log_s >= 0:
        raise RateNotBelowOptimal(f"s = {math.exp(min(log_s, 700)):.6g} >= 1 at rate {r}")
    return math.ceil(2.0 * math.log(char_psi.group.order) / (-log_s)) + 1
