"""Brute-force references that the tests compare the package against."""

import math

import numpy as np

from asym.charfn import ClassSets, symmetry_subgroup, zero_mask
from asym.errors import DomainError, RateNotBelowOptimal
from asym.exact_rate import FINITE, UNBOUNDED, ZERO, RateReport
from asym.lie import RfResult, _pencil_direction
from asym.tolerances import TOL_ONE, TOL_PENCIL


def subgroup_closure(group, seed) -> frozenset[int]:
    """Smallest subgroup containing the seed elements; always contains e.
    The fixed-point loop that `groups.is_subgroup` must agree with."""
    n = group.order
    for s in seed:
        if not 0 <= int(s) < n:
            raise DomainError(f"element index {s} out of range [0, {n})")
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


def _kept(char_phi):
    """(sets, excluded, increasing elements off sym(phi) u zeros) by setdiff1d."""
    sets = uncached_sets(char_phi)
    excluded = sets.sym | sets.zero
    return sets, excluded, np.setdiff1d(np.arange(char_phi.group.order), list(excluded))


def setdiff1d_exact_rate(char_psi, char_phi) -> RateReport:
    """`exact_rate` as it was before the classification was cached: phi
    classified on every call and the kept elements taken by `np.setdiff1d`.
    The cached `exact_rate` must return this report bit for bit."""
    sets, excluded, keep = _kept(char_phi)
    ok = sets.sym == frozenset({char_phi.group.identity}) or (
        char_psi.commutative and char_phi.commutative)
    if not zero_mask(char_psi.logmod)[list(sets.zero)].all():
        return RateReport(kind=ZERO, value=None, witness=None, assumption_ok=ok, excluded=excluded)
    L_psi, L_phi = -char_psi.logmod[keep], -char_phi.logmod[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.isinf(L_psi), np.inf, L_psi / L_phi)
    best = int(np.argmin(ratio)) if ratio.size else None
    if best is None or np.isinf(ratio[best]):
        return RateReport(kind=UNBOUNDED, value=None, witness=None, assumption_ok=ok,
                          excluded=excluded)
    return RateReport(kind=FINITE, value=float(ratio[best]), witness=int(keep[best]),
                      assumption_ok=ok, excluded=excluded)


def setdiff1d_copies_bound(char_psi, char_phi, r) -> int:
    """`copies_bound` before the cache, for 0 < r < inf, as `setdiff1d_exact_rate`."""
    _, _, keep = _kept(char_phi)
    log_s = char_psi.logmod[keep] - r * char_phi.logmod[keep]
    log_s = float(log_s.max()) if log_s.size else -math.inf
    if math.isinf(log_s) and log_s < 0:
        return 1
    if log_s >= 0:
        raise RateNotBelowOptimal(f"s = {math.exp(min(log_s, 700)):.6g} >= 1 at rate {r}")
    return math.ceil(2.0 * math.log(char_psi.group.order) / (-log_s)) + 1
