"""Brute-force references that the tests compare the package against."""

import math

import numpy as np

from asym.errors import DomainError
from asym.lie import RfResult, _pencil_direction
from asym.tolerances import DEFAULT, TOL_PENCIL


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


def convergence_per_element(char_psi, N_list, tol=DEFAULT):
    """The symmetry set, decay base and distance curve of psi, one element at
    a time: sym(psi) by the `classify_sets` cut, s = max |chi| off it (0 when
    nothing is off it) and, for each N, the bound |G| s^{|G| N} / 2 and the
    distance (1/2) sum off sym of |chi(g)|^{|G| N}, summed in Python. The
    masked numpy sums of `approx` must agree with it. Returns (sym, s, points)
    with points a list of (N, bound, distance)."""
    n = char_psi.group.order
    lm = char_psi.logmod
    sym = frozenset(g for g in range(n) if lm[g] >= math.log1p(-tol.tol_one))
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
