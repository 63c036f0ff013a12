"""Optimal exact i.i.d. conversion rate and the constructive copy-count bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import TOL_ONE, TOL_ZERO, CharFunction, classify_sets
from .errors import GroupMismatch, RateNotBelowOptimal

ZERO = "zero"
FINITE = "finite"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class RateReport:
    kind: str  # one of ZERO, FINITE, UNBOUNDED
    value: float | None  # set when kind == FINITE
    witness: int | None  # minimizing element (smallest index on ties)
    assumption_ok: bool
    excluded: frozenset[int]

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO


def _check_same_group(a: CharFunction, b: CharFunction) -> None:
    if not a.group.same_as(b.group):
        raise GroupMismatch("characteristic functions live on different groups")


def _excluded_set(char_phi: CharFunction, commutative: bool, tol_one: float, tol_zero: float):
    """Excluded elements for the rate minimum, plus the assumption flag.

    The general finite-group formula removes {e} and the chi_phi zero set and
    requires sym(phi) = {e}; the commutative variant removes all of sym(phi).
    For nonabelian phi with nontrivial symmetry we still evaluate the formula
    over G \\ (sym(phi) u zeros) but flag the result as not guaranteed.
    """
    sets_phi = classify_sets(char_phi, tol_one, tol_zero)
    e = char_phi.group.identity
    if commutative:
        return sets_phi, sets_phi.sym | sets_phi.zero, True
    if sets_phi.sym == frozenset({e}):
        return sets_phi, frozenset({e}) | sets_phi.zero, True
    return sets_phi, sets_phi.sym | sets_phi.zero, False


def exact_rate(
    char_psi: CharFunction,
    char_phi: CharFunction,
    commutative: bool = False,
    tol_one: float = TOL_ONE,
    tol_zero: float = TOL_ZERO,
) -> RateReport:
    """min over non-excluded g of L(psi,g)/L(phi,g), with the zero-rate branch.

    The rate is zero when phi has a vanishing chi where psi does not
    (modulus monotonicity makes even a single copy of phi unreachable).
    An empty or all-infinite minimum means the rate is unbounded.
    """
    _check_same_group(char_psi, char_phi)
    sets_phi, excluded, assumption_ok = _excluded_set(char_phi, commutative, tol_one, tol_zero)
    sets_psi = classify_sets(char_psi, tol_one, tol_zero)

    if not sets_phi.zero <= sets_psi.zero:
        return RateReport(kind=ZERO, value=None, witness=None,
                          assumption_ok=assumption_ok, excluded=excluded)

    best, best_g = math.inf, None
    for g in range(char_psi.group.order):
        if g in excluded:
            continue
        L_phi = -char_phi.logmod[g]
        L_psi = -char_psi.logmod[g]
        ratio = math.inf if np.isinf(L_psi) else float(L_psi / L_phi)
        if ratio < best:
            best, best_g = ratio, g
    if best_g is None or math.isinf(best):
        return RateReport(kind=UNBOUNDED, value=None, witness=None,
                          assumption_ok=assumption_ok, excluded=excluded)
    return RateReport(kind=FINITE, value=best, witness=best_g,
                      assumption_ok=assumption_ok, excluded=excluded)


def copies_bound(
    char_psi: CharFunction,
    char_phi: CharFunction,
    r: float,
    commutative: bool = False,
    tol_one: float = TOL_ONE,
    tol_zero: float = TOL_ZERO,
) -> int:
    """Copy number above which feasibility at sub-optimal rate r is guaranteed.

    With s = max over non-excluded g of |chi_psi(g)| / |chi_phi(g)|^r, the
    conversion psi^N -> phi^{floor(rN)} is feasible whenever
    N > 2 log|G| / (-log s); returns that threshold rounded up plus one.
    """
    _check_same_group(char_psi, char_phi)
    if r <= 0:
        raise RateNotBelowOptimal("rate must be positive")
    _, excluded, _ = _excluded_set(char_phi, commutative, tol_one, tol_zero)
    log_s = -math.inf
    for g in range(char_psi.group.order):
        if g in excluded:
            continue
        val = char_psi.logmod[g] - r * char_phi.logmod[g]
        log_s = max(log_s, float(val))
    if math.isinf(log_s) and log_s < 0:
        return 1  # nothing constrains the conversion
    if log_s >= 0:
        raise RateNotBelowOptimal(f"s = {math.exp(min(log_s, 700)):.6g} >= 1 at rate {r}")
    return math.ceil(2.0 * math.log(char_psi.group.order) / (-log_s)) + 1
