"""Optimal exact i.i.d. conversion rate and the constructive copy-count bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, check_same_group, classify_sets
from .errors import RateNotBelowOptimal
from .tolerances import DEFAULT, Tolerances

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


def _excluded_set(char_phi: CharFunction, commutative: bool, tol: Tolerances):
    """Excluded elements for the rate minimum, plus the assumption flag.

    The general finite-group formula removes {e} and the chi_phi zero set and
    requires sym(phi) = {e}; the commutative variant removes all of sym(phi).
    Both remove sym(phi) u zeros. For nonabelian phi with nontrivial symmetry
    we still evaluate the formula there but flag the result as not guaranteed.
    """
    sets_phi = classify_sets(char_phi, tol)
    ok = commutative or sets_phi.sym == frozenset({char_phi.group.identity})
    return sets_phi, sets_phi.sym | sets_phi.zero, ok


def exact_rate(
    char_psi: CharFunction,
    char_phi: CharFunction,
    commutative: bool = False,
    tol: Tolerances = DEFAULT,
) -> RateReport:
    """min over non-excluded g of L(psi,g)/L(phi,g), with the zero-rate branch.

    The rate is zero when phi has a vanishing chi where psi does not
    (modulus monotonicity makes even a single copy of phi unreachable).
    An empty or all-infinite minimum means the rate is unbounded.
    """
    check_same_group(char_psi, char_phi)
    sets_phi, excluded, assumption_ok = _excluded_set(char_phi, commutative, tol)
    sets_psi = classify_sets(char_psi, tol)

    if not sets_phi.zero <= sets_psi.zero:
        return RateReport(kind=ZERO, value=None, witness=None,
                          assumption_ok=assumption_ok, excluded=excluded)

    keep = np.setdiff1d(np.arange(char_psi.group.order), list(excluded))  # increasing
    L_psi, L_phi = -char_psi.logmod[keep], -char_phi.logmod[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.isinf(L_psi), np.inf, L_psi / L_phi)
    best = int(np.argmin(ratio)) if ratio.size else None  # the first minimum: smallest g
    if best is None or np.isinf(ratio[best]):
        return RateReport(kind=UNBOUNDED, value=None, witness=None,
                          assumption_ok=assumption_ok, excluded=excluded)
    return RateReport(kind=FINITE, value=float(ratio[best]), witness=int(keep[best]),
                      assumption_ok=assumption_ok, excluded=excluded)


def copies_bound(
    char_psi: CharFunction,
    char_phi: CharFunction,
    r: float,
    commutative: bool = False,
    tol: Tolerances = DEFAULT,
) -> int:
    """Copy number above which feasibility at sub-optimal rate r is guaranteed.

    With s = max over non-excluded g of |chi_psi(g)| / |chi_phi(g)|^r, the
    conversion psi^N -> phi^{floor(rN)} is feasible whenever
    N > 2 log|G| / (-log s); returns that threshold rounded up plus one.
    """
    check_same_group(char_psi, char_phi)
    if not 0 < r < math.inf:
        raise RateNotBelowOptimal(f"rate must be positive and finite, got {r}")
    _, excluded, _ = _excluded_set(char_phi, commutative, tol)
    keep = np.setdiff1d(np.arange(char_psi.group.order), list(excluded))  # increasing
    log_s = char_psi.logmod[keep] - r * char_phi.logmod[keep]
    log_s = float(log_s.max()) if log_s.size else -math.inf
    if math.isinf(log_s) and log_s < 0:
        return 1  # nothing constrains the conversion
    if log_s >= 0:
        raise RateNotBelowOptimal(f"s = {math.exp(min(log_s, 700)):.6g} >= 1 at rate {r}")
    return math.ceil(2.0 * math.log(char_psi.group.order) / (-log_s)) + 1
