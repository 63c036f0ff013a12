"""Optimal exact i.i.d. conversion rate and the constructive copy-count bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, check_same_group
from .errors import RateNotBelowOptimal

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


def exact_rate(char_psi: CharFunction, char_phi: CharFunction) -> RateReport:
    """min over non-excluded g of L(psi,g)/L(phi,g), with the zero-rate branch.

    The rate is zero when phi has a vanishing chi where psi does not
    (modulus monotonicity makes even a single copy of phi unreachable).
    An empty or all-infinite minimum means the rate is unbounded.
    `assumption_ok` says the formula is proved here: sym(phi) = {e}, or the
    matrices of each rep commute (an abelian group, and a cocycle with
    omega(g, h) = omega(h, g)), so both states split into charge sectors.
    A projective rep of an abelian group may not commute: it is then a rep
    of a nonabelian central extension. Elsewhere the formula is evaluated
    all the same. The formula never reads sym(psi), so psi goes through the
    zero cut alone, not the subgroup check.

    Both forms of the formula exclude sym(phi) u zeros: the commutative one
    removes all of sym(phi), the general finite-group one {e} and the chi_phi
    zero set, where it requires sym(phi) = {e}. phi's classification, that
    excluded set and the increasing index of the elements off it are cached
    on `char_phi` (`sets`, `excluded`, `kept`), so a second call with the
    same phi does O(n) array work and no subgroup check; a SymNotSubgroup is
    not cached and is raised on every call.
    """
    check_same_group(char_psi, char_phi)
    sets_phi, excluded = char_phi.sets, char_phi.excluded
    trivial = sets_phi.sym == frozenset({char_phi.group.identity})
    assumption_ok = trivial or (char_psi.commutative and char_phi.commutative)

    if (char_phi.zero & ~char_psi.zero).any():
        return RateReport(kind=ZERO, value=None, witness=None,
                          assumption_ok=assumption_ok, excluded=excluded)

    keep = char_phi.kept
    L_psi, L_phi = -char_psi.logmod[keep], -char_phi.logmod[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.isinf(L_psi), np.inf, L_psi / L_phi)
    best = int(np.argmin(ratio)) if ratio.size else None  # the first minimum: smallest g
    if best is None or np.isinf(ratio[best]):
        return RateReport(kind=UNBOUNDED, value=None, witness=None,
                          assumption_ok=assumption_ok, excluded=excluded)
    return RateReport(kind=FINITE, value=float(ratio[best]), witness=int(keep[best]),
                      assumption_ok=assumption_ok, excluded=excluded)


def copies_bound(char_psi: CharFunction, char_phi: CharFunction, r: float) -> int:
    """Copy number above which feasibility at sub-optimal rate r is guaranteed.

    With s = max over g off sym(phi) u zeros of |chi_psi(g)| / |chi_phi(g)|^r, the
    conversion psi^N -> phi^{floor(rN)} is feasible whenever
    N > 2 log|G| / (-log s); returns that threshold rounded up plus one.
    The elements off sym(phi) u zeros are read from the cache on `char_phi`.
    """
    check_same_group(char_psi, char_phi)
    if not 0 < r < math.inf:
        raise RateNotBelowOptimal(f"rate must be positive and finite, got {r}")
    keep = char_phi.kept
    log_s = char_psi.logmod[keep] - r * char_phi.logmod[keep]
    log_s = float(log_s.max()) if log_s.size else -math.inf
    if math.isinf(log_s) and log_s < 0:
        return 1  # nothing constrains the conversion
    if log_s >= 0:
        raise RateNotBelowOptimal(f"s = {math.exp(min(log_s, 700)):.6g} >= 1 at rate {r}")
    return math.ceil(2.0 * math.log(char_psi.group.order) / (-log_s)) + 1
