"""Approximate i.i.d. conversion for finite groups: uniform states and the
unbounded-or-zero classification.

Any resource state converges exponentially (in copies) to the uniform state
of its symmetry subgroup, which then generates arbitrarily many copies of
any target whose symmetry contains that subgroup; hence the approximate
rate is either unbounded or zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, check_same_group, classify_sets
from .errors import NoDecay, NotASubgroup, SelfCheckFailed
from .groups import FiniteGroup, is_subgroup
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class UniformCharFunction:
    group: FiniteGroup
    subgroup: frozenset[int]

    def values(self) -> np.ndarray:
        out = np.zeros(self.group.order)
        out[list(self.subgroup)] = 1.0
        return out


@dataclass(frozen=True)
class ConvergencePoint:
    N: int
    bound: float  # |G| s^{|G| N} / 2
    distance: float  # characteristic-function distance to the uniform state


@dataclass(frozen=True)
class ConvergenceReport:
    s: float
    sym: frozenset[int]
    points: list[ConvergencePoint]


@dataclass(frozen=True)
class ApproxReport:
    classification: str  # 'unbounded' or 'zero'
    sym_psi: frozenset[int]
    sym_phi: frozenset[int]
    s: float | None  # decay base for the uniform-state stage, when unbounded
    generation_ok: bool | None  # target reachable from the uniform state


def uniform_char(group: FiniteGroup, H) -> UniformCharFunction:
    """Indicator characteristic function of a subgroup H."""
    Hs = frozenset(int(h) for h in H)
    if not is_subgroup(group, Hs):
        raise NotASubgroup(f"{sorted(Hs)} is not a subgroup")
    return UniformCharFunction(group=group, subgroup=Hs)


def _decay_base(char_psi: CharFunction, sym: frozenset[int]) -> float:
    rest = [char_psi.logmod[g] for g in range(char_psi.group.order) if g not in sym]
    if not rest:
        return 0.0
    return float(np.exp(max(rest)))


def convergence_to_uniform(
    char_psi: CharFunction,
    N_list,
    tol: Tolerances = DEFAULT,
) -> ConvergenceReport:
    """Exponential convergence of psi^{|G| N} to the uniform state of sym(psi).

    For each N emits the proven overlap bound |G| s^{|G| N} / 2 with
    s = max |chi| off the symmetry subgroup, and the measured proxy
    (1/2) sum over g off sym of |chi(g)|^{|G| N}; the proxy never exceeds
    the bound.
    """
    sets = classify_sets(char_psi, tol)
    n = char_psi.group.order
    s = _decay_base(char_psi, sets.sym)
    if len(sets.sym) < n and s >= 1.0 - tol.tol_one:
        raise NoDecay(f"largest off-symmetry |chi| = {s!r}")
    log_s = math.log(s) if s > 0 else -math.inf
    points = []
    for N in N_list:
        if N < 1:
            continue
        with np.errstate(under="ignore"):
            eps = 0.5 * n * math.exp(n * N * log_s) if s > 0 else 0.0
            delta = 0.5 * float(
                sum(
                    math.exp(n * N * char_psi.logmod[g])
                    for g in range(n)
                    if g not in sets.sym and not np.isneginf(char_psi.logmod[g])
                )
            )
        if not delta <= eps + 1e-15:
            raise SelfCheckFailed(f"distance {delta!r} exceeds the bound {eps!r} at N = {N}")
        points.append(ConvergencePoint(N=int(N), bound=eps, distance=delta))
    return ConvergenceReport(s=s, sym=sets.sym, points=points)


def can_generate_from_uniform(
    group: FiniteGroup,
    H,
    char_phi: CharFunction,
    M: int,
    tol: Tolerances = DEFAULT,
) -> bool:
    """Whether phi^{|G| M} is exactly reachable from the uniform state of H.

    True iff H is contained in sym(phi); the witness identity
    chi_uni = chi_uni * chi_phi^{|G| M} is re-verified numerically.
    """
    uni = uniform_char(group, H)
    sets_phi = classify_sets(char_phi, tol)
    if not uni.subgroup <= sets_phi.sym:
        return False
    n = group.order
    ind = uni.values()
    with np.errstate(under="ignore"):
        prod_mod = ind * np.exp(char_phi.logmod * n * M)
    if not np.abs(prod_mod - ind).max() <= n * M * tol.tol_one * 10 + 1e-12:
        raise SelfCheckFailed("chi_uni * |chi_phi|^(|G| M) differs from chi_uni")
    return True


def approx_rate_class(
    char_psi: CharFunction,
    char_phi: CharFunction,
    tol: Tolerances = DEFAULT,
) -> ApproxReport:
    """Unbounded iff sym(psi) is contained in sym(phi); zero otherwise."""
    check_same_group(char_psi, char_phi)
    sets_psi = classify_sets(char_psi, tol)
    sets_phi = classify_sets(char_phi, tol)
    if sets_psi.sym <= sets_phi.sym:
        s = _decay_base(char_psi, sets_psi.sym)
        gen_ok = can_generate_from_uniform(
            char_psi.group, sets_psi.sym, char_phi, 1, tol
        )
        return ApproxReport(
            classification="unbounded",
            sym_psi=sets_psi.sym,
            sym_phi=sets_phi.sym,
            s=s,
            generation_ok=gen_ok,
        )
    return ApproxReport(
        classification="zero",
        sym_psi=sets_psi.sym,
        sym_phi=sets_phi.sym,
        s=None,
        generation_ok=None,
    )
