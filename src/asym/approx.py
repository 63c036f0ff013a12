"""Approximate i.i.d. conversion for finite groups: the unbounded-or-zero
classification and the convergence to the uniform state.

Copies of psi converge exponentially to the uniform state of H = sym(psi):
with s = max |chi_psi| off H, the distance after |G| N copies is at most
|G| s^{|G| N} / 2. That uniform state generates any phi with H contained in
sym(phi) exactly, so the approximate rate is unbounded iff sym(psi) is
contained in sym(phi), and zero otherwise. Both subgroups, and the elements
off H, are those of `symmetry_subgroup`, read from the classification cached
on each `CharFunction` (`sets`); nothing here cuts |chi| a second time, since
the bound holds at any s. The class report and the curve of an unbounded
pair take s from one function, `_decay_base`, so they hold the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFunction, check_same_group, copy_numbers
from .errors import DomainError, SelfCheckFailed
from .tolerances import TOL_CURVE


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


def _off_sym(char: CharFunction) -> np.ndarray:
    """log|chi| off the cached symmetry subgroup, in element order."""
    return np.delete(char.logmod, list(char.sets.sym))


def _decay_base(char: CharFunction) -> float:
    """s = max |chi| off the symmetry subgroup; 0 when nothing is off it."""
    return float(np.exp(np.max(_off_sym(char), initial=-np.inf)))


def convergence_to_uniform(char_psi: CharFunction, N_list) -> ConvergenceReport:
    """Exponential convergence of psi^{|G| N} to the uniform state of sym(psi).

    For each N >= 1 emits the proven overlap bound |G| s^{|G| N} / 2 with
    s = max |chi| off the symmetry subgroup (`_decay_base`), and the measured
    proxy (1/2) sum over g off sym of |chi(g)|^{|G| N}; the proxy never exceeds
    the bound. N_list is an iterable of copy numbers, each gated on its own
    (`copy_numbers`): DomainError for an entry that gate refuses, a list or
    array among them, and for an N_list that is no iterable.
    """
    s = _decay_base(char_psi)
    try:
        N_list = list(N_list)
    except TypeError:
        raise DomainError(f"copy numbers must be a list of integers, got {N_list!r}") from None
    copies = [copy_numbers(N) for N in N_list]
    n = char_psi.group.order
    off = _off_sym(char_psi)
    log_s = math.log(s) if s > 0 else -math.inf
    points = []
    for N, N_float in zip(N_list, copies):
        with np.errstate(under="ignore"):
            eps = 0.5 * n * math.exp(n * N_float * log_s) if s > 0 else 0.0
            delta = 0.5 * float(np.exp(n * N_float * off).sum())
        if not delta <= eps + TOL_CURVE:
            raise SelfCheckFailed(f"distance {delta!r} exceeds the bound {eps!r} at N = {N}")
        points.append(ConvergencePoint(N=int(N), bound=eps, distance=delta))
    return ConvergenceReport(s=s, sym=char_psi.sets.sym, points=points)


def approx_rate_class(char_psi: CharFunction, char_phi: CharFunction) -> ApproxReport:
    """Unbounded iff sym(psi) is contained in sym(phi); zero otherwise."""
    check_same_group(char_psi, char_phi)
    sym_psi, sym_phi = char_psi.sets.sym, char_phi.sets.sym
    unbounded = sym_psi <= sym_phi
    return ApproxReport(
        classification="unbounded" if unbounded else "zero",
        sym_psi=sym_psi,
        sym_phi=sym_phi,
        s=_decay_base(char_psi) if unbounded else None,
    )
