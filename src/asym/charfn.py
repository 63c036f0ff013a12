"""Characteristic functions on finite groups, the measure L, and classification.

Values are stored as (log-modulus, phase) so that tensor powers up to very
large copy numbers stay representable: |chi|^N lives as N * logmod, never as
an underflowing float. logmod = -inf encodes an exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, GroupMismatch, SymNotSubgroup
from .groups import FiniteGroup, ProjectiveRep, PureState, is_subgroup
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class CharFunction:
    group: FiniteGroup
    logmod: np.ndarray  # (n,) float, <= 0, -inf means chi(g) = 0
    phase: np.ndarray  # (n,) float, radians

    def values(self) -> np.ndarray:
        with np.errstate(under="ignore", invalid="ignore"):
            out = np.exp(self.logmod + 1j * self.phase)
        out[np.isneginf(self.logmod)] = 0.0
        return out


@dataclass(frozen=True)
class ClassSets:
    sym: frozenset[int]
    zero: frozenset[int]


def check_same_group(a: CharFunction, b: CharFunction) -> None:
    if not a.group.same_as(b.group):
        raise GroupMismatch("characteristic functions live on different groups")


def char_from_values(group: FiniteGroup, values) -> CharFunction:
    """Build a CharFunction from plain complex values (chi(e) forced to 1)."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (group.order,):
        raise DimensionMismatch(f"expected {group.order} values, got shape {vals.shape}")
    mod = np.abs(vals)
    with np.errstate(divide="ignore"):
        logmod = np.where(mod > 0, np.log(np.maximum(mod, 1e-320)), -np.inf)
    logmod = np.minimum(logmod, 0.0)  # clip |chi| <= 1 round-off overshoot
    phase = np.where(mod > 0, np.angle(vals), 0.0)
    logmod[group.identity] = 0.0
    phase[group.identity] = 0.0
    return CharFunction(group=group, logmod=logmod, phase=phase)


def char_function(rep: ProjectiveRep, state: PureState) -> CharFunction:
    """chi(g) = <psi|U(g)|psi> for every group element."""
    if state.dim != rep.dim:
        raise DimensionMismatch(f"state dim {state.dim} != rep dim {rep.dim}")
    psi = state.amplitudes
    vals = np.einsum("i,gij,j->g", psi.conj(), rep.matrices, psi)
    return char_from_values(rep.group, vals)


def resource_measure_L(char: CharFunction, g: int) -> float:
    """-log|chi(g)|; +inf where chi vanishes, 0 on the symmetry subgroup."""
    if not 0 <= g < char.group.order:
        raise DomainError(f"element index {g} out of range")
    lm = char.logmod[g]
    return math.inf if np.isneginf(lm) else float(-lm) + 0.0


def zero_mask(logmod: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Where |chi| <= tol.tol_zero, from logmod = log|chi| (-inf for exact zeros)."""
    return logmod <= math.log(tol.tol_zero)


def classify_sets(char: CharFunction, tol: Tolerances = DEFAULT) -> ClassSets:
    """Split G into the |chi| = 1 subgroup and the chi = 0 set.

    Raises SymNotSubgroup when the tolerance-thresholded sym set fails the
    subgroup check: the exact |chi| = 1 set is always a subgroup, so failure
    signals a misconfigured tolerance.
    """
    sym = frozenset(int(g) for g in np.where(char.logmod >= math.log1p(-tol.tol_one))[0])
    zero = frozenset(int(g) for g in np.where(zero_mask(char.logmod, tol))[0])
    if not is_subgroup(char.group, sym):
        raise SymNotSubgroup(f"{sorted(sym)} is not closed under the group law")
    return ClassSets(sym=sym, zero=zero)


def char_power(char: CharFunction, N: int) -> CharFunction:
    """Characteristic function of the N-fold tensor power state."""
    if N < 1:
        raise DomainError(f"copy number must be >= 1, got {N}")
    with np.errstate(invalid="ignore"):
        logmod = char.logmod * N
    logmod[np.isneginf(char.logmod)] = -np.inf
    phase = np.angle(np.exp(1j * (char.phase * N)))  # wrapped to (-pi, pi]
    return CharFunction(group=char.group, logmod=logmod, phase=phase)

