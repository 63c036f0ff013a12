"""Characteristic functions on finite groups, the measure L, and classification.

Values are stored as (log-modulus, phase) so that tensor powers up to very
large copy numbers stay representable: |chi|^N lives as N * logmod, never as
an underflowing float. logmod = -inf encodes an exact zero.
"""

from __future__ import annotations

import math
import sys
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
    commutative: bool = False  # the rep's U(g) commute (ProjectiveRep.commutative)

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
    """Build a CharFunction from plain complex values (chi(e) forced to 1) of a
    linear rep, whose matrices commute exactly when the group is abelian."""
    return _char(group, values, group.is_abelian())


def _char(group: FiniteGroup, values, commutative: bool) -> CharFunction:
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
    return CharFunction(group=group, logmod=logmod, phase=phase, commutative=commutative)


def char_function(rep: ProjectiveRep, state: PureState) -> CharFunction:
    """chi(g) = <psi|U(g)|psi> for every group element."""
    if state.dim != rep.dim:
        raise DimensionMismatch(f"state dim {state.dim} != rep dim {rep.dim}")
    psi = state.amplitudes
    vals = np.einsum("i,gij,j->g", psi.conj(), rep.matrices, psi)
    return _char(rep.group, vals, rep.commutative)


def resource_measure_L(char: CharFunction, g: int) -> float:
    """-log|chi(g)|; +inf where chi vanishes, 0 on the symmetry subgroup."""
    if not 0 <= g < char.group.order:
        raise DomainError(f"element index {g} out of range")
    lm = char.logmod[g]
    return math.inf if np.isneginf(lm) else float(-lm) + 0.0


def zero_mask(logmod: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Where |chi| <= tol.tol_zero, from logmod = log|chi| (-inf for exact zeros)."""
    return logmod <= math.log(tol.tol_zero)


def unit_mask(logmod: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Where |chi| >= 1 - tol.tol_one, from logmod = log|chi|: the symmetry cut."""
    return logmod >= math.log1p(-tol.tol_one)


def symmetry_subgroup(char: CharFunction, tol: Tolerances = DEFAULT) -> frozenset[int]:
    """The |chi| = 1 subgroup, cut at 1 - tol.tol_one.

    Raises SymNotSubgroup when the thresholded set fails the subgroup check:
    the exact |chi| = 1 set is always a subgroup, so failure signals a
    misconfigured tolerance.
    """
    sym = frozenset(int(g) for g in np.where(unit_mask(char.logmod, tol))[0])
    if not is_subgroup(char.group, sym):
        raise SymNotSubgroup(f"{sorted(sym)} is not closed under the group law")
    return sym


def classify_sets(char: CharFunction, tol: Tolerances = DEFAULT) -> ClassSets:
    """Split G into the |chi| = 1 subgroup and the chi = 0 set."""
    zero = frozenset(int(g) for g in np.where(zero_mask(char.logmod, tol))[0])
    return ClassSets(sym=symmetry_subgroup(char, tol), zero=zero)


# Copy numbers multiply phases in (-pi, pi]: up to this bound N phase, and a
# difference N a - M b of two such products, stay finite floats.
MAX_COPIES = sys.float_info.max / (2 * math.pi)


def copy_numbers(N, low: int = 1) -> np.ndarray:
    """Copy numbers (an int or an array of them) as floats; DomainError for
    one below low or above MAX_COPIES (about 2.9e307)."""
    try:
        x = np.asarray(N, dtype=float)
    except OverflowError:
        raise DomainError(f"copy number above {MAX_COPIES:.3g}") from None
    if x.ndim == 0:  # one copy number, the common case: Python beats two ufuncs
        inside = low <= float(x) <= MAX_COPIES
    else:
        inside = ((x >= low) & (x <= MAX_COPIES)).all()
    if not inside:
        got = next(v for v in x.flat if not low <= v <= MAX_COPIES)
        raise DomainError(f"copy number must lie in [{low}, {MAX_COPIES:.3g}], got {got:g}")
    return x


def char_power(char: CharFunction, N: int) -> CharFunction:
    """Characteristic function of the N-fold tensor power state."""
    n = float(copy_numbers(N))
    with np.errstate(invalid="ignore"):
        logmod = char.logmod * n
    logmod[np.isneginf(char.logmod)] = -np.inf
    phase = np.angle(np.exp(1j * (char.phase * n)))  # wrapped to (-pi, pi]
    return CharFunction(group=char.group, logmod=logmod, phase=phase,
                        commutative=char.commutative)
