"""Characteristic functions on finite groups, the measure L, and classification.

Values are stored as (log-modulus, phase) so that tensor powers up to very
large copy numbers stay representable: |chi|^N lives as N * logmod, never as
an underflowing float; logmod = -inf is an exact zero. One codec encodes chi
here, for every group and for the charge distributions of `abelian` alike
(chi on the label group): `_polar`, `_from_polar`, `make_hermitian`
(chi(g^-1) = conj chi(g)), `negative_parity` (the sign where chi is real,
by parity) and `check_hermitian`. `CharFunction.split_polar` keeps a
Hermitian chi on one element of each pair {g, g^-1} (`groups.PairSplit`),
the slices the interpolator f reads.

A `CharFunction` is immutable: its logmod and phase arrays are read-only,
so what is derived from them is computed on first read and kept. Cached
are the zero mask, the classification `sets` (sym(chi) and the zero set),
the `excluded` set sym u zero, the `kept` indices off it and the
`split_polar` slices. A
`SymNotSubgroup` is not cached: every read of `sets`, `excluded` or `kept`
re-runs the subgroup check and raises again.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, GroupMismatch, NotHermitian, SymNotSubgroup
from .groups import FiniteGroup, PairSplit, ProjectiveRep, PureState, _frozen, as_index, is_subgroup
from .tolerances import TOL_HERM, TOL_ONE, TOL_ZERO


@dataclass(frozen=True, eq=False)
class CharFunction:
    # chi(e) = 1: logmod and phase are 0 at the identity (every constructor sets them)
    group: FiniteGroup
    logmod: np.ndarray  # (n,) float, <= 0, -inf means chi(g) = 0
    phase: np.ndarray  # (n,) float, radians
    commutative: bool = False  # the rep's U(g) commute (ProjectiveRep.commutative)
    linear: bool = False  # chi of a linear rep, stored with chi(g^-1) = conj chi(g)

    def __post_init__(self):
        # read-only copies, so that no cached mask or set can go stale
        for name in ("logmod", "phase"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))

    def values(self) -> np.ndarray:
        return _from_polar(self.logmod, self.phase)

    @functools.cached_property
    def split_polar(self) -> SplitPolar:
        """logmod and phase on the representatives of the group's `pairs`,
        the zero set folded into `target`, built once and kept."""
        pairs = self.group.pairs
        logmod, phase, zero = (a[pairs.heads] for a in (self.logmod, self.phase, self.zero))
        return SplitPolar(
            pairs=pairs,
            logmod=_frozen(logmod),
            target=_frozen(np.where(zero, np.finfo(float).max, logmod)),
            phase=_frozen(phase[pairs.own.size :]),
            negative=_frozen(_negative(phase[: pairs.own.size])),
        )

    @functools.cached_property
    def zero(self) -> np.ndarray:
        """The zero set as a read-only mask, `zero_mask(logmod)`, cut once and kept."""
        return _frozen(zero_mask(self.logmod))

    @functools.cached_property
    def sets(self) -> ClassSets:
        """sym(chi) from `symmetry_subgroup` and the zero set, classified once
        and kept. A SymNotSubgroup leaves nothing cached, so it is raised on
        every read."""
        zero = frozenset(np.flatnonzero(self.zero).tolist())
        return ClassSets(sym=symmetry_subgroup(self), zero=zero)

    @functools.cached_property
    def excluded(self) -> frozenset[int]:
        """sym(chi) u zeros: the elements the rate formula leaves out, kept."""
        return self.sets.sym | self.sets.zero

    @functools.cached_property
    def kept(self) -> np.ndarray:
        """The elements off `excluded`, increasing, as a read-only index array."""
        off = ~self.zero
        off[list(self.sets.sym)] = False
        return _frozen(np.flatnonzero(off))


@dataclass(frozen=True, eq=False)
class SplitPolar:
    """A Hermitian chi (chi(g^-1) = conj chi(g)) in the polar codec, on the
    representatives of its inverse map (`groups.PairSplit`), which fix it:
    what the interpolator f = chi_psi^N / chi_phi^M reads of each chi."""

    pairs: PairSplit
    logmod: np.ndarray  # (n0 + p,) log|chi| on pairs.heads (own, then first)
    # (n0 + p,) logmod, and the largest float on the zero set: M * target is
    # 0 at M = 0 (no 0 * -inf) and at least that float for M >= 1, so
    # log|chi_psi^N| - M * target is below every cut there and f is 0
    target: np.ndarray
    phase: np.ndarray  # (p,) the phase on pairs.first
    negative: np.ndarray  # (n0,) chi < 0 on pairs.own, where chi is real (`negative_parity`)


@dataclass(frozen=True)
class ClassSets:
    sym: frozenset[int]
    zero: frozenset[int]


def check_same_group(a: CharFunction, b: CharFunction) -> None:
    if not a.group.same_as(b.group):
        raise GroupMismatch("characteristic functions live on different groups")


def char_from_values(group: FiniteGroup, values) -> CharFunction:
    """Build a CharFunction from plain complex values (chi(e) forced to 1) of a
    linear rep, whose matrices commute exactly when the group is abelian.
    NotHermitian unless the values are finite with chi(g^-1) = conj chi(g) to
    within TOL_HERM; that symmetry is then made exact (`make_hermitian`)."""
    vals = np.array(values, dtype=complex)
    if vals.shape != (group.order,):
        raise DimensionMismatch(f"expected {group.order} values, got shape {vals.shape}")
    vals[group.identity] = 1.0
    check_hermitian(vals, group.inv, 1.0, "chi")
    make_hermitian(vals, group.pairs)
    return CharFunction(group, *_polar(vals, group.identity, group.pairs), group.is_abelian(),
                        linear=True)


def check_hermitian(vals: np.ndarray, inv: np.ndarray, scale: float, name: str) -> None:
    """NotHermitian unless vals (n,) are finite (naming the first g that is not)
    and vals(g^-1) = conj vals(g) to TOL_HERM * scale."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NotHermitian(f"{name}({bad[0]}) = {vals[bad[0]]} is not finite")
    dev = np.abs(vals - vals[inv].conj()).max()
    if not dev <= TOL_HERM * scale:
        raise NotHermitian(f"{name}(g^-1) deviates from conj {name}(g) by {dev:.3e}")


def make_hermitian(vals: np.ndarray, pairs: PairSplit) -> np.ndarray:
    """Make vals(g^-1) = conj vals(g) exact in vals (..., n), in place, for the
    group's split `pairs`: real on e and the involutions (`own`), conj vals(g)
    at g^-1 for g < g^-1 (`first`; + 0.0 turns an imaginary -0.0 into +0.0,
    so phases stay in (-pi, pi]). It pairs chi, a charge distribution's dual
    coefficients among them (`char_from_values` on the label group)."""
    vals[..., pairs.own] = vals[..., pairs.own].real
    vals[..., pairs.partner] = vals[..., pairs.first].conj() + 0.0
    return vals


def _polar(vals: np.ndarray, identity: int, pairs: PairSplit) -> tuple[np.ndarray, np.ndarray]:
    """The polar codec: (log|chi|, phase) of vals (n,), (0, 0) at the identity,
    log|chi| <= 0 (round-off clipped) and -inf at exact zeros; |chi(g^-1)| =
    |chi(g)|, so g^-1 takes the log-modulus of g < g^-1 (`pairs`)."""
    mod = np.abs(vals)
    with np.errstate(divide="ignore"):
        logmod = np.minimum(np.log(mod), 0.0)
    phase = np.where(mod > 0, np.angle(vals), 0.0)
    logmod[identity] = phase[identity] = 0.0
    logmod[pairs.partner] = logmod[pairs.first]
    return logmod, phase


def _from_polar(logmod: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(logmod + i phase), exactly 0 where logmod is -inf: `_polar` inverted."""
    with np.errstate(under="ignore", invalid="ignore"):
        return np.where(np.isneginf(logmod), 0.0, np.exp(logmod + 1j * phase))


def _negative(phase: np.ndarray) -> np.ndarray:
    """Where a real chi of this phase (0 or pi, up to rounding) is negative."""
    return np.abs(phase) > np.pi / 2


def negative_parity(*powers) -> np.ndarray:
    """True where prod_i chi_i^N_i is negative, on elements where each chi_i
    is real, powers the (negative_i, N_i) with negative_i from `_negative`:
    True iff an odd number of negative chi_i have odd N_i, not exp(i N pi).
    N_i is a number or a column of them, one row each."""
    return functools.reduce(np.logical_xor, (neg & (N % 2 == 1) for neg, N in powers))


def char_function(rep: ProjectiveRep, state: PureState) -> CharFunction:
    """chi(g) = <psi|U(g)|psi>, one sum for every group element. U(g^-1) is
    a phase times U(g)^+, so |chi(g^-1)| = |chi(g)|, and `_polar` gives g^-1
    the log-modulus of g < g^-1. On a linear rep (`rep.linear`)
    chi(g^-1) = conj chi(g): `make_hermitian` overwrites the partner half,
    g^-1 for g < g^-1, with conj chi(g), and makes chi real on the
    involutions. On any other rep chi(g^-1) keeps the phase of its own sum:
    `exact_rate` and `approx` read |chi| alone, and the Gram view refuses
    such a rep."""
    if state.dim != rep.dim:
        raise DimensionMismatch(f"state dim {state.dim} != rep dim {rep.dim}")
    psi = state.amplitudes
    vals = np.einsum("i,gij,j->g", psi.conj(), rep.matrices, psi)
    g = rep.group
    if rep.linear:
        make_hermitian(vals, g.pairs)
    return CharFunction(g, *_polar(vals, g.identity, g.pairs), rep.commutative, rep.linear)


def resource_measure_L(char: CharFunction, g: int) -> float:
    """-log|chi(g)|; +inf where chi vanishes, 0 on the symmetry subgroup.
    DomainError unless g is an integer index into the group."""
    g = as_index(g, "element index", 0, char.group.order)
    return float(-char.logmod[g]) + 0.0  # +inf at -inf, 0.0 (not -0.0) at 0


def zero_mask(logmod: np.ndarray) -> np.ndarray:
    """Where |chi| <= TOL_ZERO, from logmod = log|chi| (-inf for exact zeros)."""
    return logmod <= math.log(TOL_ZERO)


def zero_violation(char_psi: CharFunction, char_phi: CharFunction) -> int:
    """The smallest g where chi_phi vanishes and chi_psi does not, or -1.

    The one statement of the zero-set rule: at such a g no f has
    chi_psi^N = chi_phi^M f for any N and any M >= 1 (chi^N vanishes exactly
    where chi does), so the exact rate is zero (`exact_rate`) and every
    conversion to M >= 1 copies is infeasible with g as its witness
    (`convertibility`). Both zero sets are `CharFunction.zero`, cut once."""
    bad = np.flatnonzero(char_phi.zero & ~char_psi.zero)
    return int(bad[0]) if bad.size else -1


def unit_mask(logmod: np.ndarray) -> np.ndarray:
    """Where |chi| >= 1 - TOL_ONE, from logmod = log|chi|: the symmetry cut."""
    return logmod >= math.log1p(-TOL_ONE)


def symmetry_subgroup(char: CharFunction) -> frozenset[int]:
    """The |chi| = 1 subgroup, cut at 1 - TOL_ONE.

    Raises SymNotSubgroup when the thresholded set fails the subgroup check:
    the exact |chi| = 1 set is always a subgroup, so failure signals a state
    whose |chi| sits within TOL_ONE of 1 off that subgroup.
    """
    sym = frozenset(int(g) for g in np.where(unit_mask(char.logmod))[0])
    if not is_subgroup(char.group, sym):
        raise SymNotSubgroup(f"{sorted(sym)} is not closed under the group law")
    return sym


def classify_sets(char: CharFunction) -> ClassSets:
    """Split G into the |chi| = 1 subgroup and the chi = 0 set: `char.sets`,
    computed on the first call and kept; a SymNotSubgroup is raised on every
    call, never kept."""
    return char.sets


# Copy numbers multiply phases in (-pi, pi]: up to this bound N phase, and a
# difference N a - M b of two such products, stay finite floats.
MAX_COPIES = sys.float_info.max / (2 * math.pi)


def copy_numbers(N, low: int = 1) -> float:
    """One copy number, an int or float (Python's or numpy's), as a Python
    float; DomainError for anything else (a str, bytes or bool, which float()
    would read as a number, or a list, tuple or array of any shape) and for
    a number off the integers, below low or above MAX_COPIES."""
    if isinstance(N, bool) or not isinstance(N, (int, float, np.integer, np.floating)):
        raise DomainError(f"copy number must be an integer, got {N!r}")
    try:
        x = float(N)
    except OverflowError:
        raise DomainError(f"copy number above {MAX_COPIES:.3g}") from None
    if not (low <= x <= MAX_COPIES and x.is_integer()):
        raise DomainError(f"copy number must be an integer in [{low}, {MAX_COPIES:.3g}], got {x:g}")
    return x


def exact_copy_numbers(N, low: int = 1) -> float:
    """`copy_numbers`, and DomainError for an integer that no float holds
    exactly (most above 2^53): the Gram test reads the parity of N and M off
    these floats, so a rounded copy number would decide another conversion."""
    x = copy_numbers(N, low)
    if isinstance(N, (int, np.integer)) and x != int(N):  # a float compares to an int exactly
        raise DomainError(f"copy number {int(N)} has no exact float (it would be read as "
                          f"{x:.17g}); integers up to 2^53 are exact")
    return x


def char_power(char: CharFunction, N: int) -> CharFunction:
    """Characteristic function of the N-fold tensor power state; on a linear
    rep chi^N stays real on e and the involutions, signed by `negative_parity`."""
    n = copy_numbers(N)
    phase = np.angle(np.exp(1j * (char.phase * n)))  # wrapped to (-pi, pi]
    if char.linear:
        phase[char.group.pairs.own] = np.pi * negative_parity((char.split_polar.negative, N))
    return CharFunction(char.group, char.logmod * n, phase, char.commutative, char.linear)
