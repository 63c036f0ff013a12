"""Characteristic functions on finite groups, the measure L, and classification.

Values are stored as (log-modulus, phase) so that tensor powers up to very
large copy numbers stay representable: |chi|^N lives as N * logmod, never as
an underflowing float; logmod = -inf is an exact zero. One codec encodes chi
here and the inputs of both feasibility views: `_polar`, `_from_polar`,
`make_hermitian` (chi(g^-1) = conj chi(g)), `real_phase` and
`negative_parity` (the sign where chi is real), `check_hermitian`, and
`split_polar`, which keeps a Hermitian chi on one element of each pair
{g, g^-1} (`groups.PairSplit`), the slices the interpolator f reads.

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
from .groups import FiniteGroup, PairSplit, ProjectiveRep, PureState, _frozen, is_subgroup
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

    @property
    def polar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(logmod, phase, zero mask): the triple `convertibility.interpolate` takes."""
        return self.logmod, self.phase, self.zero

    @functools.cached_property
    def split_polar(self) -> SplitPolar:
        """`polar` on the representatives of the group's `pairs`, built once and kept."""
        return split_polar(self.polar, self.group.pairs)

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
    target: np.ndarray  # (n0 + p,) logmod, 0 on the zero set: M * target has no 0 * -inf
    zero: np.ndarray  # (n0 + p,) the zero mask on pairs.heads
    phase: np.ndarray  # (p,) the phase on pairs.first
    negative: np.ndarray  # (n0,) chi < 0 on pairs.own, where chi is real (`negative_parity`)


def split_polar(polar: tuple[np.ndarray, np.ndarray, np.ndarray], pairs: PairSplit) -> SplitPolar:
    """The `SplitPolar` of a (logmod, phase, zero mask) triple over pairs."""
    logmod, phase, zero = (np.asarray(a)[pairs.heads] for a in polar)
    return SplitPolar(
        pairs=pairs,
        logmod=_frozen(logmod),
        target=_frozen(np.where(zero, 0.0, logmod)),
        zero=_frozen(zero),
        phase=_frozen(phase[pairs.own.size :]),
        negative=_frozen(_negative(phase[: pairs.own.size])),
    )


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
    make_hermitian(vals, group.inv)
    return CharFunction(group, *_polar(vals, group.identity, group.inv), group.is_abelian(),
                        linear=True)


def check_hermitian(vals: np.ndarray, inv: np.ndarray, scale: float, name: str) -> None:
    """NotHermitian unless vals (n,) are finite, vals(g^-1) = conj vals(g) to TOL_HERM * scale."""
    dev = np.abs(vals - vals[inv].conj()).max() if np.isfinite(vals).all() else np.nan
    if not dev <= TOL_HERM * scale:
        raise NotHermitian(f"{name}(g^-1) deviates from conj {name}(g) by {dev:.3e}")


def make_hermitian(vals: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Make vals(g^-1) = conj vals(g) exact in vals (..., n), in place, for the
    inverse map inv (n,): real on e and the involutions, conj vals(g) at g^-1
    for g < g^-1 (+ 0.0 turns an imaginary -0.0 into +0.0, so phases stay in
    (-pi, pi]). It pairs chi, charge-distribution dual coefficients and f."""
    g = np.arange(inv.size)
    own, first = g == inv, g < inv
    vals[..., own] = vals[..., own].real
    vals[..., inv[first]] = vals[..., first].conj() + 0.0
    return vals


def _polar(vals: np.ndarray, identity: int, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polar codec: (log|chi|, phase) of vals (n,), (0, 0) at the identity,
    log|chi| <= 0 (round-off clipped) and -inf at exact zeros; |chi(g^-1)| =
    |chi(g)|, so g^-1 takes the log-modulus of g < g^-1 under inv (n,)."""
    mod = np.abs(vals)
    with np.errstate(divide="ignore"):
        logmod = np.minimum(np.log(mod), 0.0)
    phase = np.where(mod > 0, np.angle(vals), 0.0)
    logmod[identity] = phase[identity] = 0.0
    first = np.flatnonzero(np.arange(inv.size) < inv)
    logmod[inv[first]] = logmod[first]
    return logmod, phase


def _from_polar(logmod: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(logmod + i phase), exactly 0 where logmod is -inf: `_polar` inverted."""
    with np.errstate(under="ignore", invalid="ignore"):
        return np.where(np.isneginf(logmod), 0.0, np.exp(logmod + 1j * phase))


def real_phase(phase: np.ndarray, inv: np.ndarray, *powers) -> np.ndarray:
    """Set phase (..., n) of prod_i chi_i^N_i, powers the (phase_i, N_i), in
    place on e and the involutions of inv (n,), where each chi_i is real:
    pi where it is negative (`negative_parity`)."""
    own = inv == np.arange(inv.size)
    phase[..., own] = np.pi * negative_parity(*((_negative(p[own]), N) for p, N in powers))
    return phase


def _negative(phase: np.ndarray) -> np.ndarray:
    """Where a real chi of this phase (0 or pi, up to rounding) is negative."""
    return np.abs(phase) > np.pi / 2


def negative_parity(*powers) -> np.ndarray:
    """1 where prod_i chi_i^N_i is negative, else 0, on elements where each
    chi_i is real, powers the (negative_i, N_i) with negative_i from
    `_negative`: 1 iff an odd number of negative chi_i have odd N_i, not
    exp(i N pi)."""
    return sum(N % 2 * neg for neg, N in powers) % 2


def char_function(rep: ProjectiveRep, state: PureState) -> CharFunction:
    """chi(g) = <psi|U(g)|psi> for every group element, one sum per pair
    {g, g^-1}: U(g^-1) is a phase times U(g)^+, so |chi(g^-1)| = |chi(g)|
    (`_polar`), and on a linear rep (`rep.linear`) chi(g^-1) = conj chi(g)
    (`make_hermitian`). On any other rep chi(g^-1) keeps the phase of its
    own sum: `exact_rate` and `approx` read |chi| alone, and the Gram view
    refuses such a rep."""
    if state.dim != rep.dim:
        raise DimensionMismatch(f"state dim {state.dim} != rep dim {rep.dim}")
    psi = state.amplitudes
    vals = np.einsum("i,gij,j->g", psi.conj(), rep.matrices, psi)
    if rep.linear:
        make_hermitian(vals, rep.group.inv)
    g = rep.group
    return CharFunction(g, *_polar(vals, g.identity, g.inv), rep.commutative, rep.linear)


def resource_measure_L(char: CharFunction, g: int) -> float:
    """-log|chi(g)|; +inf where chi vanishes, 0 on the symmetry subgroup."""
    if not 0 <= g < char.group.order:
        raise DomainError(f"element index {g} out of range")
    return float(-char.logmod[g]) + 0.0  # +inf at -inf, 0.0 (not -0.0) at 0


def zero_mask(logmod: np.ndarray) -> np.ndarray:
    """Where |chi| <= TOL_ZERO, from logmod = log|chi| (-inf for exact zeros)."""
    return logmod <= math.log(TOL_ZERO)


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


def copy_numbers(N, low: int = 1) -> np.ndarray:
    """Copy numbers (an int or an array of them) as floats; DomainError for
    one that is not an integer, below low or above MAX_COPIES (about 2.9e307)."""
    try:
        x = np.asarray(N, dtype=float)
    except OverflowError:
        raise DomainError(f"copy number above {MAX_COPIES:.3g}") from None
    if x.ndim == 0:  # one copy number, the common case: Python beats three ufuncs
        inside = low <= float(x) <= MAX_COPIES and float(x).is_integer()
    else:
        inside = ((x >= low) & (x <= MAX_COPIES) & (x % 1 == 0)).all()
    if not inside:
        got = next(v for v in x.flat if not (low <= v <= MAX_COPIES and v % 1 == 0))
        raise DomainError(
            f"copy number must be an integer in [{low}, {MAX_COPIES:.3g}], got {got:g}"
        )
    return x


def char_power(char: CharFunction, N: int) -> CharFunction:
    """Characteristic function of the N-fold tensor power state; on a linear
    rep chi^N stays real on e and the involutions (`real_phase`)."""
    n = float(copy_numbers(N))
    phase = np.angle(np.exp(1j * (char.phase * n)))  # wrapped to (-pi, pi]
    if char.linear:
        real_phase(phase, char.group.inv, (char.phase, N))
    return CharFunction(char.group, char.logmod * n, phase, char.commutative, char.linear)
