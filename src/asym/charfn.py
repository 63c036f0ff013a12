"""Characteristic functions on finite groups, the measure L, and classification.

Values are stored as (log-modulus, phase) so that tensor powers up to very
large copy numbers stay representable: |chi|^N lives as N * logmod, never as
an underflowing float. logmod = -inf encodes an exact zero. |chi(g^-1)| =
|chi(g)| is stored exactly, and so is chi(g^-1) = conj chi(g) for a linear
rep (`make_hermitian`, which pairs the interpolators of both views too).

A `CharFunction` is immutable: its logmod and phase arrays are read-only,
so what is derived from them is computed on first read and kept. Cached
are the zero mask, the classification `sets` (sym(chi) and the zero set),
the `excluded` set sym u zero and the `kept` indices off it. A
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
from .groups import FiniteGroup, ProjectiveRep, PureState, is_subgroup
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
        with np.errstate(under="ignore", invalid="ignore"):
            out = np.exp(self.logmod + 1j * self.phase)
        out[np.isneginf(self.logmod)] = 0.0
        return out

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    dev = np.abs(vals - vals[group.inv].conj()).max() if np.isfinite(vals).all() else np.nan
    if not dev <= TOL_HERM:
        raise NotHermitian(f"chi(g^-1) deviates from conj chi(g) by {dev:.3e}")
    make_hermitian(vals, group.inv)
    return CharFunction(group, *_polar(group, vals), commutative=group.is_abelian(), linear=True)


def make_hermitian(vals: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Make vals(g^-1) = conj vals(g) exact in vals (..., n), in place, for the
    inverse map inv (n,): real on e and the involutions, conj vals(g) at g^-1
    for g < g^-1 (+ 0.0 turns an imaginary -0.0 into +0.0, so phases stay in
    (-pi, pi]). It pairs chi on a linear rep and every interpolator."""
    g = np.arange(inv.size)
    own, first = g == inv, g < inv
    vals[..., own] = vals[..., own].real
    vals[..., inv[first]] = vals[..., first].conj() + 0.0
    return vals


def _polar(group: FiniteGroup, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|chi|, phase) of the complex values vals (n,), (0, 0) at the identity;
    |chi(g^-1)| = |chi(g)| on every projective rep, so g^-1 takes the
    log-modulus of chi(g) for g < g^-1."""
    mod = np.abs(vals)
    with np.errstate(divide="ignore"):
        logmod = np.where(mod > 0, np.log(np.maximum(mod, 1e-320)), -np.inf)
    logmod = np.minimum(logmod, 0.0)  # clip |chi| <= 1 round-off overshoot
    phase = np.where(mod > 0, np.angle(vals), 0.0)
    logmod[group.identity] = 0.0
    phase[group.identity] = 0.0
    first = np.flatnonzero(np.arange(group.order) < group.inv)
    logmod[group.inv[first]] = logmod[first]
    return logmod, phase


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
    return CharFunction(rep.group, *_polar(rep.group, vals),
                        commutative=rep.commutative, linear=rep.linear)


def resource_measure_L(char: CharFunction, g: int) -> float:
    """-log|chi(g)|; +inf where chi vanishes, 0 on the symmetry subgroup."""
    if not 0 <= g < char.group.order:
        raise DomainError(f"element index {g} out of range")
    lm = char.logmod[g]
    return math.inf if np.isneginf(lm) else float(-lm) + 0.0


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
    """Characteristic function of the N-fold tensor power state. On a linear
    rep chi is real on e and the involutions, and chi^N stays real there: its
    phase is pi where chi < 0 and N is odd, else 0, read from the parity of
    N, not from exp(i N pi)."""
    n = float(copy_numbers(N))
    with np.errstate(invalid="ignore"):
        logmod = char.logmod * n
    logmod[np.isneginf(char.logmod)] = -np.inf
    phase = np.angle(np.exp(1j * (char.phase * n)))  # wrapped to (-pi, pi]
    if char.linear:
        own = np.arange(char.group.order) == char.group.inv
        phase[own] = np.where((np.abs(char.phase[own]) > np.pi / 2) & (N % 2 == 1), np.pi, 0.0)
    return CharFunction(group=char.group, logmod=logmod, phase=phase,
                        commutative=char.commutative, linear=char.linear)
