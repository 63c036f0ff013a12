"""JSON file formats for groups, representations, states, distributions,
and generator sets.

Complex entries are serialized as [re, im] pairs. Serialized groups always
put the identity at element index 0.

Each public loader runs with Python's cyclic garbage collector paused. A
parse allocates one list per [re, im] pair (262 144 for an order-64 group
at d = 64), and those allocations trigger collections that can free nothing,
because a parse tree has no cycles. The pause covers the whole loader, so the
tree is freed while the collector is still off and never counts towards a
collection. A caller that had switched the collector off finds it off again
afterwards; one that had it on finds it on, whether the loader returned or
raised.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
from pathlib import Path

import numpy as np

from .abelian import ChargeDistribution
from .errors import ValidationError
from .groups import (
    FiniteGroup,
    ProjectiveRep,
    PureState,
    build_group,
    validate_projective_rep,
)
from .lie import GeneratorSet


def _gc_paused(load):
    """`load` with the cyclic collector off for the call (see the module
    docstring), switched back on afterwards only if it was on before."""

    @functools.wraps(load)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return load(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def _load_json(path) -> dict:
    def non_finite(literal: str):
        raise ValidationError(f"{path}: non-finite number {literal}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=non_finite)
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return data


def _require(data: dict, key: str, path) -> object:
    if key not in data:
        raise ValidationError(f"{path}: missing key {key!r}")
    return data[key]


def _ints(data: dict, key: str, path, ndim: int) -> np.ndarray:
    """data[key] as an ndim-dimensional index array of JSON integers only: not
    bool (an int subclass) and not float (which a cast would truncate)."""
    leaves = [_require(data, key, path)]
    for _ in range(ndim):
        leaves = itertools.chain.from_iterable(leaves)
    try:
        if set(map(type, leaves)) <= {int}:
            return np.asarray(data[key], dtype=np.intp)
    except (TypeError, OverflowError, ValueError):  # not nested ndim deep, too big, ragged
        pass
    raise ValidationError(f"{path}: {key} must be JSON integers nested {ndim} deep")


def _finite_floats(data: dict, key: str, path, what: str) -> np.ndarray:
    """data[key] as a float array of JSON numbers. numpy infers the dtype in
    the same pass that builds the array, so a ragged nesting, a string (even a
    numeric one), null or an all-boolean entry is rejected without a
    per-leaf type check. An overflowing literal such as 1e999 parses to inf
    without reaching parse_constant, so finiteness is checked here."""
    entries = _require(data, key, path)
    try:
        arr = np.asarray(entries)
    except (ValueError, TypeError):  # ragged, or more dimensions than numpy allows
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{path}: {key} must be JSON numbers in a regular nested array")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{path}: non-finite {what} entry")
    return arr


def _complex_array(data: dict, key: str, path, what: str) -> np.ndarray:
    arr = _finite_floats(data, key, path, what)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValidationError(f"{path}: {what} entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


@_gc_paused
def load_group(path) -> FiniteGroup:
    data = _load_json(path)
    mult = _ints(data, "mult_table", path, 2)
    order = int(_ints(data, "order", path, 0))
    group = build_group(mult, name=data.get("name"))
    if group.order != order:
        raise ValidationError(f"{path}: declared order {order} != table size {group.order}")
    if group.identity != 0:
        raise ValidationError(f"{path}: serialized groups must have the identity at index 0")
    return group


@_gc_paused
def load_rep(path, group: FiniteGroup) -> ProjectiveRep:
    data = _load_json(path)
    dim = int(_ints(data, "dim", path, 0))
    mats = _complex_array(data, "matrices", path, "matrix")
    if mats.shape != (group.order, dim, dim):
        raise ValidationError(
            f"{path}: expected {group.order} matrices of size {dim}x{dim}, got {mats.shape}"
        )
    return validate_projective_rep(group, mats)


@_gc_paused
def load_state(path) -> PureState:
    data = _load_json(path)
    dim = int(_ints(data, "dim", path, 0))
    amps = _complex_array(data, "amplitudes", path, "amplitude")
    if amps.shape != (dim,):
        raise ValidationError(f"{path}: expected {dim} amplitudes, got {amps.shape}")
    return PureState(dim=dim, amplitudes=amps)


@_gc_paused
def load_distribution(path) -> ChargeDistribution:
    data = _load_json(path)
    shape = tuple(int(x) for x in _ints(data, "shape", path, 1))
    probs = _finite_floats(data, "probs", path, "probability")
    return ChargeDistribution(shape=shape, probs=probs)


@_gc_paused
def load_generators(path) -> GeneratorSet:
    data = _load_json(path)
    dim = int(_ints(data, "dim", path, 0))
    gens = _complex_array(data, "generators", path, "generator")
    return GeneratorSet(dim=dim, generators=gens)


def _pairs(arr: np.ndarray):
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def save_group(path, group: FiniteGroup) -> None:
    data = {"order": group.order, "mult_table": group.mult.tolist()}
    if group.name:
        data["name"] = group.name
    Path(path).write_text(json.dumps(data))


def save_rep(path, rep: ProjectiveRep) -> None:
    Path(path).write_text(
        json.dumps({"dim": rep.dim, "matrices": _pairs(rep.matrices)})
    )


def save_state(path, state: PureState) -> None:
    Path(path).write_text(
        json.dumps({"dim": state.dim, "amplitudes": _pairs(state.amplitudes)})
    )


def save_distribution(path, dist: ChargeDistribution) -> None:
    Path(path).write_text(
        json.dumps({"shape": list(dist.shape), "probs": dist.probs.tolist()})
    )


def save_generators(path, gens: GeneratorSet) -> None:
    Path(path).write_text(
        json.dumps({"dim": gens.dim, "generators": _pairs(gens.generators)})
    )
