"""JSON file formats for groups, representations, states, distributions,
and generator sets.

Complex entries are serialized as [re, im] pairs. Serialized groups always
put the identity at element index 0.
"""

from __future__ import annotations

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


def _load_json(path) -> dict:
    def non_finite(literal: str):
        raise ValidationError(f"{path}: non-finite number {literal}")

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=non_finite)
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


def _finite_floats(entries, path, what: str) -> np.ndarray:
    """entries as a float array. An overflowing literal such as 1e999 parses
    to inf without reaching parse_constant, so finiteness is checked here."""
    arr = np.asarray(entries, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{path}: non-finite {what} entry")
    return arr


def _complex_array(entries, path, what: str) -> np.ndarray:
    arr = _finite_floats(entries, path, what)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValidationError(f"{path}: {what} entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


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


def load_rep(path, group: FiniteGroup) -> ProjectiveRep:
    data = _load_json(path)
    dim = int(_ints(data, "dim", path, 0))
    mats = _complex_array(_require(data, "matrices", path), path, "matrix")
    if mats.shape != (group.order, dim, dim):
        raise ValidationError(
            f"{path}: expected {group.order} matrices of size {dim}x{dim}, got {mats.shape}"
        )
    return validate_projective_rep(group, mats)


def load_state(path) -> PureState:
    data = _load_json(path)
    dim = int(_ints(data, "dim", path, 0))
    amps = _complex_array(_require(data, "amplitudes", path), path, "amplitude")
    if amps.shape != (dim,):
        raise ValidationError(f"{path}: expected {dim} amplitudes, got {amps.shape}")
    return PureState(dim=dim, amplitudes=amps)


def load_distribution(path) -> ChargeDistribution:
    data = _load_json(path)
    shape = tuple(int(x) for x in _ints(data, "shape", path, 1))
    probs = _finite_floats(_require(data, "probs", path), path, "probability")
    return ChargeDistribution(shape=shape, probs=probs)


def load_generators(path) -> GeneratorSet:
    data = _load_json(path)
    dim = int(_ints(data, "dim", path, 0))
    gens = _complex_array(_require(data, "generators", path), path, "generator")
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
