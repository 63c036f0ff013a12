"""The io loaders: the collector pause and the arrays they return."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from asym import io, named_group
from asym.errors import ValidationError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def gc_state():
    """Set the collector state inside a test; it is on again afterwards."""
    yield lambda on: gc.enable() if on else gc.disable()
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ['{"dim": 1, "amplitudes": [[1, 0]]}',
                                  '{"dim": 1, "amplitudes": [["1", "0"]]}'])
def test_loader_leaves_gc_as_it_found_it(tmp_path, gc_state, enabled, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    gc_state(enabled)
    try:
        io.load_state(path)
    except ValidationError:
        pass
    assert gc.isenabled() is enabled


def test_load_rep_runs_no_collection(tmp_path, gc_state):
    """An order-64, d = 16 file parses into 16 384 pair lists: enough for
    many generation-0 collections if the collector were on."""
    group = named_group("Z_64")
    phases = np.exp(2j * np.pi * np.outer(np.arange(64), 3 * np.arange(16)) / 64)
    mats = phases[:, :, None] * np.eye(16)  # diagonal characters, charges 0, 3, ..., 45
    gpath, rpath = tmp_path / "g.json", tmp_path / "r.json"
    io.save_group(gpath, group)
    rpath.write_text(json.dumps({"dim": 16, "matrices": np.stack(
        [mats.real, mats.imag], axis=-1).tolist()}))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc_state(True)
    gc.collect()  # empty generation counts: only the loaders' allocations count
    gc.callbacks.append(hook)
    try:
        rep = io.load_rep(rpath, io.load_group(gpath))
    finally:
        gc.callbacks.remove(hook)
    assert rep.matrices.shape == (64, 16, 16)
    assert starts == []


def _reference(doc, key):
    """[re, im] pairs parsed as before the dtype check: np.asarray(..., dtype=float)."""
    arr = np.asarray(doc[key], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
def test_corpus_file_loads_to_reference_arrays(name):
    path = CORPUS / name
    doc = json.loads(path.read_text())
    if "mult_table" in doc:
        group = io.load_group(path)
        assert np.array_equal(group.mult, np.asarray(doc["mult_table"]))
    elif "matrices" in doc:
        rep = io.load_rep(path, io.load_group(CORPUS / name.replace("_rep", "")))
        assert np.array_equal(rep.matrices, _reference(doc, "matrices"))
    elif "amplitudes" in doc:
        assert np.array_equal(io.load_state(path).amplitudes, _reference(doc, "amplitudes"))
    else:
        gens = io.load_generators(path)
        assert np.array_equal(gens.generators, _reference(doc, "generators"))
