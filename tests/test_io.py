"""The io loaders: the collector pause and the arrays they return."""

import gc
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from asym import GeneratorSet, io, named_group
from asym.errors import ValidationError
from asym.groups import PureState

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


def _text_mode_outcome(path):
    """What the loaders saw before they read bytes: json.load on a text-mode open."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        return type(exc), str(exc)


STATE = '{"dim": 1,\n "amplitudes": [[1, 0]]}'
ENCODINGS = {
    "utf-8": STATE.encode(),
    "crlf": STATE.replace("\n", "\r\n").encode(),
    "cr": STATE.replace("\n", "\r").encode(),
    "crlf-syntax-error": b'{"dim": 1,\r\n\r\n "amplitudes": [[1, 0]],}',
    "cr-syntax-error": b'{"dim": 1,\r\r "amplitudes": [[1 0]]}',
    "bom": b"\xef\xbb\xbf" + STATE.encode(),
    "utf-16": STATE.encode("utf-16"),
    "invalid-utf-8": b'{"dim": 1, "amplitudes": [[1, 0]], "x": "\xff"}',
    "non-ascii": '{"dim": 1, "amplitudes": [[1, 0]], "name": "ψ"}'.encode(),
}


@pytest.mark.parametrize("name", sorted(ENCODINGS))
@pytest.mark.parametrize("hashing", [False, True])
def test_loader_decodes_as_text_mode_open(tmp_path, name, hashing):
    """Bytes read once are decoded as UTF-8 with universal newlines, the way a
    text-mode open decodes them: same documents, same errors and messages
    (a syntax error's line and column count CR and CRLF as one line end);
    CRLF and bare-CR files load as the LF file; a BOM or UTF-16 is still an
    error."""
    path = tmp_path / "state.json"
    path.write_bytes(ENCODINGS[name])
    want = _text_mode_outcome(path)
    try:
        got = io._load_json(io.HashingPath(str(path)) if hashing else path)
    except ValueError as exc:
        got = type(exc), str(exc)
    assert got == want
    if name in ("bom", "utf-16", "invalid-utf-8") or "error" in name:
        assert isinstance(want, tuple)
    if name in ("crlf", "cr"):
        assert got == json.loads(STATE)


def test_hashing_path_records_the_digest_of_the_bytes_parsed(tmp_path):
    path = tmp_path / "state.json"
    path.write_bytes(ENCODINGS["crlf"])
    source = io.HashingPath(str(path))
    assert source.sha256 is None
    state = io.load_state(source)
    assert state.amplitudes.tolist() == [1 + 0j]
    assert source.sha256 == hashlib.sha256(ENCODINGS["crlf"]).hexdigest()
    assert (str(source), os.fspath(source), os.path.getsize(source)) == (
        str(path), str(path), len(ENCODINGS["crlf"]))


def test_a_numpy_integer_dim_is_stored_as_an_int_and_round_trips(tmp_path):
    # a state keeps dim as a Python int, so save_state writes a JSON integer
    # that load_state accepts
    state = PureState(np.int64(2), np.array([0.6, 0.8]))
    gens = GeneratorSet(np.int64(2), np.zeros((1, 2, 2)))
    assert type(state.dim) is int and type(gens.dim) is int
    io.save_state(tmp_path / "state.json", state)
    io.save_generators(tmp_path / "gens.json", gens)
    assert json.loads((tmp_path / "state.json").read_text())["dim"] == 2
    assert io.load_state(tmp_path / "state.json").amplitudes.tolist() == [0.6, 0.8]
    assert io.load_generators(tmp_path / "gens.json").dim == 2
