"""The benchmark in perfbench/ reaches into asym by name; every such name must exist.

perfbench/spans.py wraps the functions listed in its TRACED table, and the
workloads call asym.<name> directly. A rename in asym would otherwise only
show when the benchmark runs. Likewise the BENCH_*.json trend files at the
root may only name workloads and metrics that BENCHMARK.json declares.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The object a dotted name refers to, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if not hasattr(obj, attr):
            importlib.import_module(".".join(parts[:i]))  # a submodule not yet imported
        obj = getattr(obj, attr)
    return obj


def test_traced_functions_resolve():
    traced = load_spans().TRACED
    assert traced
    for span, (module, names) in traced.items():
        mod = importlib.import_module(f"asym.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"span {span}: asym.{module}.{name}"


def test_names_the_workloads_use_exist():
    refs = {
        (path.name, m.group(0))
        for path in sorted(PERFBENCH.glob("*.py"))
        for m in re.finditer(r"\basym(?:\.[A-Za-z_]\w*)+", path.read_text())
    }
    assert any(ref == "asym.fourier_weights" for _, ref in refs)
    for filename, ref in sorted(refs):
        try:
            resolve(ref)
        except (AttributeError, ImportError) as exc:
            raise AssertionError(f"{filename} uses {ref}, which does not exist") from exc


def test_bench_files_name_declared_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        for row in json.loads(path.read_text())["results"]:
            where = f"{path.name}: {row['workload']} {row['metric']}"
            assert row["workload"] in workloads, where
            assert units.get(row["metric"]) == row["unit"], where
