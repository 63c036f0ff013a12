"""Benchmark of the asym toolkit: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; asym is imported from ./src. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones
(setup_s, wall_s, peak_rss_mb); with --trace 1 they are the per-layer ones.
See perfbench/README.md for the workloads and how times are measured.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: on two cores the default two-thread OpenBLAS has the
# same median but a far wider spread. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("cli_ingest", "oracle_scan", "charge_fisher")
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups

SAMPLE_S = 0.05  # period of the speed samples
WINDOW_S = 0.15  # a call is scaled by the samples within this distance of it
CAL_REF_S = 4.0e-4  # kernel time that defines the reference speed


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import numpy and asym from ./src; None when the checkout has no program."""
    if not (ROOT / "src" / "asym" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import asym

    if Path(asym.__file__).resolve().parent != ROOT / "src" / "asym":
        return None
    return asym


class Clock:
    """Wall time scaled to a reference CPU speed.

    On a shared virtual machine the CPU speed can change by up to four times,
    for seconds at a time, on all cores at once and for all work alike. So a
    SIGALRM handler times a fixed kernel of interpreter and small-matrix work
    every SAMPLE_S. A call's time, less the handler's own time, is multiplied
    by the mean of CAL_REF_S / kernel time over the samples within WINDOW_S of
    the call: figures read as seconds at the speed where the kernel takes
    CAL_REF_S.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._b = np.random.default_rng(12345).standard_normal((16, 16))
        self.starts, self.ends, self.kernels = [], [], []
        self._busy = False
        self._previous = None

    def _kernel(self):
        t = time.perf_counter()
        s = 0
        for i in range(3000):
            s += (i * i) % 7
        x = self._b
        for _ in range(50):
            x = x @ self._b
            x = x / self._np.abs(x).max()
        return time.perf_counter() - t

    def _sample(self, signum, frame):
        # tracemalloc (on inside build_group in a traced run) slows the kernel's
        # allocations, not the machine
        if self._busy or tracemalloc.is_tracing():
            return
        self._busy = True
        t0 = time.perf_counter()
        k = min(self._kernel(), self._kernel())  # the first may run on cold caches
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.kernels.append(k)
        self._busy = False

    def start(self):
        self._kernel()  # page faults and BLAS start-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def net(self, t0, t1):
        """t1 - t0 less the time the sampling handler ran inside it."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(min(e, t1) - max(s, t0) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (t1 - t0) - max(inside, 0.0)

    def scale(self, t0, t1):
        w = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - w)
            hi = bisect.bisect_right(self.starts, t1 + w)
            if hi - lo >= 2 or w > 60:
                break
            w *= 2
        ks = self.kernels[lo:hi] or [CAL_REF_S]
        return sum(CAL_REF_S / k for k in ks) / len(ks)

    def scaled(self, t0, t1):
        return self.net(t0, t1) * self.scale(t0, t1)


def timed(fn):
    """(result or the exception it raised, start, end)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    return out, t0, time.perf_counter()


class SetupTimer:
    """`step(fn)` runs one set-up step and records when it ran."""

    def __init__(self, tracer, rep, intervals):
        self.tracer, self.rep, self.intervals = tracer, rep, intervals
        self.n = 0

    def __call__(self, fn):
        scope = ("setup", self.rep, self.n)
        self.n += 1
        if self.tracer:
            self.tracer.scope = scope
        out, t0, t1 = timed(fn)
        if self.tracer:
            self.tracer.scope = None
        if isinstance(out, Exception):
            raise out
        self.intervals[scope] = (t0, t1)
        return out


def run_round(ops, tracer, index, intervals):
    """One pass over the batch, each call timed on its own."""
    outs = []
    for k, op in enumerate(ops):
        scope = ("round", index, k)
        if tracer:
            tracer.scope = scope
        out, t0, t1 = timed(op.call)
        if tracer:
            tracer.scope = None
        intervals[scope] = (t0, t1)
        outs.append(out)
    return outs


def check_round(ops, outs, wl, problems):
    """Check every output; returns the number of failed operations."""
    failed = 0
    for op, out in zip(ops, outs):
        try:
            if isinstance(out, Exception):
                raise wl.Failed(f"{type(out).__name__}: {out}")
            op.check(out)
        except wl.Failed as exc:
            failed += 1
            problems.setdefault(("failed", op.name), str(exc)[:300])
        except wl.Mismatch as exc:
            problems.setdefault(("wrong", op.name), str(exc)[:300])
        except Exception:  # a check that crashes is a wrong answer, reported in full
            problems.setdefault(("wrong", op.name), traceback.format_exc(limit=3)[-600:])
    return failed


def measure(args, wl, tracer, workdir):
    """Set-ups, then whole rounds until the time is up; returns the raw record."""
    setup_fn = getattr(wl, "setup_" + args.workload)
    intervals = {}
    n_setups = 1 if tracer else SETUP_REPEATS
    for rep in range(n_setups):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        if tracer:
            tracer.install()
        ops = setup_fn(args.seed, SetupTimer(tracer, rep, intervals), workdir)
        if tracer:
            tracer.uninstall()

    problems, rounds = {}, []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(rounds)
        traced = bool(tracer) and index % 2 == 1  # the traced run alternates
        if traced:
            tracer.install()
        outs = run_round(ops, tracer if traced else None, index, intervals)
        if traced:
            tracer.uninstall()
        rounds.append(traced)
        attempted += len(ops)
        failed += check_round(ops, outs, wl, problems)
        if time.perf_counter() >= deadline and (not tracer or any(rounds)):
            break
    return intervals, n_setups, rounds, attempted, failed, problems


def main(argv=None):
    args = _parse(argv)
    if _import_program() is None:
        print("asym sources not found under ./src; run from a checkout", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    import spans
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    clock = Clock()
    clock.start()
    try:
        intervals, n_setups, rounds, attempted, failed, problems = measure(
            args, wl, tracer, workdir)
    finally:
        clock.stop()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    scaled = {scope: clock.scaled(*iv) for scope, iv in intervals.items()}
    import_s = (t_import - T_START) * clock.scale(t_import, t_import)
    setups = [sum(v for s, v in scaled.items() if s[:2] == ("setup", r)) for r in range(n_setups)]
    per_round = [sum(v for s, v in scaled.items() if s[:2] == ("round", r))
                 for r in range(len(rounds))]
    raw = [sum(clock.net(*iv) for s, iv in intervals.items() if s[:2] == ("round", r))
           for r in range(len(rounds))]
    plain = [t for t, traced in zip(per_round, rounds) if not traced]

    correct = not any(kind == "wrong" for kind, _ in problems)
    for (kind, name), msg in sorted(problems.items()):
        print(f"{kind}: {name}: {msg}", file=sys.stderr)

    if tracer:
        traced_rounds = [r for r, traced in enumerate(rounds) if traced]
        scales = {scope: clock.scale(*iv) for scope, iv in intervals.items()}
        layers = spans.layer_metrics(tracer, clock.net, scales, traced_rounds)
        layers["trace.overhead_s"] = (statistics.median(per_round[r] for r in traced_rounds)
                                      - statistics.median(plain))
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_units()}
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", scales)
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  import_s=import_s, setups_s=setups, rounds_s=per_round, traced=rounds,
                  rounds_raw_s=raw, samples=len(clock.kernels))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
