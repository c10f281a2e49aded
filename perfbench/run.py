"""Run one specsal benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-demo --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports specsal from ``src/``
and works in ``.perfbench_work/``, which it removes again. With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer ones. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One closed-loop client on one core: BLAS runs single-threaded, which keeps
# run-to-run spread low on a shared machine and stays within nproc anywhere.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 9  # spread over the measured time, so their median sees its whole range
CLI_START_SHARE = 0.2  # share of the measured time spent starting fresh CLI processes
IMPORT_PROBES = 5
# glibc maps every buffer above 128 KiB afresh and unmaps it on free, so each
# call faulted its numpy arrays in again: about 740 page faults per baseline
# call. Their cost on the shared VM swung from run to run and set most of the
# spread. With these thresholds freed memory is reused instead (1 fault per
# call). The price: a change that only cuts allocations shows less gain here.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
WORKLOAD_NAMES = ("train-demo", "infer-spectral", "score-baselines")


class Harness:
    """Runs specsal CLI calls in process, timing them and counting failures."""

    def __init__(self, cli_main, tracer, env):
        self.cli_main = cli_main
        self.tracer = tracer
        self.env = env
        self.tracing = False
        self.inputs = None
        self.samples = defaultdict(list)  # kind -> [(seconds, work count)]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def setup_call(self, argv) -> None:
        argv = [str(a) for a in argv]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = self.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"set-up call specsal {' '.join(argv)} exited {code}: {captured.getvalue()}")

    def timed(self, kind: str, argv, count: int = 1, unit: bool = False) -> None:
        """One CLI call; its time is a sample of `kind` when it exits 0."""
        argv = [str(a) for a in argv]
        call = self.cli_main
        if unit and self.tracing:
            call = lambda args: self.tracer.unit(self.cli_main, args)  # noqa: E731
        self.attempted += 1
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = call(argv)
            except Exception:  # a crash fails this operation, not the whole run
                code = traceback.format_exc(limit=-3)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(f"specsal {argv[0]} exited {code}: {captured.getvalue().strip()[-300:]}")
        else:
            self.samples[kind].append((elapsed, count))

    def cli_start(self) -> float:
        """Time one fresh `python -m specsal.cli --help` process."""
        self.attempted += 1
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "specsal.cli", "--help"], env=self.env,
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              check=False)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            self.fail(f"specsal --help exited {done.returncode}")
        else:
            self.samples["cli_start"].append((elapsed, 1))
        return elapsed

    def set_tracing(self, on: bool) -> None:
        if on != self.tracing:
            (self.tracer.install if on else self.tracer.uninstall)()
            self.tracing = on


class SetUp:
    """Renders the workload's inputs; the first copy is the one the loop reads."""

    def __init__(self, h, workload, work: Path):
        self.h = h
        self.workload = workload
        self.work = work
        self.seconds = []

    def __call__(self) -> None:
        directory = self.work / f"setup-{len(self.seconds)}"
        began = time.perf_counter()
        self.workload.setup(self.h, directory)
        self.seconds.append(time.perf_counter() - began)
        if self.h.inputs is None:
            self.h.inputs = directory
            return
        self.h.attempted += 1
        if _tree(directory) != _tree(self.h.inputs):
            self.h.fail(f"{directory.name} rendered other inputs than {self.h.inputs.name}")
        shutil.rmtree(directory)


def _check_outputs(h, workload, paths, out, reference, traced) -> None:
    """Verify first-seen outputs; every later copy must match them byte for byte."""
    for path in paths:
        h.attempted += 1
        key = path.relative_to(out)
        data = path.read_bytes() if path.is_file() else None
        if key not in reference:
            reference[key] = data
            try:
                problems = ["missing"] if data is None else workload.verify(h, path, data)
            except (ValueError, KeyError, OSError) as err:
                problems = [f"unreadable: {err!r}"]
            for problem in problems:
                h.fail(f"{key}: {problem}")
        elif data != reference[key]:
            h.fail(f"{key}: {'traced' if traced else 'untraced'} output differs from the first one")


def measure(h, workload, out: Path, seconds: float, trace: bool, set_up: SetUp):
    """Warm up for one cycle, then loop whole iterations for `seconds`.

    Returns iteration times {traced: [seconds]}. An untraced run fits fresh
    CLI starts and the repeated set-ups between iterations. A traced run
    alternates untraced and traced blocks of `workload.cycle` iterations, so
    both write the same files and their times give the tracing overhead.
    """
    reference = {}
    out.mkdir(parents=True)
    for index in range(workload.cycle):
        paths = workload.iteration(h, index, out)
        _check_outputs(h, workload, paths, out, reference, traced=False)
    h.samples.clear()

    times = {False: [], True: []}
    start = time.perf_counter()
    deadline = start + seconds
    cli_spent = 0.0
    index = 0
    while True:
        traced = trace and (index // workload.cycle) % 2 == 1
        h.set_tracing(traced)
        began = time.perf_counter()
        paths = workload.iteration(h, index, out)
        times[traced].append(time.perf_counter() - began)
        h.set_tracing(False)
        _check_outputs(h, workload, paths, out, reference, traced)
        index += 1
        if not trace:
            while len(set_up.seconds) < SETUP_REPEATS and (
                time.perf_counter() - start >= seconds * len(set_up.seconds) / SETUP_REPEATS
            ):
                set_up()
            while cli_spent < CLI_START_SHARE * (time.perf_counter() - start):
                cli_spent += h.cli_start()
        if time.perf_counter() >= deadline and (not trace or index >= 2 * workload.cycle):
            while not trace and len(set_up.seconds) < SETUP_REPEATS:
                set_up()
            return times


def _environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for library in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            query = ctypes.CDLL(library).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.restype = ctypes.c_int
        threads = query()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc_env": {var: os.environ.get(var) for var in MALLOC_ENV},
    }


def run(args) -> dict:
    from specsal.cli import main as cli_main

    import spans
    from workloads import WORKLOADS, latency_ms

    workload = WORKLOADS[args.workload](args.seed)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    tracer = spans.Tracer(workload.unit_span) if args.trace else None
    h = Harness(cli_main, tracer, env)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        set_up = SetUp(h, workload, work)
        set_up()
        times = measure(h, workload, work / "out", args.seconds, bool(args.trace), set_up)
        if args.trace:
            metrics, silent = spans.report(tracer, args.workload)
            for name in silent:
                h.attempted += 1
                h.fail(f"per-layer metric {name} saw no calls on {args.workload}")
            probe = [sys.executable, "-X", "importtime", "-c", "import specsal.cli, specsal.tensor"]
            for name, value in spans.import_times_ms(probe, env, ROOT, IMPORT_PROBES).items():
                metrics[name] = (value, "ms")
            traced, untraced = ([(s, 1) for s in times[flag]] for flag in (True, False))
            overhead = latency_ms(traced, 50) / latency_ms(untraced, 50) - 1.0
            metrics["bench.trace_overhead_pct"] = (100.0 * overhead, "%")
            named = {}
        else:
            end_to_end, named = workload.result(h.samples)
            metrics = {name: (value, "1/s" if name == "throughput_per_s" else "ms")
                       for name, value in end_to_end.items()}
            metrics["setup_s"] = (statistics.median(set_up.seconds), "s")
            metrics["cli_start_ms_p50"] = (latency_ms(h.samples["cli_start"], 50), "ms")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics["ok_ops_pct"] = (100.0 * (h.attempted - h.failed) / h.attempted, "%")
            named.update({
                "setup_s": metrics["setup_s"],
                "cli_start_ms_p50": metrics["cli_start_ms_p50"],
                "peak_rss_mb": metrics["peak_rss_mb"],
                "failed_ops_pct": (100.0 * h.failed / h.attempted, "%"),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value} {unit}")
    for problem in h.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _tree(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specsal" / "cli.py").is_file():
        print(f"error: no specsal sources at {SRC.relative_to(ROOT)}/specsal; run from a full checkout",
              file=sys.stderr)
        return 2
    wanted = {var: str(BLAS_THREADS) for var in THREAD_VARS} | MALLOC_ENV
    if any(os.environ.get(var) != value for var, value in wanted.items()):
        # Both are read once at start-up, by BLAS and by glibc: restart with them set.
        os.execve(sys.executable, [sys.executable, *sys.argv], os.environ | wanted)
    sys.path.insert(0, str(SRC))
    result = run(args)
    print("env " + json.dumps(_environment(), sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
