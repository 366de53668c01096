#!/usr/bin/env python3
"""rrqc benchmark: one workload per invocation, as a closed loop.

    python3 bench/run.py --workload wide-exhaustive --seed 1 --seconds 30 --trace 0
    python3 bench/selftest.py

One caller in one process runs cases back to back, each starting when the
previous one returns; the BLAS thread count is left at its default. Every
case is checked against the oracles in ``oracles.py``. The workloads and
why each was chosen are in ``workloads.py``.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (fresh import of
rrqc, input generation, one warm-up case), then runs cases for ``--seconds``
and reports the end-to-end metrics. Case and set-up times are the CPU time
of the calling thread, which leaves out the time the host takes the CPU
away, scaled to a reference machine speed measured alongside them (see
``calibration.py``); the uncalibrated median is printed too.

With ``--trace 1`` it runs each of the workload's fixed ``trace_cases`` once
untraced and once with every layer wrapped (see ``tracing.py``), reports the
per-layer metrics and writes the spans to ``.bench_out/``. The case count is
fixed so that per-layer counts repeat exactly for a seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
case passed its checks, 1 when some failed, and 2 when rrqc's sources are
missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from adapter import TRACE_TARGETS, Rrqc
from calibration import Calibration
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class Loop:
    """Runs cases one after another, timing each and checking its outputs."""

    def __init__(self, workload, api, scratch):
        self.workload = workload
        self.api = api
        self.scratch = scratch
        self.times: list[float] = []  # CPU time of the calling thread per case
        self.spans: list[tuple[float, float]] = []  # wall-clock start and end
        self.failed = 0

    def case(self, case) -> float:
        """Run and check one case; returns its wall-clock duration in seconds."""
        problems = []
        started = time.perf_counter()
        cpu_started = time.thread_time()
        try:
            result = self.workload.run(self.api, case, self.scratch)
        except Exception:  # a case that raises has failed; the loop goes on
            problems.append(traceback.format_exc())
        self.times.append(time.thread_time() - cpu_started)
        self.spans.append((started, time.perf_counter()))
        if not problems:
            try:
                problems = self.workload.check(self.api, case, result, self.scratch)
            except Exception:  # so has a case whose output cannot be read
                problems = [traceback.format_exc()]
        if problems:
            if not self.failed:
                sys.stderr.write("first failing case:\n  " + "\n  ".join(problems) + "\n")
            self.failed += 1
        start, end = self.spans[-1]
        return end - start


def set_up(workload, seed, calibration):
    """Import rrqc afresh, generate the inputs and run one warm-up case.

    Repeated ``SETUP_REPEATS`` times between reference-job measurements;
    returns the last set-up and the median calibrated set-up time.
    """
    durations = []
    for _ in range(SETUP_REPEATS):
        calibration.measure()
        started = time.perf_counter()
        cpu_started = time.thread_time()
        api = Rrqc(SRC)
        *cases, warm_up = workload.inputs(np.random.default_rng(seed), workload.pool + 1)
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            workload.run(api, warm_up, scratch)
        cpu = time.thread_time() - cpu_started
        ended = time.perf_counter()
        calibration.measure()
        calibration.measure()
        durations.append(cpu * calibration.scale(started, ended))
    return api, cases, statistics.median(durations)


def end_to_end(loop, cases, seconds, setup_s, calibration) -> dict:
    """Run cases for ``seconds``; times are calibrated (see ``calibration.py``)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        calibration.after_case(loop.case(cases[len(loop.times) % len(cases)]))
    calibration.measure()
    times = [t * calibration.scale(*span) for t, span in zip(loop.times, loop.spans)]
    print(
        f"uncalibrated case_ms_p50 {statistics.median(loop.times) * 1e3} ms, "
        f"reference job median {calibration.median_ms()} ms, {len(times)} cases"
    )
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    values = {
        "cases_per_s": len(times) / sum(times),
        "case_ms_p50": statistics.median(times) * 1e3,
        "case_ms_p90": p90 * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(loop, cases, workload, spans_path, record) -> dict:
    """Run each case of the trace batch untraced and then traced, back to back
    so that host drift touches both alike; per-layer metrics of the traced runs."""
    tracer = Tracer()
    untraced = traced = 0.0
    for number in range(workload.trace_cases):
        case = cases[number % len(cases)]
        untraced += loop.case(case)
        with tracer.patched(loop.api.modules, TRACE_TARGETS), tracer.case(number):
            traced += loop.case(case)
    tracer.dump(spans_path, record)
    return tracer.metrics(traced / untraced)


def _git_rev(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run_record(args, workload, api) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rrqc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": _git_rev(ROOT),
        "src_sha256": digest.hexdigest(),
        "rrqc": api.version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "loop": "closed, one caller, no extra threads",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rrqc" / "__init__.py").is_file():
        sys.stderr.write(f"rrqc sources not found under {SRC}\n")
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    calibration = Calibration()
    api, cases, setup_s = set_up(workload, args.seed, calibration)
    record = run_record(args, workload, api)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        loop = Loop(workload, api, scratch)
        if args.trace:
            spans_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
            metrics = per_layer(loop, cases, workload, spans_path, record)
        else:
            metrics = end_to_end(loop, cases, args.seconds, setup_s, calibration)
    attempted = len(loop.times)
    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"fail_ratio {loop.failed / attempted} ratio ({loop.failed} of {attempted} cases)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
