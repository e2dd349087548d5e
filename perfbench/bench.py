"""Run one workload for a fixed time and report its metrics as JSON.

Untraced runs (``trace=False``) give the end-to-end metrics. Traced runs
give the per-layer metrics: they first time untraced units, then traced
units, and report the difference as the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up is timed SETUP_FIRST_REPEATS times before the first unit, then
# again after every timed unit for at least SETUP_BATCH_S, so its samples
# span the whole run like the units do; the host's load changes several
# times a minute, and a burst of samples would see only one phase of it.
SETUP_FIRST_REPEATS = 3
SETUP_BATCH_S = 0.2
# A unit's peak RSS can land 2 MB (5%) higher in some fresh interpreters;
# the median of three damps that.
RSS_REPEATS = 3
CHILD_TIMEOUT_S = 90
# End-to-end timings are reported in reference seconds: wall seconds scaled
# by PROBE_REF_S over the mean of the probes taken just before and just
# after each timed segment, i.e. seconds on a machine where ``probe`` takes
# PROBE_REF_S. A shared host's speed can swing 1.7x with its neighbours'
# load; the probe sees that too, so the ratio is steadier than wall time.
# Raw wall-time figures stay in the report's detail block.
PROBE_REF_S = 0.01
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "items_per_ref_s": "items/ref_s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in spans.span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "uasr.apply_uasr.repeat_ratio": "ratio",
        "uasr.apply_uasr.neg_dropped": "count",
        "uasr.apply_uasr.pos_fallbacks": "count",
        "uasr.apply_uasr.neg_fallbacks": "count",
        "io.bytes_read": "bytes",
        "io.bytes_written": "bytes",
        "trace.wall_s": "s",
        "trace.unwrapped_s": "s",
        "trace.hook_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


_PROBE_A = np.linspace(-1.0, 1.0, 64).reshape(4, 16)
_PROBE_FLOATS = [i / 7.0 for i in range(2000)]


def probe() -> float:
    """Seconds for a fixed slice of interpreter, small-array numpy and JSON work.

    It shares no code with rca, so only the machine's speed at that moment
    moves it. Its median over a run is the machine block's calibration time.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    a = _PROBE_A
    for _ in range(1_500):
        (a @ a.T).sum()
    json.loads(json.dumps(_PROBE_FLOATS))
    return time.perf_counter() - start


def machine(probes: list[float]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "calibration_s": summary(probes),
    }


def child_env() -> dict:
    """Environment for fresh interpreters: this one's, with rca's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """One workload run: counts operations and the checks that failed."""

    def __init__(self, workload_name: str, seed: int, workdir: Path):
        self.input_seed = workloads.input_seed(seed)
        self.workload = workloads.make(workload_name, self.input_seed)
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        pins = workloads.load_pins().get(workload_name, {})
        self.pin = pins.get(str(self.input_seed))
        self.first_outputs = None
        self.probes = [probe()]
        self.setup_raw: list[float] = []
        if isinstance(self.workload, workloads.CliWorkload):
            self.setup_env = child_env()
            self.setup_cmd = [sys.executable, "-c", "import rca.cli"]

    def record(self, ops: int, failures: list[str]) -> None:
        self.attempted += ops
        if failures:
            self.failed += min(ops, len(failures))
            self.failures += failures

    def unit(self, tracer: spans.Tracer | None = None):
        """Run one unit and check it against the pin and the run's first unit.

        Returns the unit result, its wall seconds scaled to the reference
        machine, and, with a tracer, its per-layer aggregates.
        """
        if tracer is not None:
            tracer.begin_unit()
        res = self.workload.run_unit(between=probe)
        layers = tracer.end_unit(res.seconds) if tracer is not None else None
        failures = res.failures + self.workload.check_files()
        if res.outputs:
            if self.pin is None:
                failures.append(f"no pinned outputs for input seed {self.input_seed}")
            else:
                failures += self.workload.check_pinned(res.outputs, self.pin)
            if self.first_outputs is None:
                self.first_outputs = res.outputs
            elif res.outputs != self.first_outputs:
                failures.append("unit outputs differ from the run's first unit")
        self.record(res.ops, failures)
        ref_seconds = sum(self.to_ref(seg, after) for seg, after in zip(res.segments, res.probes))
        return res, ref_seconds, layers

    def to_ref(self, seconds: float, probe_after: float) -> float:
        """Scale wall seconds by the probes taken just before and just after them."""
        ref = seconds * PROBE_REF_S / ((self.probes[-1] + probe_after) / 2)
        self.probes.append(probe_after)
        return ref

    def setup_batch(self, repeats: int, min_seconds: float = 0.0) -> None:
        """Time at least ``repeats`` set-ups, for at least ``min_seconds``, each followed by a probe."""
        begin = time.perf_counter()
        done = 0
        while done < repeats or time.perf_counter() - begin < min_seconds:
            start = time.perf_counter()
            if isinstance(self.workload, workloads.CliWorkload):
                # No timeout here: with one, the wait polls in sleeps of up
                # to 50 ms and rounds the time up to that grid. The untimed
                # first call of the same command has one.
                proc = subprocess.run(self.setup_cmd, env=self.setup_env)
                self.record(1, [] if proc.returncode == 0 else ["import rca.cli failed"])
            else:
                self.workload.setup()
            self.setup_raw.append(time.perf_counter() - start)
            self.probes.append(probe())
            done += 1

    def setup_seconds(self) -> list[float]:
        """Set-up times in reference seconds, all scaled by the run's median probe.

        Scaling each repeat by its own neighbouring probes would add the
        probes' noise to a segment that is only milliseconds long.
        """
        scale = PROBE_REF_S / statistics.median(self.probes)
        return [t * scale for t in self.setup_raw]

    def peak_rss_mb(self) -> list[float]:
        """Peak RSS of one unit, each run in its own fresh interpreter."""
        cmd = [sys.executable, str(HERE / "peak_rss.py"), self.workload.name,
               str(self.input_seed), str(self.workdir)]
        peaks = []
        for _ in range(RSS_REPEATS):
            proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                self.record(1, [f"peak RSS child exited {proc.returncode}: {proc.stderr[-300:]}"])
            else:
                self.record(1, [])
                peaks.append(int(proc.stdout.split()[-1]) / 1024.0)
        return peaks


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    w = run.workload
    if isinstance(w, workloads.CliWorkload):  # warm the bytecode cache, untimed
        subprocess.run(run.setup_cmd, env=run.setup_env, check=True, timeout=CHILD_TIMEOUT_S)
    run.setup_batch(SETUP_FIRST_REPEATS)
    rss = run.peak_rss_mb()
    run.unit()  # warm-up: first-call costs, checked but not timed
    rates, ref_rates, calls = [], [], {}
    start = time.perf_counter()
    while True:
        res, ref_seconds, _ = run.unit()
        rates.append(w.unit_items / res.seconds)
        ref_rates.append(w.unit_items / ref_seconds)
        if isinstance(w, workloads.CliWorkload):
            for call, sec in zip(w.calls, res.segments):
                calls.setdefault(call, []).append(sec)
        run.setup_batch(1, SETUP_BATCH_S)
        if time.perf_counter() - start >= seconds:
            break
    stats = {"setup_s": summary(run.setup_seconds()), "items_per_ref_s": summary(ref_rates)}
    if rss:
        stats["peak_rss_mb"] = summary(rss)
    detail = {"items_per_s": summary(rates), "setup_wall_s": summary(run.setup_raw)}
    if isinstance(w, workloads.TrainWorkload):
        detail["train_steps_per_s"] = summary(rates)
    for call, secs in calls.items():
        if call == "gradcheck":
            detail["gradcheck_s"] = summary(secs)
        else:
            detail[f"{call}_images_per_s"] = summary([w.unit_items / s for s in secs])
    return stats, detail


def run_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    w = run.workload
    w.setup()
    run.unit()  # warm-up
    plain = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds / 2:
        plain.append(run.unit()[0].seconds)
    tracer = spans.Tracer()
    per_unit = []
    start = time.perf_counter()
    with tracer:
        while not per_unit or time.perf_counter() - start < seconds / 2:
            per_unit.append(run.unit(tracer)[2])

    counts = [spans.exact_counts(m) for m in per_unit]
    run.record(1, [] if all(c == counts[0] for c in counts)
               else ["per-layer counts differ between units"])
    # Spans must lie within the timed wall and inside their parents.
    bad = [m for m in per_unit
           if m["trace.unwrapped_s"] < 0
           or any(v < 0 for k, v in m.items() if k.endswith(".self_s"))]
    run.record(1, ["a span's self time or the unwrapped time is negative"] if bad else [])

    units = per_layer_units()
    stats = {}
    for name in units:
        if name in counts[0]:
            stats[name] = {"median": counts[0][name], "q1": counts[0][name],
                           "q3": counts[0][name], "n": len(per_unit)}
        elif name != "trace.overhead_s":
            stats[name] = summary([m[name] for m in per_unit])
    overhead = stats["trace.wall_s"]["median"] - statistics.median(plain)
    stats["trace.overhead_s"] = {"median": overhead, "q1": overhead, "q3": overhead,
                                 "n": len(per_unit)}
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    detail = {"untraced_unit_s": summary(plain), "traced_units": len(per_unit),
              "spans_last_unit": [[name, parent, start - t0, end - t0]
                                  for name, parent, start, end, _ in tracer.spans]}
    return stats, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Run one workload in ``workdir`` and return the full report."""
    run = Run(name, seed, workdir)
    run.workload.prepare(workdir)
    if trace:
        stats, detail = run_traced(run, seconds)
        units = per_layer_units()
    else:
        stats, detail = run_untraced(run, seconds)
        units = END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "input_seed": run.input_seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(run.probes),
        "stats": {k: dict(v, unit=units[k]) for k, v in stats.items()},
        "detail": detail,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures[:20],
        "missing": [k for k in units if k not in stats],
    }


def result_line(report: dict) -> dict:
    """The one-line result: medians of every metric, or a failed run."""
    failed = report["failed"] + len(report["missing"])
    return {
        "correct": failed == 0,
        "attempted": max(report["attempted"], 1),
        "failed": failed,
        "metrics": {k: {"value": v["median"], "unit": v["unit"]}
                    for k, v in report["stats"].items()},
    }


def main(args) -> int:
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    report["max_rss_mb_of_run"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = report["detail"].pop("spans_last_unit", None)
    if args.out:
        if spans is not None:
            report["spans_last_unit"] = spans  # [name, parent index, start, end]
        Path(args.out).write_text(json.dumps(report) + "\n", encoding="utf-8")
    print(json.dumps({k: v for k, v in report.items() if k != "spans_last_unit"}))
    print(json.dumps(result_line(report)))
    return 0
