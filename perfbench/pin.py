"""Regenerate ``pins.json``: the expected outputs of one unit per workload and input seed.

    python3 perfbench/pin.py

Run it only when a workload's definition changes, never to make a failing
check pass: the pins are what the checks compare the program against. It
pins input seeds 0..PINNED_SEEDS-1, one worker process per usable CPU.
"""

import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def pin_one(task):
    name, seed = task
    workdir = HERE / "_work" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make(name, seed)
        w.prepare(workdir)
        w.setup()
        res = w.run_unit()
        failures = res.failures + w.check_files()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        raise RuntimeError(f"{name} seed {seed}: {'; '.join(failures)}")
    return name, seed, w.pin_of(res.outputs)


def main():
    tasks = [(name, seed) for name in workloads.WORKLOADS
             for seed in range(workloads.PINNED_SEEDS)]
    pins = {name: {} for name in workloads.WORKLOADS}
    workers = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        for name, seed, pin in pool.imap_unordered(pin_one, tasks):
            pins[name][str(seed)] = pin
    for name in pins:
        pins[name] = dict(sorted(pins[name].items(), key=lambda kv: int(kv[0])))
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
