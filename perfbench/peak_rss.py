"""Run one unit of a workload in this fresh interpreter; print peak RSS in KiB.

    python3 perfbench/peak_rss.py <workload> <seed> <workdir>

For ``cli-corpus`` the corpus files must already be in ``workdir``, so the
benchmark's own input generation is not counted.
"""

import resource
import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    w = workloads.make(name, seed)
    if isinstance(w, workloads.CliWorkload):
        w.use_files(workdir)
    w.setup()
    res = w.run_unit()
    if res.failures:
        print("; ".join(res.failures), file=sys.stderr)
        sys.exit(1)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
