"""Interpreters that the tests start import ``rca`` from this checkout's src/.

pyproject's ``pythonpath`` puts src/ on the test process's own path; this
exports it to the ``python -m rca`` and demo subprocesses as well.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
