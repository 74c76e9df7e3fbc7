"""The benchmark's layer tracer still finds every name it wraps.

``verdict_bench/tracing.py`` wraps the entry points of the program's
layers by dotted name (``repro.solver.session.SolverSession.warm_start``,
``repro.solver.dpllt.preprocess``, ...) and raises when one of them is
missing. A refactor that renames or deletes one of those names breaks
the traced benchmark run (``verdict_bench/run.py --trace 1``) without
failing anything else, so this installs the tracer the way the traced
run does: in a fresh interpreter, with ``src`` and ``verdict_bench`` on
the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_wrapped_name():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'verdict_bench')!r})\n"
        "import tracing\n"
        "tracing.install()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
