"""Cold-start cost of ``import repro``.

``scipy.stats`` costs about 0.4 s to import and is only needed to draw
Haar-random target unitaries, so the modules that use it import it
where they draw.  Checked in a fresh interpreter, since the process
running the tests has long since imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_import_repro_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    code = (
        "import sys, repro, repro.experiments, repro.hardware, repro.analysis\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
