"""Every ``afdi`` name the benchmark's tracer patches still exists.

The traced benchmark child finds its targets by name, so deleting or
renaming one breaks only that child.  The tracer is installed in a
fresh interpreter, with ``src`` and ``perfbench`` on the path, so the
patches cannot leak into the other tests.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
tracer.install_diagnose(tracer.Tracer())
tracer.install_reference(tracer.Tracer())
"""


def test_tracer_installs_on_the_current_names():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
