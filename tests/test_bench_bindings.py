"""The benchmark tracer (``perfbench/tracing.py``) rebinds growthlab
functions and methods by name.  Deleting or renaming one of them makes
``Tracer.install`` fail, and with it every traced benchmark run, so the
bindings are checked here as well as in the benchmark's own tests."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls():
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]
import tracing
tracer = tracing.Tracer()
tracer.install()
assert tracer.saved, "install rebound nothing"
tracer.uninstall()
assert not tracer.saved
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
