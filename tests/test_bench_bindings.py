"""The benchmark tracer (``perfbench/tracing.py``) rebinds growthlab
functions and methods by name.  Deleting or renaming one of them makes
``Tracer.install`` fail, and with it every traced benchmark run, so the
bindings are checked here as well as in the benchmark's own tests.  A
binding can also outlive its work: when a caller stops going through a
traced function, its per-layer metric reads 0 without an error, so the
self times of the coarse-quotient layers are required to be nonzero."""

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


def test_selector_and_amalgam_layers_record_self_time(tmp_path):
    sub = tmp_path / "a.txt"
    sub.write_text("a\n")
    # H = <ba, aBa> and b^2: the fold does not certify, so amalgam lists H
    # and filters H & E(g) from the listing
    searched = tmp_path / "ba.txt"
    searched.write_text("ba\naBa\n")
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]
import tracing
from growthlab import cli
tracer = tracing.Tracer()
tracer.install()
tracer.start_pass()
for argv in (["selector", "--g0", "b", "--rmax", "4", "--subgroup", {str(sub)!r}],
             ["amalgam", "--g0", "b", "-M", "2", "--syllables", "3", "--letter-cap", "3",
              "--subgroup", {str(searched)!r}]):
    assert cli.main(argv + ["--group", "free:2",
                            "--out", {str(tmp_path / 'out.json')!r}]) == 0
tracer.uninstall()
for name in ("closure.find_selector_power", "theorems.coarse_quotient_check",
             "closure.subgroup_closure_intersection"):
    assert tracer.cur[name + ".self_s"] > 0, name
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
