"""End-to-end CLI output pinned against a golden file.

Each case runs one small invocation of a command and compares its exit
code and its JSON body, with ``timestamp`` removed, against
``tests/golden_cli.json``.  That file was written by ``write_golden``
from these same cases, so any change to a number, verdict, witness or
key of a report fails here.  Rewrite the file only for a change meant to
alter the output, and say so with the change.

    PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'tests'); \
        import test_golden; test_golden.write_golden()"
"""

import json
import tempfile
from pathlib import Path

import pytest

from growthlab.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FILES = {
    "sub_a.txt": "a\n",
    "sub_a_baB.txt": "a\nbaB\n",
    "sub_aa_bb.txt": "aa\nbb\n",
    "chain.json": json.dumps({
        "group": "free:2", "subgroup": ["a"], "g": "b",
        "word": [["h", "a"], ["k", "bbb"], ["h", "aa"], ["k", "BBB"]],
        "radius": 2, "epsilon": 2, "L": 1, "theta": 1}),
}

CASES = {
    "gap": ["gap", "--group", "free:2", "--subgroup", "{sub_a_baB.txt}",
            "--g0", "ab", "--rmax", "8"],
    "quotient": ["quotient", "--group", "free:2", "--subgroup", "{sub_a.txt}",
                 "--rmax", "8"],
    "amalgam": ["amalgam", "--group", "free:2", "--subgroup", "{sub_a.txt}",
                "--g0", "b", "-M", "1", "--syllables", "4"],
    "audit free:2": ["audit", "--group", "free:2", "--axis", "ab", "--rmax", "4"],
    "audit product:2,3": ["audit", "--group", "product:2,3", "--axis", "xy",
                          "--rmax", "5"],
    "audit product:4,4": ["audit", "--group", "product:4,4", "--axis", "xy",
                          "--rmax", "4"],
    "buffering": ["buffering", "--chain", "{chain.json}"],
    "closure": ["closure", "--group", "free:2", "--g0", "aa", "--radius", "6"],
    "selector": ["selector", "--group", "free:2", "--subgroup", "{sub_a.txt}",
                 "--g0", "b", "--rmax", "5"],
    "selector <aa, bb>": ["selector", "--group", "free:2", "--subgroup", "{sub_aa_bb.txt}",
                          "--g0", "b", "--rmax", "5"],
}


def _run(name: str, workdir: Path) -> dict:
    paths = {}
    for fname, text in FILES.items():
        path = workdir / fname
        path.write_text(text)
        paths[fname] = str(path)
    out = workdir / f"{name.replace(' ', '_').replace(':', '_')}.out.json"
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in CASES[name]]
    code = main(argv + ["--out", str(out)])
    body = json.loads(out.read_text())
    del body["timestamp"]
    return {"exit": code, "body": body}


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: _run(name, Path(tmp)) for name in CASES}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert _run(name, tmp_path) == want
