"""Smoke test of the documentation and the entry point: every demo runs, the
README example prints what its comments say, ``python -m fusionkit`` prints
one envelope."""

import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from conftest import assert_one_envelope

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["r1 + r3", "non-amenable-numerical", "3"]
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


def test_entry_point_prints_one_envelope(tmp_path):
    # the whole process: interpreter start-up, imports, __main__ and the exit code
    family = tmp_path / "ao3.json"
    family.write_text(json.dumps({"family": "a_o", "n": 3}))
    argv = ["decompose", "--family", str(family), "--x", "r2 + r3", "--y", "r4 + r5"]
    started = time.perf_counter()
    proc = run_python("-m", "fusionkit", *argv)
    elapsed = time.perf_counter() - started
    env = assert_one_envelope(argv, proc.returncode, proc.stdout, proc.stderr, elapsed, 20.0)
    assert proc.returncode == 0
    assert env["outputs"] == {"r2": "1", "r3": "2", "r4": "2", "r5": "2", "r6": "2", "r7": "1"}
