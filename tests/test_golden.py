"""Golden CLI envelopes: every recorded command must print the same bytes.

Each case runs ``fusionkit.cli.run`` in a fresh working directory that
holds the family configs, so ``--family`` paths (which the envelope echoes)
are relative and stable.  ``elapsed_ms`` is the only masked field.  Files a
command writes (``--csv``, ``--dot``) are compared as well, and every run
also meets the console contract of ``conftest.assert_one_envelope``.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

from fusionkit.cli import run

from conftest import CONFIGS, assert_one_envelope

GOLDEN = Path(__file__).resolve().parent / "golden"

F2_V = "e + s + s^-1 + t + t^-1"

# the recorded envelopes echo these file names
FILES = {
    **{f"{name}.json": CONFIGS[name]
       for name in ("ao2", "ao2q", "ao3", "aut4", "au2", "f2", "z2", "zz3", "bad")},
    "witness.json": {"F": ["s", "s^-1"], "D": {"type": "cylinder", "prefixes": ["t^-1"]},
                     "E": {"type": "cylinder", "prefixes": ["s", "s^-1", "t"],
                           "include": ["e"]},
                     "r": ["t", "s^-1 t", "s t"]},
}

# (name, exit code, argv)
CASES = [
    # the README command set
    ("decompose_ao3", 0, ["decompose", "--family", "ao3.json", "--x", "r2", "--y", "r2"]),
    ("moments_ao2_even", 0, ["moments", "--family", "ao2.json", "--u", "r2", "--even",
                             "--k", "4"]),
    ("distance_f2", 0, ["distance", "--family", "f2.json", "--v", F2_V, "--a", "e",
                        "--b", "s t", "--budget", "64"]),
    ("ball_f2", 0, ["ball", "--family", "f2.json", "--v", F2_V, "--center", "e",
                    "--r", "3"]),
    ("growth_f2", 0, ["growth", "--family", "f2.json", "--v", F2_V, "--center", "e",
                      "--rmax", "8", "--csv", "growth.csv"]),
    ("amenable_ao3", 0, ["amenable", "--family", "ao3.json", "--depth", "30",
                         "--tol", "0.05"]),
    ("list_invariant_ao2q", 0, ["list-invariant", "--family", "ao2q.json", "--depth", "6"]),
    ("modular_spectrum_ao2q", 0, ["modular-spectrum", "--family", "ao2q.json",
                                  "--list", "2^1/2,2^-1/2", "--member", "16,2,1"]),
    ("graph_ao2", 0, ["graph", "--family", "ao2.json", "--u", "r2", "--depth", "10",
                      "--dot", "out.dot"]),
    ("powers_check_f2", 0, ["powers-check", "--family", "f2.json",
                            "--witness", "witness.json"]),
    ("powers_search_f2", 0, ["powers-search", "--family", "f2.json", "--f", "s,s^-1",
                             "--budget", "2"]),
    # other families and options
    ("decompose_aut4", 0, ["decompose", "--family", "aut4.json", "--x", "s0 + s1",
                           "--y", "s2"]),
    ("decompose_au2", 0, ["decompose", "--family", "au2.json", "--x", "ab + a",
                          "--y", "ba"]),
    ("decompose_zz3", 0, ["decompose", "--family", "zz3.json", "--x", "s t",
                          "--y", "t^2 + s^-1"]),
    ("moments_aut4_plain", 0, ["moments", "--family", "aut4.json", "--u", "s0 + s1",
                               "--k", "6"]),
    ("moments_au2_word", 0, ["moments", "--family", "au2.json", "--u", "a",
                             "--word", "XX*XX*XX*"]),
    ("moments_ao3_jsonl", 0, ["moments", "--family", "ao3.json", "--u", "r2", "--k", "5",
                              "--jsonl"]),
    ("amenable_aut4", 0, ["amenable", "--family", "aut4.json", "--depth", "20"]),
    ("amenable_au2", 0, ["amenable", "--family", "au2.json", "--depth", "8"]),
    ("amenable_z2", 0, ["amenable", "--family", "z2.json", "--depth", "12",
                        "--method", "ratio"]),
    ("amenable_zz3", 0, ["amenable", "--family", "zz3.json", "--depth", "20",
                         "--method", "root"]),
    ("graph_ao2q", 0, ["graph", "--family", "ao2q.json", "--u", "r2", "--depth", "5"]),
    ("graph_aut4", 0, ["graph", "--family", "aut4.json", "--u", "s0 + s1", "--depth", "6"]),
    ("graph_au2", 0, ["graph", "--family", "au2.json", "--u", "a", "--depth", "6"]),
    ("distance_zz3", 0, ["distance", "--family", "zz3.json", "--v", "e + s + s^-1 + t + t^2",
                         "--a", "e", "--b", "s t s^-1 t^2"]),
    # error envelopes
    ("error_label_ao3", 1, ["decompose", "--family", "ao3.json", "--x", "r0", "--y", "r2"]),
    ("error_label_f2", 1, ["distance", "--family", "f2.json", "--v", F2_V, "--a", "e",
                           "--b", "s q"]),
    ("error_label_aut4", 1, ["moments", "--family", "aut4.json", "--u", "r2", "--k", "3"]),
    ("error_config", 2, ["decompose", "--family", "bad.json", "--x", "r1", "--y", "r1"]),
]

_ELAPSED = re.compile(r'"elapsed_ms": [^,\n]+')


def replay(argv, workdir: Path) -> tuple[int, str, dict[str, str]]:
    """Run one command in ``workdir`` under the console contract; return
    (exit code, masked stdout, new files)."""
    argv = list(argv)
    for name, content in FILES.items():
        (workdir / name).write_text(json.dumps(content), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            code = run(argv)
            elapsed = time.perf_counter() - started
    finally:
        os.chdir(cwd)
    assert_one_envelope(argv, code, out.getvalue(), err.getvalue(), elapsed)
    written = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(workdir.iterdir()) if p.name not in FILES}
    return code, _ELAPSED.sub('"elapsed_ms": "masked"', out.getvalue()), written


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_envelope(name, code, argv, tmp_path):
    got_code, stdout, written = replay(argv, tmp_path)
    assert got_code == code
    assert stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    for fname, text in written.items():
        assert text == (GOLDEN / f"{name}--{fname}").read_text(encoding="utf-8")


def record() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, code, argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got_code, stdout, written = replay(argv, Path(tmp))
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_text(stdout, encoding="utf-8")
        for fname, text in written.items():
            (GOLDEN / f"{name}--{fname}").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    record()
