import contextlib
import hashlib
import io
import json
import math
import os
import sys

import pytest

import fusionkit as fk
from fusionkit import cli
from fusionkit.cli import DiskCache, run

from conftest import CONFIGS, dual, lazy_walk_counts, run_cli, strict_loads


@pytest.fixture
def configs(tmp_path):
    """Every config of ``conftest.CONFIGS`` in a file: name -> path."""
    paths = {}
    for name, spec in CONFIGS.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


AO3, F2, ZZ3, AO2Q = (CONFIGS[name] for name in ("ao3", "f2", "zz3-gh", "ao2q-bare"))
F2_V, ZZ3_V = "e + s + s^-1 + t + t^-1", "e + g + g^-1 + h + h^2"


def test_decompose(configs, capsys):
    code, env = run_cli(capsys, ["decompose", "--family", configs["ao3"],
                                 "--x", "r2", "--y", "r2"])
    assert code == 0
    assert env["outputs"] == {"r1": "1", "r3": "1"}
    assert env["exact"] is True
    assert env["engine_version"] == fk.__version__


def test_decompose_unit(configs, capsys):
    code, env = run_cli(capsys, ["decompose", "--family", configs["ao3"],
                                 "--x", "r1", "--y", "r1"])
    assert code == 0
    assert env["outputs"] == {"r1": "1"}


def test_moments_even(configs, capsys):
    code, env = run_cli(capsys, ["moments", "--family", configs["ao2q-at-1"],
                                 "--u", "r2", "--even", "--k", "4"])
    assert code == 0
    assert [rep["value"] for rep in env["outputs"]] == ["1", "2", "5", "14"]


def test_moments_word_jsonl(configs, capsys):
    # the contract checks that each JSON line equals its outputs entry
    code, env = run_cli(capsys, ["moments", "--family", configs["ao2q-at-1"], "--u", "r2",
                                 "--word", "XX*XX*", "--jsonl"])
    assert code == 0
    assert env["outputs"] == [{"word": "XX*XX*", "value": "2"}]


def test_distance_and_ball(configs, capsys):
    code, env = run_cli(capsys, ["distance", "--family", configs["f2"],
                                 "--v", "e + s + s^-1 + t + t^-1",
                                 "--a", "e", "--b", "s t s", "--budget", "64"])
    assert code == 0
    assert env["outputs"] == {"distance": 3}
    code, env = run_cli(capsys, ["ball", "--family", configs["f2"],
                                 "--v", "e + s + s^-1 + t + t^-1",
                                 "--center", "e", "--r", "1"])
    assert code == 0
    assert env["outputs"]["size"] == 5


def test_growth_csv(configs, capsys, tmp_path):
    csv = tmp_path / "growth.csv"
    code, env = run_cli(capsys, ["growth", "--family", configs["f2"],
                                 "--v", "e + s + s^-1 + t + t^-1",
                                 "--center", "e", "--rmax", "3", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "radius,ball_size"
    assert lines[1:] == ["0,1", "1,5", "2,17", "3,53"]


def test_standard_generator_metric_at_scale(configs, capsys):
    v = "e + s + s^-1 + t + t^-1"
    code, env = run_cli(capsys, ["growth", "--family", configs["f2"], "--v", v,
                                 "--center", "e", "--rmax", "60"])
    assert code == 0
    assert env["outputs"][-1] == {"ball_size": 2 * 3 ** 60 - 1, "radius": 60}
    code, env = run_cli(capsys, ["distance", "--family", configs["f2"], "--v", v,
                                 "--a", "e", "--b", " ".join(["s t"] * 500), "--budget", "2000"])
    assert code == 0
    assert env["outputs"] == {"distance": 1000}


def test_amenable(configs, capsys):
    code, env = run_cli(capsys, ["amenable", "--family", configs["ao3"],
                                 "--depth", "12", "--tol", "0.05"])
    assert code == 0
    out = env["outputs"]
    assert out["verdict"] == "non-amenable-numerical"
    assert all(isinstance(c, str) for c in out["counts"])
    assert env["exact"] is False


def test_amenable_au_at_the_default_depth(configs, capsys):
    # (u + conj u)^k has 2^k labels; the radial walk over word lengths does not
    code, env = run_cli(capsys, ["amenable", "--family", configs["au2"]], bound=1.0)
    assert code == 0
    out = env["outputs"]
    assert out["depth"] == 30
    assert out["counts"] == [str(2 ** k * fk.catalan(k)) for k in range(1, 31)]


def test_list_invariant(configs, capsys):
    code, env = run_cli(capsys, ["list-invariant", "--family", configs["ao2q-at-1"],
                                 "--depth", "4"])
    assert code == 0
    assert env["outputs"]["r3"] == ["1", "q^-2", "q^2"]


def test_modular_spectrum(configs, capsys):
    code, env = run_cli(capsys, ["modular-spectrum", "--family", configs["ao2q-at-1"],
                                 "--list", "2^1/2,2^-1/2", "--member", "16,2,1"])
    assert code == 0
    out = env["outputs"]
    assert out["hnf_rows"] == [[2]]
    assert out["membership"] == {"16": True, "2": False, "1": True}


def test_modular_spectrum_ignores_list_order(configs, capsys):
    rows = []
    for text in ("b,a^-2,b^-2*c^3", "b^-2*c^3,a^-2,b"):
        code, env = run_cli(capsys, ["modular-spectrum", "--family", configs["ao2q-at-1"],
                                     "--list", text])
        assert code == 0
        rows.append(env["outputs"]["hnf_rows"])
    assert rows == [[[4, 0, 6], [0, 2, 6], [0, 0, 12]]] * 2


def test_modular_spectrum_large_prime_is_a_config_error(configs, capsys):
    big = "1000000000000000003"
    code, env = run_cli(capsys, ["modular-spectrum", "--family", configs["ao2q-at-1"],
                                 "--list", f"{big}^1/2,{big}^-1/2"])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert big in env["outputs"]["error"]


def test_graph(configs, capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, env = run_cli(capsys, ["graph", "--family", configs["ao2q-at-1"],
                                 "--u", "r2", "--depth", "10", "--dot", str(dot)])
    assert code == 0
    assert len(env["outputs"]["vertices"]) == 11
    assert len(env["outputs"]["edges"]) == 10
    assert dot.read_text().startswith("graph principal {")


def test_quantum_dimension_overflow_is_a_computation_error(capsys, tmp_path):
    family = tmp_path / "ao2-big.json"
    family.write_text(json.dumps({"family": "a_o", "n": 2,
                                  "params": {"fundamental_list": ["2^600", "2^-600"]}}))
    code, env = run_cli(capsys, ["graph", "--family", str(family), "--u", "r2", "--depth", "2"])
    assert code == 1
    assert env["outputs"]["kind"] == "computation"
    assert "2^600" in env["outputs"]["error"]
    assert "float range" in env["outputs"]["error"]


# (family config, F, budget, found); the amenable Z/2*Z/2 has no witness to find
SEARCHES = [(F2, "s,s^-1", 2, True), (F2, "s,s^-1", 6, True),
            (ZZ3, "g", 5, True), (dual(a=2, b=3), "a,b,b^2", 4, True),
            (dual(u=2, s=None), "u,s,s^-1", 4, True), (dual(a=2, b=2), "a", 3, False)]


def test_powers_search_and_check(capsys, tmp_path):
    config, witness_file = tmp_path / "c.json", tmp_path / "w.json"
    for spec, f, budget, found in SEARCHES:
        config.write_text(json.dumps(spec))
        code, env = run_cli(capsys, ["powers-search", "--family", str(config),
                                     "--f", f, "--budget", str(budget)])
        out = env["outputs"]
        assert code == 0 and out["found"] is found, (spec, budget)
        if found:
            witness_file.write_text(json.dumps({key: out[key] for key in ("F", "D", "E", "r")}))
            code, env = run_cli(capsys, ["powers-check", "--family", str(config),
                                         "--witness", str(witness_file)])
            assert code == 0
            assert env["outputs"]["holds"] is True and env["outputs"]["exact"] is True


def test_closed_stdout_exits_one_without_traceback(configs, monkeypatch):
    # a pipe whose reader is gone: writing the envelope raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = run(["decompose", "--family", configs["ao3"], "--x", "r2", "--y", "r2"])
        monkeypatch.undo()
    assert code == 1


def test_unexpected_exception_ends_in_one_internal_envelope(configs, capsys, monkeypatch):
    def broken(args, cfg):
        raise RuntimeError("defect")

    monkeypatch.setattr(cli, "_cmd_decompose", broken)
    code = run(["decompose", "--family", configs["ao3"], "--x", "r2", "--y", "r3"])
    out, err = capsys.readouterr()
    env = json.loads(out)  # raises on a second document
    assert code == 1
    assert env["outputs"] == {"error": "RuntimeError: defect", "kind": "internal"}
    assert env["inputs"] == {"family": configs["ao3"], "x": "r2", "y": "r3"}
    assert "Traceback" not in out + err


def test_parser_defect_ends_in_one_internal_envelope(capsys, monkeypatch):
    def broken():
        raise RuntimeError("parser defect")

    monkeypatch.setattr(cli, "build_parser", broken)
    argv = ["decompose", "--family", "ao3.json", "--x", "r2", "--y", "r3"]
    code = run(argv)
    out, err = capsys.readouterr()
    env = strict_loads(out)  # raises on a second document
    assert code == 1
    assert env["command"] is None
    assert env["inputs"] == {"argv": argv}
    assert env["outputs"] == {"error": "RuntimeError: parser defect", "kind": "internal"}
    assert "Traceback" not in out + err


@pytest.mark.parametrize("outputs", [
    {"estimate": float("nan")},
    {"estimate": float("inf")},
    {"label": object()},
    {("r", 1): "1"},
], ids=["nan", "inf", "object", "tuple-key"])
def test_unencodable_output_ends_in_one_internal_envelope(configs, capsys, monkeypatch,
                                                           outputs):
    monkeypatch.setattr(cli, "_cmd_decompose", lambda args, cfg: (outputs, True))
    code = run(["decompose", "--family", configs["ao3"], "--x", "r2", "--y", "r3"])
    out, err = capsys.readouterr()
    env = strict_loads(out)  # raises on a second document
    assert code == 1
    assert env["outputs"]["kind"] == "internal"
    assert env["inputs"] == {"family": configs["ao3"], "x": "r2", "y": "r3"}
    assert "Traceback" not in out + err


def test_config_error_exit_code(configs, capsys):
    code, env = run_cli(capsys, ["decompose", "--family", configs["bad"],
                                 "--x", "r1", "--y", "r1"])
    assert code == 2
    assert env["outputs"]["kind"] == "config"


def test_computation_error_exit_code(configs, capsys):
    code, env = run_cli(capsys, ["distance", "--family", configs["f2"],
                                 "--v", "e + s + s^-1 + t + t^-1",
                                 "--a", "e", "--b", "s t s", "--budget", "2"])
    assert code == 1
    assert env["outputs"]["kind"] == "computation"
    assert "budget" in env["outputs"]["error"]
    assert env["outputs"]["error"].endswith("d(e, s t s)")


def test_empty_label_is_a_computation_error(configs, capsys):
    code, env = run_cli(capsys, ["distance", "--family", configs["f2"],
                                 "--v", "e + s + s^-1 + t + t^-1", "--a", "", "--b", "s t"])
    assert code == 1
    assert env["outputs"] == {"error": "empty label; the unit is spelled e",
                              "kind": "computation"}


@pytest.mark.parametrize("command, flags", [
    ("amenable", ["--depth", "2"]),
    ("amenable", ["--depth", "0"]),
    ("amenable", ["--depth", "8", "--tol", "-1"]),
    ("amenable", ["--depth", "8", "--tol", "nan"]),
    ("amenable", ["--depth", "8", "--tol", "inf"]),
    ("modular-spectrum", ["--list", "q^x"]),
    ("modular-spectrum", ["--list", "q^1/0"]),
    ("modular-spectrum", ["--list", "q,q^-1", "--member", "q,q^x"]),
    ("modular-spectrum", ["--list", ""]),
    ("modular-spectrum", ["--member", ""]),
    ("distance", ["--v", "e + s + s^-1 + t + t^-1", "--a", "e", "--b", "s",
                  "--budget", "-1"]),
    ("powers-search", ["--f", "s,s^-1", "--budget", "-1"]),
    ("ball", ["--v", "e + s + s^-1", "--center", "e", "--r", "-1"]),
    ("growth", ["--v", "e + s + s^-1", "--center", "e", "--rmax", "-1"]),
    ("graph", ["--u", "r2", "--depth", "0"]),
    ("moments", ["--u", "r2", "--word", "X**"]),
    ("moments", ["--u", "r2", "--word", "XY"]),
    ("list-invariant", ["--depth", "-1"]),
], ids=["depth-2", "depth-0", "tol-negative", "tol-nan", "tol-inf", "list-syntax",
        "list-zero-denominator", "member-syntax", "list-empty", "member-empty",
        "budget-negative", "search-budget-negative", "ball-r-negative",
        "growth-rmax-negative", "graph-depth-0", "word-double-star", "word-bad-character",
        "list-depth-negative"])
def test_flag_errors_are_config_errors(configs, capsys, command, flags):
    group = command in ("distance", "powers-search", "ball", "growth")
    # the list commands run on a config with a fundamental list, which an
    # explicit empty --list must not fall back to
    listed = command in ("list-invariant", "modular-spectrum")
    family = configs["f2" if group else "ao2q-at-1" if listed else "ao3"]
    code, env = run_cli(capsys, [command, "--family", family, *flags])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["inputs"]["family"] == family


def test_determinism(configs, capsys):
    def one():
        code, env = run_cli(capsys, ["decompose", "--family", configs["ao3"],
                                     "--x", "2*r2 + r3", "--y", "r4"])
        assert code == 0
        env.pop("elapsed_ms")
        return json.dumps(env, sort_keys=True)

    assert one() == one()


def test_cache_transparency(configs, capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")

    def one(*extra):
        code, env = run_cli(capsys, ["decompose", "--family", configs["ao3"],
                                     "--x", "r3", "--y", "r5", *extra])
        assert code == 0
        env.pop("elapsed_ms")
        return json.dumps(env, sort_keys=True)

    plain = one()
    cached_cold = one("--cache-dir", cache_dir)
    cached_warm = one("--cache-dir", cache_dir)
    assert plain == cached_cold == cached_warm
    [name] = os.listdir(cache_dir)
    assert name.endswith(".json")


def test_cache_holds_one_file_per_family(configs, capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    for family, x, y in [("ao3", "r3", "r5"), ("ao2q-at-1", "r2", "r4"), ("f2", "s t", "t^-1"),
                         ("ao3", "r2", "r7")]:
        code, _ = run_cli(capsys, ["decompose", "--family", configs[family],
                                   "--x", x, "--y", y, "--cache-dir", str(cache_dir)])
        assert code == 0
    names = os.listdir(cache_dir)
    assert len(names) == 3 and all(n.endswith(".json") for n in names)


@pytest.mark.parametrize("family, x, y", [
    ("ao3", "2*r2 + r3", "r4 + r5"),
    ("f2", "s t + t^-1", "t^-1 s + e"),
    ("au2", "ab + a", "ba + b"),
])
def test_warm_decompose_makes_no_rule_calls(configs, capsys, tmp_path, monkeypatch,
                                            family, x, y):
    calls = []
    cls = type(cli.load_family_config(configs[family]).system)
    rule = cls._tensor_irr
    monkeypatch.setattr(cls, "_tensor_irr",
                        lambda self, a, b: calls.append((a, b)) or rule(self, a, b))

    def one():
        code, env = run_cli(capsys, ["decompose", "--family", configs[family],
                                     "--x", x, "--y", y, "--cache-dir", str(tmp_path / "c")])
        assert code == 0 and "degraded" not in env
        return env["outputs"]

    cold = one()
    assert calls
    [path] = (tmp_path / "c").iterdir()
    written = path.stat().st_ino
    calls.clear()
    assert one() == cold
    assert calls == []
    assert path.stat().st_ino == written  # a run that adds nothing keeps the file


def test_deeply_nested_cache_file_is_ignored(configs, capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ["decompose", "--family", configs["ao3"], "--x", "r3", "--y", "r5",
            "--cache-dir", str(cache_dir)]
    code, cold = run_cli(capsys, argv)
    assert code == 0
    paths = [os.path.join(d, f) for d, _, files in os.walk(cache_dir) for f in files]
    assert paths
    for path in paths:
        with open(path, "w") as fh:
            fh.write("[" * 100000)
    with pytest.warns(UserWarning, match="RecursionError"):
        code, env = run_cli(capsys, argv)
    assert code == 0
    assert env["outputs"] == cold["outputs"]
    assert len(env["degraded"]) == 1
    # the run overwrote the bad file with its own snapshot
    code, env = run_cli(capsys, argv)
    assert code == 0 and "degraded" not in env


def test_unusable_cache_dir_is_reported_in_the_envelope(configs, capsys, tmp_path):
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory")
    argv = ["decompose", "--family", configs["ao3"], "--x", "r3", "--y", "r5"]
    code, plain = run_cli(capsys, argv)
    assert "degraded" not in plain
    with pytest.warns(UserWarning, match="cache directory unusable"):
        code, env = run_cli(capsys, [*argv, "--cache-dir", str(blocker / "cache")])
    assert code == 0
    assert env["outputs"] == plain["outputs"]
    [reason] = env["degraded"]
    assert reason.startswith("cache directory unusable")


def test_failed_cache_write_degrades(tmp_path):
    sys_ = fk.AoSystem(3)
    cache = DiskCache(str(tmp_path / "c"))
    assert cache.degraded == []
    os.rmdir(tmp_path / "c")
    (tmp_path / "c").write_text("the directory became a file")
    with pytest.warns(UserWarning, match="cache write failed"):
        cache.store(sys_, {(sys_.r(2), sys_.r(3)): sys_.tensor_pair(sys_.r(2), sys_.r(3))})
    assert len(cache.degraded) == 1 and not cache.enabled


@pytest.mark.parametrize("argv, command", [
    (["decompose", "--x", "r1"], "decompose"),
    (["bogus"], None),
    ([], None),
    (["moments", "--family", "ao3.json", "--u", "r1", "--k", "two"], "moments"),
    (["decompose", "--family", "ao3.json", "--x", "r1", "--y", "r1", "--z", "r2"],
     "decompose"),
], ids=["missing-flags", "unknown-command", "no-command", "bad-int", "unknown-flag"])
def test_usage_errors_end_in_one_config_envelope(capsys, argv, command):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, env = run_cli(capsys, argv)
    assert code == 2
    assert env["command"] == command
    assert env["inputs"] == {"argv": argv}
    assert env["outputs"]["kind"] == "config"
    assert "usage:" in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [["--help"], ["decompose", "--help"]])
def test_help_keeps_its_text(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: fusionkit")
    assert "{" not in out.splitlines()[-1]


def test_disk_cache_api(tmp_path):
    sys_ = fk.AoSystem(3)
    cache = DiskCache(str(tmp_path / "c"))
    assert cache.lookup(sys_) is None  # no file yet: an empty cache
    a, b = sys_.r(2), sys_.r(6)
    table = {(a, b): sys_.tensor_pair(a, b), (b, b): sys_.tensor_pair(b, b)}
    cache.store(sys_, table)
    assert cache.lookup(sys_) == table
    other = fk.AoSystem(5)
    assert cache.lookup(other) is None
    # a corrupt file is ignored, recorded and overwritten by the next store
    with open(cache._path(sys_), "w") as fh:
        fh.write("{corrupt")
    with pytest.warns(UserWarning, match="ignored"):
        assert cache.lookup(sys_) is None
    assert len(cache.degraded) == 1 and cache.enabled
    cache.store(sys_, table)
    assert cache.lookup(sys_) == table
    assert os.listdir(tmp_path / "c") == [os.path.basename(cache._path(sys_))]
    # the file name is the contract with existing cache directories
    key = json.dumps([fk.__version__, sys_.family_id]).encode()
    assert os.listdir(tmp_path / "c") == [hashlib.sha256(key).hexdigest() + ".json"]


def test_disk_cache_key_includes_engine_version(tmp_path, monkeypatch):
    sys_ = fk.AoSystem(3)
    cache = DiskCache(str(tmp_path / "c"))
    a, b = sys_.r(2), sys_.r(3)
    table = {(a, b): sys_.tensor_pair(a, b)}
    monkeypatch.setattr(cli, "__version__", "0.0.0+other")
    cache.store(sys_, table)
    assert cache.lookup(sys_) == table
    monkeypatch.undo()
    # a file written by another engine version is a miss
    assert cache.lookup(sys_) is None
    assert cache.degraded == []


CORRUPT_ENTRIES = {
    "int-item": "[1]",
    "mapping": '{"r3": "1"}',
    "missing-mult": '[{"label": "r3"}]',
    "int-label": '[{"label": 3, "mult": "1"}]',
    "list-mult": '[{"label": "r3", "mult": []}]',
}


@pytest.mark.parametrize("entry", CORRUPT_ENTRIES.values(), ids=CORRUPT_ENTRIES.keys())
def test_disk_cache_ignores_malformed_entries(tmp_path, entry):
    sys_ = fk.AoSystem(3)
    cache = DiskCache(str(tmp_path / "c"))
    a, b = sys_.r(2), sys_.r(3)
    cache.store(sys_, {(a, b): sys_.tensor_pair(a, b)})
    with open(cache._path(sys_), "w") as fh:
        fh.write(f'[["r2", "r3", [{{"label": "r1", "mult": "1"}}]], ["r2", "r2", {entry}]]')
    with pytest.warns(UserWarning, match="ignored"):
        assert cache.lookup(sys_) is None
    assert len(cache.degraded) == 1


CORRUPT_FILES = {
    "mapping": '{"r2": "r3"}',
    "short-row": '[["r2", "r3"]]',
    "int-row": "[1]",
    "bad-label": '[["r0", "r3", []]]',
    "not-utf8": b"\xff\xfe[",
}


@pytest.mark.parametrize("content", CORRUPT_FILES.values(), ids=CORRUPT_FILES.keys())
def test_disk_cache_ignores_malformed_files(tmp_path, content):
    sys_ = fk.AoSystem(3)
    cache = DiskCache(str(tmp_path / "c"))
    with open(cache._path(sys_), "wb") as fh:
        fh.write(content if isinstance(content, bytes) else content.encode())
    with pytest.warns(UserWarning, match="ignored"):
        assert cache.lookup(sys_) is None
    assert len(cache.degraded) == 1 and cache.enabled


WITNESS = {"F": ["s", "s^-1"], "D": {"type": "cylinder", "prefixes": ["t^-1"]},
           "E": {"type": "cylinder", "prefixes": ["s", "s^-1", "t"], "include": ["e"]},
           "r": ["t", "s^-1 t", "s t"]}


MALFORMED = {
    "F-int-label": {"F": [1]},
    "r-int-label": {"r": ["t", 2, "s t"]},
    "D-int-label": {"D": ["s", 3]},
    "E-null-label": {"E": [None]},
    "cylinder-int-prefix": {"D": {"type": "cylinder", "prefixes": [1]}},
    "cylinder-int-include": {"E": {"type": "cylinder", "prefixes": ["s", "s^-1", "t"],
                                   "include": [0]}},
    "finite-list-label": {"D": {"type": "finite", "labels": [[]]}},
    "r-string": {"r": "ste"},
    "F-string": {"F": "s t"},
    "radius-string": {"truncation_radius": "x"},
    "radius-negative": {"truncation_radius": -1},
}


@pytest.mark.parametrize("patch", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_witness_is_config_error(configs, capsys, tmp_path, patch):
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps({**WITNESS, **patch}))
    code, env = run_cli(capsys, ["powers-check", "--family", configs["f2"],
                                 "--witness", str(witness_file)])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["inputs"] == {"family": configs["f2"], "witness": str(witness_file)}


def test_deeply_nested_witness_is_config_error(configs, capsys, tmp_path):
    witness_file = tmp_path / "w.json"
    witness_file.write_text("[" * 100000)
    code, env = run_cli(capsys, ["powers-check", "--family", configs["f2"],
                                 "--witness", str(witness_file)])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["inputs"] == {"family": configs["f2"], "witness": str(witness_file)}


def test_deep_cylinder_witness_ends_in_one_envelope(configs, capsys, tmp_path):
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps({**WITNESS,
                                        "D": {"type": "cylinder", "prefixes": ["s^1500"]},
                                        "E": {"type": "cylinder", "prefixes": ["t"]}}))
    code, env = run_cli(capsys, ["powers-check", "--family", configs["f2"],
                                 "--witness", str(witness_file)])
    assert code == 0
    assert env["outputs"]["holds"] is False
    assert env["outputs"]["detail"] == "D and E do not cover all irreducibles"


def test_finite_group_dual_witness_is_checked_exactly(configs, capsys, tmp_path):
    # lists, finite WordSets and the CLI reach the same exact verdict
    spec = {"F": ["s"], "D": ["s", "t"], "E": ["e", "s^-1", "t^-1"], "r": ["e", "t", "s"],
            "truncation_radius": 1}
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps(spec))
    code, env = run_cli(capsys, ["powers-check", "--family", configs["f2"],
                                 "--witness", str(witness_file)])
    assert code == 0
    f2 = cli.load_family_config(configs["f2"]).system
    D, E = ([f2.parse_label(t) for t in spec[key]] for key in ("D", "E"))
    checks = []
    for d, e in [(D, E), (fk.WordSet.finite(f2, D), fk.WordSet.finite(f2, E))]:
        checks.append(fk.check_witness(f2, fk.PowersWitness(
            [f2.parse_label("s")], d, e, *(f2.parse_label(t) for t in spec["r"]),
            truncation_radius=1)))
    expect = fk.WitnessCheck(False, True, "D and E do not cover all irreducibles; "
                                          "truncation_radius 1 unused: the check is exact")
    assert checks == [expect, expect]
    assert env["outputs"] == {"holds": False, "exact": True, "detail": expect.detail}


def test_group_dual_witness_says_its_radius_went_unused(configs, capsys, tmp_path):
    spec = {"F": ["s", "s^-1"], "D": {"type": "cylinder", "prefixes": ["t^-1"]},
            "E": {"type": "cylinder", "prefixes": ["s", "s^-1", "t"], "include": ["e"]},
            "r": ["t", "s^-1 t", "s t"]}
    details = []
    for extra in ({}, {"truncation_radius": 2}):
        witness_file = tmp_path / "w.json"
        witness_file.write_text(json.dumps({**spec, **extra}))
        code, env = run_cli(capsys, ["powers-check", "--family", configs["f2"],
                                     "--witness", str(witness_file)])
        assert code == 0
        assert env["outputs"]["holds"] is True and env["outputs"]["exact"] is True
        details.append(env["outputs"]["detail"])
    assert details == ["all conditions hold",
                       "all conditions hold; truncation_radius 2 unused: the check is exact"]


def test_empty_parameter_entries_are_config_errors(configs, capsys, tmp_path):
    code, env = run_cli(capsys, ["modular-spectrum", "--family", configs["ao2q-at-1"],
                                 "--list", "2^1/2,2^-1/2,", "--member", "2"])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["outputs"]["error"] == "--list: empty parameter"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**AO3, "params": {"fundamental_list": ["q", " "]}}))
    code, env = run_cli(capsys, ["modular-spectrum", "--family", str(config)])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["outputs"]["error"] == "fundamental_list: empty parameter"


def test_missing_family_file(capsys):
    code, env = run_cli(capsys, ["decompose", "--family", "/nonexistent.json",
                                 "--x", "r1", "--y", "r1"])
    assert code == 2


ZD2 = {"type": "Zd", "d": 2}
MALFORMED_CONFIGS = {
    "values-list": {**AO3, "params": {"values": [1]}},
    "values-bad-fraction": {**AO3, "params": {"values": {"q": "one half"}}},
    "fundamental-list-int": {**AO3, "params": {"fundamental_list": [1]}},
    "fundamental-list-zero-denominator": {**AO3, "params": {"fundamental_list": ["q^1/0"]}},
    "factor-int-name": {"family": "group_dual", "factors": [{"type": "Z", "name": 1}]},
    "zd-int-names": {"family": "group_dual", "factors": [{**ZD2, "names": [1, 2]}]},
    "zd-string-names": {"family": "group_dual", "factors": [{**ZD2, "names": "st"}]},
    "zd-names-e": {"family": "group_dual", "factors": [{**ZD2, "names": ["e", "e"]}]},
}


@pytest.mark.parametrize("spec", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_family_config_is_config_error(capsys, tmp_path, spec):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(spec))
    code, env = run_cli(capsys, ["decompose", "--family", str(config), "--x", "e", "--y", "e"])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["inputs"] == {"family": str(config), "x": "e", "y": "e"}


def test_deeply_nested_family_config_is_config_error(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text("[" * 100000)
    code, env = run_cli(capsys, ["decompose", "--family", str(config), "--x", "e", "--y", "e"])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["inputs"] == {"family": str(config), "x": "e", "y": "e"}


def test_unwritable_csv_is_config_error(configs, capsys, tmp_path):
    csv = str(tmp_path / "missing" / "growth.csv")
    code, env = run_cli(capsys, ["growth", "--family", configs["f2"], "--v", "e + s + s^-1",
                                 "--center", "e", "--rmax", "2", "--csv", csv])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["inputs"] == {"family": configs["f2"], "v": "e + s + s^-1", "center": "e",
                             "rmax": 2, "csv": csv}


def test_unwritable_dot_is_config_error(configs, capsys, tmp_path):
    dot = str(tmp_path / "missing" / "g.dot")
    code, env = run_cli(capsys, ["graph", "--family", configs["ao2q-at-1"], "--u", "r2",
                                 "--depth", "3", "--dot", dot])
    assert code == 2
    assert env["outputs"]["kind"] == "config"
    assert env["inputs"] == {"family": configs["ao2q-at-1"], "u": "r2", "depth": 3}


AO3_WITNESS = {"F": ["r2"], "D": ["r1"], "E": ["r2"], "r": ["r1", "r2", "r3"]}
DECOMPOSE = ("decompose", "--x", "e", "--y", "e")
CHECK = ("powers-check",)
GRAPH = ("graph", "--u", "r2", "--depth", "2")


def growth(v, rmax):
    return ("growth", "--v", v, "--center", "e", "--rmax", str(rmax))


def last(entry):
    """Outputs whose last entry is ``entry``."""
    return lambda outputs: outputs[-1] == entry


def zz3_ball(r):
    """The ball of radius ``r`` in Z*Z/3: spheres 1, 4, 10, then s_r = s_(r-1) + 4 s_(r-2)."""
    spheres = [1, 4, 10]
    while len(spheres) <= r:
        spheres.append(spheres[-1] + 4 * spheres[-2])
    return sum(spheres[:r + 1])


def ao2_values(value):
    """``a_o(2)`` with the list ``q, q^-1`` and ``value`` for ``q``."""
    return {**AO2Q, "params": {**AO2Q["params"], "values": {"q": value}}}


# id: (family config, command and flags, witness file content or None, exit code,
#      expected outputs entries or a predicate on the outputs[, time bound in s])
BRANCHES = {
    "params-not-a-mapping": ({**AO3, "params": [1]}, DECOMPOSE, None, 2,
                             {"kind": "config", "error": "'params' must be a mapping"}),
    "params-unknown-key": ({**AO3, "params": {"mystery": 1}}, DECOMPOSE, None, 2,
                           {"kind": "config", "error": "unknown params keys: ['mystery']"}),
    "generators-not-a-list": ({**AO3, "params": {"generators": "q"}}, DECOMPOSE, None, 2,
                              {"kind": "config",
                               "error": "'generators' must be a list of names"}),
    "values-list-entry": ({**AO3, "params": {"values": {"q": [1]}}}, DECOMPOSE, None, 2,
                          {"kind": "config", "error": "bad numeric value for 'q': [1]"}),
    # a value must be a positive finite number: none of these reaches the computation
    **{f"values-{name}": (ao2_values(value), GRAPH, None, 2,
                          {"kind": "config", "error": f"bad numeric value for 'q': {value!r}"})
       for name, value in [("true", True), ("zero", 0), ("negative", -2),
                           ("negative-fraction", "-1/2"), ("nan", math.nan),
                           ("infinity", math.inf), ("beyond-float", "1e400"),
                           ("below-float", "1e-400")]},
    "values-fraction-string": (ao2_values("6/5"), GRAPH, None, 0,
                               {"end_dims": ["1", "1", "2"]}),
    "values-int": (ao2_values(2), GRAPH, None, 0, {"end_dims": ["1", "1", "2"]}),
    "moments-no-word-no-k": (AO3, ("moments", "--u", "r2"), None, 2,
                             {"kind": "config", "error": "moments needs --word or --k"}),
    "moments-k-0": (AO3, ("moments", "--u", "r2", "--k", "0"), None, 2,
                    {"kind": "config", "error": "--k must be >= 1"}),
    "list-invariant-no-params": (AO3, ("list-invariant",), None, 2,
                                 {"kind": "config", "error": "list-invariant needs a params "
                                                             "block with a fundamental_list"}),
    "modular-spectrum-no-list": (AO3, ("modular-spectrum",), None, 2,
                                 {"kind": "config", "error": "modular-spectrum needs --list "
                                                             "or a config fundamental_list"}),
    "witness-not-an-object": (F2, CHECK, [1], 2,
                              {"kind": "config",
                               "error": "witness file must define keys ['D', 'E', 'F', 'r']"}),
    "witness-two-r": (F2, CHECK, {**WITNESS, "r": ["t", "s t"]}, 2,
                      {"kind": "config", "error": "witness needs exactly three r labels"}),
    "descriptor-int": (F2, CHECK, {**WITNESS, "D": 5}, 2,
                       {"kind": "config", "error": "bad set descriptor: 5"}),
    "cylinder-on-a_o": (AO3, CHECK, {**AO3_WITNESS, "D": {"type": "cylinder",
                                                          "prefixes": ["r2"]}}, 2,
                        {"kind": "config", "error": "cylinder sets need a group-dual family"}),
    "descriptor-unknown-key": (F2, CHECK, {**WITNESS, "D": {**WITNESS["D"], "mystery": 1}}, 2,
                               {"kind": "config",
                                "error": "unknown set descriptor keys: ['mystery']"}),
    "descriptor-unknown-type": (F2, CHECK, {**WITNESS, "D": {"type": "ball"}}, 2,
                                {"kind": "config", "error": "unknown set type 'ball'"}),
    "a_o-witness-no-radius": (AO3, CHECK, AO3_WITNESS, 1,
                              {"kind": "computation",
                               "error": "finite witnesses need a truncation_radius"}),
    "powers-search-on-a_o": (AO3, ("powers-search", "--f", "r2"), None, 1,
                             {"kind": "computation",
                              "error": "witness search needs a group-dual family"}),
    "modular-spectrum-config-list": (AO2Q, ("modular-spectrum",), None, 0,
                                     {"hnf_rows": [[4]]}),
    "powers-search-budget-0": (F2, ("powers-search", "--f", "s", "--budget", "0"), None, 0,
                               {"found": False,
                                "note": "bounded search exhausted; proves nothing"}),
    # closed forms at scale: the ball of F2 is 2*3^r - 1, also with Z/m for m > 2r
    "growth-f2-rmax-10": (F2, growth(F2_V, 10), None, 0,
                          last({"ball_size": 118097, "radius": 10})),
    "growth-f2-rmax-3000": (F2, growth(F2_V, 3000), None, 0,
                            last({"ball_size": 2 * 3 ** 3000 - 1, "radius": 3000}), 5.0),
    "growth-zz3-rmax-3000": (ZZ3, growth(ZZ3_V, 3000), None, 0,
                             last({"ball_size": zz3_ball(3000), "radius": 3000}), 5.0),
    # only rmax + 1 terms of a factor's series are built, so the cost does not grow with m
    "growth-z-mod-1e6": (dual(g=10 ** 6), growth("e + g + g^-1", 50), None, 0,
                         last({"ball_size": 101, "radius": 50}), 5.0),
    **{f"growth-z-mod-1e{p}-times-z": (
        dual(g=10 ** p, s=None), growth("e + g + g^-1 + s + s^-1", 50), None, 0,
        last({"ball_size": 2 * 3 ** 50 - 1, "radius": 50}), 5.0) for p in (6, 12)},
    # s lies outside <s^2, t>, the subgroup the generator's support generates: no search runs
    "distance-outside-the-subgroup": (F2, ("distance", "--v", "e + s^2 + s^-2 + t + t^-1",
                                           "--a", "e", "--b", "s"), None, 1,
                                      {"error": "not reached within budget 64: d(e, s)",
                                       "kind": "computation"}, 5.0),
    "graph-z2-depth-40": ({"family": "group_dual", "factors": [ZD2]},
                          ("graph", "--u", "e + g1 + g1^-1 + g2 + g2^-1", "--depth", "40"),
                          None, 0, {"end_dims": [str(n) for n in lazy_walk_counts(40)]}),
    # each disjointness condition is decided without forming the intersection
    "powers-check-long-r1": (F2, CHECK, {**WITNESS, "r": [" ".join(["t s"] * 400),
                                                           "s^-1 t", "s t"]}, 0,
                             {"holds": False, "exact": True, "detail": "r1 o E meets r2 o E"}),
    # free-product moments join the free parts; a star word of one letter kind is a power
    "moments-zz3-k-40": (ZZ3, ("moments", "--u", ZZ3_V, "--k", "40"), None, 0,
                         last({"word": "X" * 40, "value": "6165864081073485714595283"})),
    "moments-zz3-word-40": (ZZ3, ("moments", "--u", ZZ3_V, "--word", "X" * 40), None, 0,
                            last({"word": "X" * 40, "value": "6165864081073485714595283"})),
    "moments-f2-star-word-40": (F2, ("moments", "--u", F2_V, "--word", "X*" * 40), None, 0,
                                last({"word": "X*" * 40, "value": "1033401306956713327750481"})),
}


@pytest.mark.parametrize("name", BRANCHES)
def test_cli_branches_end_in_one_envelope(capsys, tmp_path, name):
    spec, argv, witness, want_code, want, *bound = BRANCHES[name]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(spec))
    flags = []
    if witness is not None:
        witness_file = tmp_path / "w.json"
        witness_file.write_text(json.dumps(witness))
        flags = ["--witness", str(witness_file)]
    code, env = run_cli(capsys, [argv[0], "--family", str(config), *argv[1:], *flags], *bound)
    assert code == want_code
    if callable(want):
        assert want(env["outputs"]), str(env["outputs"])[-300:]
    else:
        assert {key: env["outputs"].get(key) for key in want} == want
    assert env["inputs"]["family"] == str(config)
