"""The cli workload: one ``python -m fusionkit`` child process per command.

Every command runs three times in a row: without a cache, with a fresh
cache directory (cold) and again with the directory the cold run filled
(warm).  The three ``outputs`` must be identical (compared as canonical
JSON).  Error-path jobs
feed a malformed witness, an invalid config and an unknown label; they
pass only with exactly one envelope, exit code 1 or 2 and no traceback.

In a traced pass the child is ``cli_shim.py``, which installs the same
wrappers as the in-process workloads before calling ``fusionkit.cli.run``
and writes its spans to a file that this process merges.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as o
from results import Outcome, PassResult, checked

JOB_TIMEOUT_S = 60
TRACE_ENV = "PERFBENCH_TRACE_OUT"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"
MODES = ("nocache", "cold", "warm")

F2_V = "e + s + s^-1 + t + t^-1"

CONFIGS = {
    "ao2q": {"family": "a_o", "n": 2,
             "params": {"generators": ["q"], "fundamental_list": ["q", "q^-1"],
                        "values": {"q": 1.2}}},
    "ao3": {"family": "a_o", "n": 3},
    "f2": {"family": "group_dual",
           "factors": [{"type": "Z", "name": "s"}, {"type": "Z", "name": "t"}]},
    "z2": {"family": "group_dual", "factors": [{"type": "Zd", "d": 2}]},
    "bad": {"family": "a_o", "n": 3, "mystery": 1},
}

# the witness powers-search finds for F = {s, s^-1}
WITNESS = {"F": ["s", "s^-1"], "D": {"type": "cylinder", "prefixes": ["t^-1"]},
           "E": {"type": "cylinder", "prefixes": ["s", "s^-1", "t"], "include": ["e"]},
           "r": ["t", "s^-1 t", "s t"]}
MALFORMED_WITNESS = {"F": [1], "D": [], "E": [], "r": ["e", "e", "e"]}


@dataclass
class Command:
    name: str
    args: list[str]
    check: Callable[[object], str | None]  # on the envelope's outputs
    error_input: bool = False              # expects an error envelope, exit 1 or 2
    family: str | None = None              # amenability family, for the estimate error
    depth: int | None = None


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


class CliWorkload:
    def __init__(self, out_dir: Path, src_dir: Path):
        self.out_dir = out_dir
        self.src_dir = src_dir
        self.commands: list[Command] = []
        self.errors: list[Command] = []
        self.work: Path | None = None
        self.passes = 0

    # -- set-up ----------------------------------------------------------------

    def setup(self, fk, seed: int, attempt: int) -> None:
        """Write the configs, check that fusionkit accepts them, build the commands."""
        rng = random.Random(seed)
        work = self.out_dir / f"cli-{os.getpid()}-{attempt}"
        cfg_dir = work / "cfg"
        cfg_dir.mkdir(parents=True)
        paths = {}
        for name, cfg in {**CONFIGS, "witness": WITNESS,
                          "malformed_witness": MALFORMED_WITNESS}.items():
            paths[name] = str(cfg_dir / f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        for name in CONFIGS:
            if name != "bad":
                fk.cli.load_family_config(paths[name])
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
        self.work = work
        self.commands = _commands(rng, paths)
        self.errors = _error_commands(paths)

    def jobs_per_pass(self) -> int:
        return len(MODES) * len(self.commands) + len(self.errors)

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)

    # -- one pass ----------------------------------------------------------------

    def run_pass(self, tracer=None) -> PassResult:
        self.passes += 1
        pass_dir = self.work / f"pass-{self.passes}"
        pass_dir.mkdir()
        outcomes: list[Outcome] = []
        mode_wall = dict.fromkeys(MODES, 0.0)
        extras = {"cli.startup_s": 0.0, "cli.envelope_bytes": 0,
                  "cli.cache_files": 0, "cli.cache_bytes": 0}
        try:
            for i, cmd in enumerate(self.commands):
                cache = pass_dir / f"cache-{i}"
                results = []
                for mode in MODES:
                    extra = [] if mode == "nocache" else ["--cache-dir", str(cache)]
                    outcome, outputs = self._run(cmd, cmd.args + extra, pass_dir, tracer,
                                                 extras)
                    mode_wall[mode] += outcome.seconds
                    results.append((outcome, outputs))
                    if mode == "cold":
                        files, size = _tree_size(cache)
                        extras["cli.cache_files"] += files
                        extras["cli.cache_bytes"] += size
                outcomes.extend(outcome for outcome, _ in results)
                _compare_modes(results)
            for cmd in self.errors:
                outcomes.append(self._run(cmd, cmd.args, pass_dir, tracer, extras)[0])
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        extras.update({f"wall_s.{m}": w for m, w in mode_wall.items()})
        return PassResult(sum(x.seconds for x in outcomes), outcomes, extras)

    def _run(self, cmd: Command, args: list[str], cwd: Path, tracer, extras):
        env = {k: v for k, v in os.environ.items() if k != "FUSIONKIT_CACHE_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src_dir), *filter(None, [os.environ.get("PYTHONPATH")])])
        trace_file = None
        if tracer is None:
            argv = [sys.executable, "-m", "fusionkit", *args]
        else:
            trace_file = cwd / "trace.json"
            env[TRACE_ENV] = str(trace_file)
            argv = [sys.executable, str(SHIM), *args]
        outcome = Outcome(cmd.name, 0.0, family=cmd.family, rung=cmd.depth)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                                  timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            outcome.seconds = time.perf_counter() - start
            outcome.error = f"timed out after {JOB_TIMEOUT_S} s"
            return outcome, None
        outcome.seconds = time.perf_counter() - start
        if trace_file is not None and trace_file.exists():
            with open(trace_file, encoding="utf-8") as fh:
                tracer.merge(json.load(fh), tracer.job_id)
            trace_file.unlink()
            tracer.job_id += 1
        extras["cli.envelope_bytes"] += len(proc.stdout)
        envelope, problem = _one_envelope(proc, cmd.error_input)
        if problem is not None:
            outcome.error = problem
            return outcome, None
        if envelope.get("elapsed_ms") is not None:
            extras["cli.startup_s"] += outcome.seconds - envelope["elapsed_ms"] / 1000
        wrong = checked(cmd.check, envelope["outputs"])
        if wrong is not None:
            outcome.error, outcome.wrong = wrong, True
            return outcome, None
        if cmd.family is not None:
            outcome.estimate = envelope["outputs"]["estimate"]
        return outcome, envelope["outputs"]


def _one_envelope(proc, error_input: bool):
    """The single JSON envelope on stdout, or why the job broke the CLI contract."""
    if b"Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.decode(errors="replace").strip().splitlines()[-1]
        return None, f"traceback ({last}), exit {proc.returncode}"
    text = proc.stdout.decode("utf-8", errors="replace")
    try:
        envelope, end = json.JSONDecoder().raw_decode(text.lstrip())
    except ValueError:
        return None, f"no JSON envelope on stdout, exit {proc.returncode}"
    if text.lstrip()[end:].strip():
        return None, "more than one value on stdout"
    if not isinstance(envelope, dict) or "outputs" not in envelope:
        return None, "stdout is not a result envelope"
    if not error_input and proc.returncode != 0:
        return None, f"exit {proc.returncode}: {envelope['outputs']}"
    if error_input and proc.returncode not in (1, 2):
        return None, f"error input exited {proc.returncode}, want 1 or 2"
    return envelope, None


def _compare_modes(results) -> None:
    """Mark every mode wrong when the three outputs differ."""
    outputs = [out for _, out in results]
    if any(out is None for out in outputs):
        return
    texts = {json.dumps(out, sort_keys=True) for out in outputs}
    if len(texts) > 1:
        for outcome, _ in results:
            outcome.error = "outputs differ between cache modes"
            outcome.wrong = True


def _tree_size(path: Path) -> tuple[int, int]:
    files = size = 0
    for root, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


# ---------------------------------------------------------------------------
# the command set: the README commands at small sizes
# ---------------------------------------------------------------------------

def _commands(rng: random.Random, paths: dict[str, str]) -> list[Command]:
    f2 = o.FreeProduct([None, None])
    names = ("s", "t")
    cmds: list[Command] = []

    a, b = rng.randint(2, 8), rng.randint(2, 8)
    want = {f"r{c}": "1" for c in range(abs(a - b) + 1, a + b, 2)}
    cmds.append(Command("decompose.a_o", ["decompose", "--family", paths["ao3"],
                                           "--x", f"r{a}", "--y", f"r{b}"],
                        lambda out: _expect(out, want, "r_a (x) r_b")))

    cats = [str(o.catalan(k)) for k in range(1, 9)]
    cmds.append(Command("moments.a_o", ["moments", "--family", paths["ao2q"], "--u", "r2",
                                         "--even", "--k", "8"],
                        lambda out: _expect([m["value"] for m in out], cats, "even moments")))

    p = f2.random_word(rng, 4)
    q = f2.mul(f2.random_word(rng, 6), p)
    cmds.append(Command("distance.f2", ["distance", "--family", paths["f2"], "--v", F2_V,
                                         "--a", f2.text(p, names), "--b", f2.text(q, names),
                                         "--budget", "64"],
                        lambda out: _expect(out, {"distance": 6}, "distance")))

    cmds.append(Command("ball.f2", ["ball", "--family", paths["f2"], "--v", F2_V,
                                     "--center", "e", "--r", "3"],
                        lambda out: _expect((out["size"], len(set(out["labels"]))),
                                            (o.f2_ball(3), o.f2_ball(3)), "ball size")))

    rows = [{"radius": i, "ball_size": o.f2_ball(i)} for i in range(5)]
    cmds.append(Command("growth.f2", ["growth", "--family", paths["f2"], "--v", F2_V,
                                      "--center", "e", "--rmax", "4", "--csv", "growth.csv"],
                        lambda out: _expect(out, rows, "growth rows")))

    counts, cross = o.z2_counts(8)
    want_counts = ([str(c) for c in counts], [str(c) for c in cross])
    cmds.append(Command("amenable.zd2", ["amenable", "--family", paths["z2"], "--depth", "8"],
                        lambda out: _expect((out["counts"], out["cross_counts"]), want_counts,
                                            "Kesten counts"),
                        family="zd2", depth=8))

    def q_lists(out):
        want = {f"r{k}": sorted(k - 1 - 2 * i for i in range(k)) for k in range(1, 8)}
        got = {label: sorted(_q_exponent(t) for t in entries) for label, entries in out.items()}
        return _expect(got, want, "q lists")

    cmds.append(Command("list-invariant.a_o", ["list-invariant", "--family", paths["ao2q"],
                                                "--depth", "6"], q_lists))

    exps = [rng.randint(0, 6) for _ in range(3)]
    members = ",".join(str(2 ** e) for e in exps)
    want_members = {str(2 ** e): e % 2 == 0 for e in exps}
    cmds.append(Command("modular-spectrum", ["modular-spectrum", "--family", paths["ao2q"],
                                              "--list", "2^1/2,2^-1/2", "--member", members],
                        lambda out: _expect(out["membership"], want_members,
                                            "lattice membership of 2^e (e even)")))

    ends = [str(o.catalan(k)) for k in range(11)]
    cmds.append(Command("graph.a_o", ["graph", "--family", paths["ao2q"], "--u", "r2",
                                       "--depth", "10", "--dot", "out.dot"],
                        lambda out: _expect(out["end_dims"], ends, "tower end dims")))

    letter = rng.choice(names)
    F = [letter, f"{letter}^-1"]
    cmds.append(Command("powers-search.f2", ["powers-search", "--family", paths["f2"],
                                              "--f", ",".join(F), "--budget", "2"],
                        lambda out: _expect((out["found"], out.get("F"), len(out.get("r", []))),
                                            (True, F, 3), "witness search")))

    cmds.append(Command("powers-check.f2", ["powers-check", "--family", paths["f2"],
                                             "--witness", paths["witness"]],
                        lambda out: _expect((out["holds"], out["exact"]), (True, True),
                                            "witness check")))
    return cmds


def _q_exponent(text: str) -> int:
    if text == "1":
        return 0
    if text == "q":
        return 1
    return int(text.removeprefix("q^"))


def _error_commands(paths: dict[str, str]) -> list[Command]:
    def error_kind(kind):
        return lambda out: _expect(out.get("kind"), kind, "error kind")

    return [
        # Fails at the parent commit: parse_label meets an int and raises
        # AttributeError, so the CLI prints a traceback and no envelope.
        Command("error.malformed_witness", ["powers-check", "--family", paths["f2"],
                                            "--witness", paths["malformed_witness"]],
                lambda out: None, error_input=True),
        Command("error.invalid_config", ["decompose", "--family", paths["bad"],
                                         "--x", "r1", "--y", "r2"],
                error_kind("config"), error_input=True),
        Command("error.unknown_label", ["decompose", "--family", paths["f2"],
                                        "--x", "zz", "--y", "s"],
                error_kind("computation"), error_input=True),
    ]
