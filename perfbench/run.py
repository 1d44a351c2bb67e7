"""fusionkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a fusionkit checkout; the program is imported from
``src/``.  Workloads:

* ``algebra`` -- Kesten ladders on every counting path, towers, parameter
  lists and star moments (tensor powers);
* ``metric``  -- growth tables and distances by BFS on group duals;
* ``sets``    -- the powers set calculus: translations, boolean algebra,
  witness search and checks;
* ``cli``     -- one ``python -m fusionkit`` child per command, each without
  a cache, with a cold cache and with the warm cache, plus error inputs.

Each workload is a closed loop with one client: jobs run one after the
other in one process (one child process at a time for ``cli``).  A pass
runs every job of the workload once; passes repeat until ``--seconds``
have gone by.  Every output is checked against an oracle that does not
use fusionkit.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half the time runs untraced and
half with spans recorded around fusionkit's entry points, and the JSON
holds the per-layer metrics.  Lines before it are a readable report,
including the ladders (time per rung and the ratio between rungs).
Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path
from statistics import fmean, median

import library
from cliwork import CliWorkload
from layers import PER_LAYER, install, layer_metrics
from oracles import NORMS
from results import Outcome, PassResult, checked
from spans import Tracer
from timing import percentile, slowest_sum, tail_percentile, upper_quartile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("algebra", "metric", "sets", "cli")
SETUP_REPEATS = 5        # set-ups at the start and before each later untraced pass (>= 3)
JOB_TIMEOUT_S = 60

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")]


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"no result within {JOB_TIMEOUT_S} s")


def fusionkit_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "fusionkit" or name.startswith("fusionkit.")}


def import_fusionkit(with_cli: bool):
    """Import fusionkit afresh, so that every set-up pays the import."""
    for name in fusionkit_modules():
        del sys.modules[name]
    fk = importlib.import_module("fusionkit")
    if with_cli:
        importlib.import_module("fusionkit.cli")
    return fk


class LibraryWorkload:
    """A list of in-process jobs from ``library``."""

    def __init__(self, name: str):
        self.build = getattr(library, name)
        self.jobs: list = []
        self.job_counter = 0

    def setup(self, fk, seed: int, attempt: int) -> None:
        jobs = self.build(fk, random.Random(seed))
        # A later set-up builds the same jobs again only to be timed: the
        # first ones keep the oracle results their checks have cached.
        if not self.jobs:
            self.jobs = jobs

    def jobs_per_pass(self) -> int:
        return len(self.jobs)

    def close(self) -> None:
        pass

    def run_pass(self, tracer=None):
        outcomes = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job_id = self.job_counter
            self.job_counter += 1
            out = Outcome(job.name, 0.0, ladder=job.ladder, rung=job.rung, family=job.family)
            gc.collect()  # garbage of earlier jobs is not this job's cost
            signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
            start = time.perf_counter()
            try:
                result = job.run()
                out.seconds = time.perf_counter() - start
            except Exception as exc:  # a failed job is counted; the run goes on
                out.seconds = time.perf_counter() - start
                out.error = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if out.error is None:
                wrong = checked(job.check, result)
                if wrong is not None:
                    out.error, out.wrong = wrong, True
                elif job.family is not None:
                    out.estimate = result.estimate
            outcomes.append(out)
        return PassResult(sum(o.seconds for o in outcomes), outcomes)


def run_for(workload, seconds: float, tracer=None, before_pass=None) -> list:
    """Whole passes until ``seconds`` have gone by (at least one).

    ``before_pass(n)`` runs before every pass, ``n`` being the number of
    passes done; its time counts towards ``seconds`` but not towards any
    pass.
    """
    passes, lengths = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if before_pass is not None:
            before_pass(len(passes))
        gc.collect()
        passes.append(workload.run_pass(tracer))
        lengths.append(time.perf_counter() - began)  # with checks and collections
        if time.perf_counter() - start + median(lengths) / 2 >= seconds:
            return passes


def timed_setups(workload, args, count: int, attempts: list) -> object:
    """Set the workload up ``count`` times; append each time to ``attempts``.

    Only the first set-up of a run is kept: a later one imports fusionkit
    again to be timed, and then the first import is put back, because
    fusionkit imports some modules lazily and the jobs must keep meeting
    the classes they were built from.  The objects kept live all run, so
    they are frozen out of collections.
    """
    first = fusionkit_modules()
    gc.unfreeze()
    for _ in range(count):
        gc.collect()
        start = time.perf_counter()
        fk = import_fusionkit(with_cli=args.workload == "cli")
        workload.setup(fk, args.seed, len(attempts))
        attempts.append(time.perf_counter() - start)
        first = first or fusionkit_modules()
    for name in fusionkit_modules():
        del sys.modules[name]
    sys.modules.update(first)
    gc.collect()
    gc.freeze()
    return first["fusionkit"]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def ladders(passes) -> dict[str, list[dict]]:
    """Median time and estimate error per rung of every ladder."""
    times: dict[tuple[str, int], list[float]] = {}
    errors: dict[tuple[str, int], float] = {}
    for p in passes:
        for o in p.outcomes:
            if o.ladder is None or o.error is not None:
                continue
            times.setdefault((o.ladder, o.rung), []).append(o.seconds)
            if o.estimate is not None:
                errors[(o.ladder, o.rung)] = abs(o.estimate - NORMS[o.family])
    out: dict[str, list[dict]] = {}
    for (name, rung), ts in sorted(times.items()):
        rows = out.setdefault(name, [])
        row = {"rung": rung, "ms": median(ts) * 1000}
        if rows:
            row["ratio"] = row["ms"] / rows[-1]["ms"]
        if (name, rung) in errors:
            row["abs_err"] = errors[(name, rung)]
        rows.append(row)
    return out


def estimate_errors(passes) -> dict[str, float]:
    """|estimate - exact norm| at the deepest K run for each family."""
    deepest: dict[str, tuple[int, float]] = {}
    for p in passes:
        for o in p.outcomes:
            if o.estimate is not None and o.rung >= deepest.get(o.family, (-1, 0.0))[0]:
                deepest[o.family] = (o.rung, abs(o.estimate - NORMS[o.family]))
    return {f"amenability.estimate_abs_err.{fam}": err for fam, (_, err) in deepest.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fusionkit" / "__init__.py").is_file():
        print(f"perfbench: no fusionkit sources at {SRC / 'fusionkit'}; "
              "run from the root of a fusionkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)

    if args.workload == "cli":
        workload = CliWorkload(OUT, SRC)
    else:
        workload = LibraryWorkload(args.workload)
    try:
        setup_times: list[float] = []
        fk = timed_setups(workload, args, SETUP_REPEATS, setup_times)
        if not Path(fk.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"perfbench: imported fusionkit from {fk.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.trace:
            result = traced_run(args, workload)
        else:
            result = plain_run(args, workload, setup_times)
    finally:
        workload.close()

    report(args, workload, result, len(setup_times))
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({k: v for k, v in result.items() if k != "passes"}, fh, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


def _summary(passes) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    failures: dict[str, str] = {}
    for o in outcomes:
        if o.error is not None:
            failures.setdefault(o.name, o.error)
    return {"correct": not any(o.wrong for o in outcomes), "attempted": len(outcomes),
            "failed": sum(o.error is not None for o in outcomes), "failures": failures}


def plain_run(args, workload, setup_times: list) -> dict:
    """Set-ups are timed again before every pass, so that their samples span the run.

    Peak memory is read after the first pass: the set-ups that follow it
    fragment the heap, so a later reading would grow with the number of
    passes, that is with the speed of the host.
    """
    children = args.workload == "cli"
    peak = []

    def set_up_again(done: int):
        if done == 1:
            peak.append(peak_rss_mb(children))
        if done:  # the first pass uses the set-up made in ``main``
            timed_setups(workload, args, SETUP_REPEATS, setup_times)

    passes = run_for(workload, args.seconds, before_pass=set_up_again)
    samples = [o.seconds for p in passes for o in p.outcomes]
    tail_p = tail_percentile(len(samples))
    values = {
        "setup_s": upper_quartile(setup_times),
        "wall_s": slowest_sum([o.seconds for o in p.outcomes] for p in passes),
        "peak_rss_mb": peak[0] if peak else peak_rss_mb(children),
    }
    result = _summary(passes)
    result.update(
        passes=passes, pass_walls=[p.wall for p in passes],
        job_seconds=[[o.seconds for o in p.outcomes] for p in passes], tail_percentile=tail_p,
        samples=len(samples), setup_times=setup_times,
        latency={"job_ms_p50": percentile(samples, 50) * 1000,
                 "job_ms_tail": percentile(samples, tail_p) * 1000},
        metrics={name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        ladders=ladders(passes),
        modes={k: fmean(p.extras[k] for p in passes)
               for k in passes[0].extras if k.startswith("wall_s.")})
    return result


def traced_run(args, workload) -> dict:
    plain = run_for(workload, args.seconds / 2)
    tracer = Tracer()
    if args.workload != "cli":
        install(tracer)
    traced = run_for(workload, args.seconds / 2, tracer)

    values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    values.update(layer_metrics(tracer, len(traced)))
    for key in traced[0].extras:
        source = plain if key.startswith("wall_s.") else traced
        values[key] = fmean(p.extras[key] for p in source)
    values.update(estimate_errors(plain + traced))
    values["trace.overhead_frac"] = (fmean(p.wall for p in traced)
                                     / fmean(p.wall for p in plain) - 1)
    tracer.write_tsv(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    result = _summary(plain + traced)
    result.update(passes=plain + traced, untraced_passes=len(plain), traced_passes=len(traced),
                  spans=len(tracer),
                  metrics={name: {"value": values[name], "unit": unit}
                           for name, unit in PER_LAYER})
    return result


def report(args, workload, result, setups: int) -> None:
    line = (f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
            f"jobs/pass {workload.jobs_per_pass()}  attempted {result['attempted']}  "
            f"failed {result['failed']}  failed_frac "
            f"{result['failed'] / result['attempted']:.4f}  correct {result['correct']}")
    print(line)
    if args.trace:
        print(f"passes: {result['untraced_passes']} untraced, {result['traced_passes']} traced; "
              f"{result['spans']} spans")
    else:
        print(f"passes {len(result['passes'])}; set-up is the upper quartile of {setups}; "
              f"job_ms_tail is p{result['tail_percentile']:g} of {result['samples']} samples")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in result.get("latency", {}).items():
        print(f"  {name:<40} {value:>14.6g} ms")
    for name, value in result.get("modes", {}).items():
        print(f"  {name:<40} {value:>14.6g} s")
    for name, rows in result.get("ladders", {}).items():
        cells = []
        for row in rows:
            cell = f"{row['rung']}: {row['ms']:.1f} ms"
            if "ratio" in row:
                cell += f" x{row['ratio']:.2f}"
            if "abs_err" in row:
                cell += f" err {row['abs_err']:.4f}"
            cells.append(cell)
        print(f"  ladder {name}: " + " | ".join(cells))
    for name, error in result["failures"].items():
        print(f"  failed {name}: {error}")


if __name__ == "__main__":
    sys.exit(main())
