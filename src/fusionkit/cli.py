"""Command-line front end: family configs, result envelopes, disk cache.

Every run prints one JSON ResultEnvelope to stdout and exits 0 on success,
1 on a computation error, 2 on a configuration error.  Outputs are
deterministic for a given config and engine version; multiplicities are
serialized as decimal strings throughout because they routinely exceed
native integer ranges in downstream consumers.  With ``--cache-dir`` a run
starts from the family's saved pair memo and saves it back when it added
products.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys as _sys
import tempfile
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .core import FusionElement, FusionError, FusionSystem, IrrLabel
from .families import (
    GroupDualSystem,
    element_from_json,
    element_to_json,
    parse_element,
    system_from_config,
)
from . import amenability, characters, geometry, params, powers, towers


class ConfigError(FusionError):
    """Invalid configuration file or flags."""


class UsageError(ConfigError):
    """Arguments the command-line parser rejects; ``command`` is None when unknown."""

    def __init__(self, message: str, command: str | None):
        super().__init__(message)
        self.command = command


# ---------------------------------------------------------------------------
# persistent pair cache
# ---------------------------------------------------------------------------

class DiskCache:
    """Snapshots of pair memos, one JSON file per (engine version, family).

    The file is named by the hash of the engine version and the family id,
    so no engine version reads products another one wrote.
    ``lookup`` reads it once before a run and ``store`` replaces it once
    after; the replacement is a temp file renamed over the old one, so
    concurrent processes never read a torn file and the last writer wins.
    A missing file is an empty cache.  An unreadable or malformed one is
    ignored and later overwritten; an unusable directory or a failed write
    turns the cache off.  Each such degradation warns and is kept in
    ``degraded`` for the envelope.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.enabled = True
        self.degraded: list[str] = []
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._degrade(f"cache directory unusable ({exc}); falling back to memory")
            self.enabled = False

    def _degrade(self, reason: str) -> None:
        warnings.warn(reason)
        self.degraded.append(reason)

    def _path(self, sys: FusionSystem) -> str:
        key = json.dumps([__version__, sys.family_id])
        return os.path.join(self.directory, hashlib.sha256(key.encode()).hexdigest() + ".json")

    def lookup(self, sys: FusionSystem,
               ) -> dict[tuple[IrrLabel, IrrLabel], FusionElement] | None:
        """The saved pair memo of ``sys``, or None if there is none to use."""
        if not self.enabled:
            return None
        path = self._path(sys)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rows = json.load(fh)
            return {(sys.parse_label(a), sys.parse_label(b)): element_from_json(sys, value)
                    for a, b, value in rows}
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError,
                FusionError) as exc:
            self._degrade(f"cache file {path!r} ignored ({type(exc).__name__}: {exc})")
            return None

    def store(self, sys: FusionSystem,
              table: dict[tuple[IrrLabel, IrrLabel], FusionElement]) -> None:
        """Replace the saved pair memo of ``sys`` with ``table``."""
        if not self.enabled:
            return
        rows = [[sys.format_label(a), sys.format_label(b), element_to_json(sys, value)]
                for (a, b), value in table.items()]
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(rows, fh)
            os.replace(tmp, self._path(sys))
        except OSError as exc:
            self._degrade(f"cache write failed ({exc}); continuing without disk cache")
            self.enabled = False


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class FamilyConfig:
    system: FusionSystem
    fundamental_list: params.ParamList | None  # from the optional params block
    values: dict[str, float]


def _read_json(path: str, what: str):
    """A parsed JSON input file; failing to read or parse it is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def load_family_config(path: str) -> FamilyConfig:
    raw = _read_json(path, "config")
    try:
        system = system_from_config(raw)
    except FusionError as exc:
        raise ConfigError(str(exc)) from exc
    fund, values = None, {}
    if "params" in raw:
        block = raw["params"]
        if not isinstance(block, dict):
            raise ConfigError("'params' must be a mapping")
        unknown = set(block) - {"generators", "fundamental_list", "values"}
        if unknown:
            raise ConfigError(f"unknown params keys: {sorted(unknown)}")
        gens = block.get("generators", [])
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise ConfigError("'generators' must be a list of names")
        if "fundamental_list" in block:
            entries = block["fundamental_list"]
            if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
                raise ConfigError("'fundamental_list' must be a list of parameter strings")
            try:
                fund = params.ParamList.parse(entries)
            except FusionError as exc:
                raise ConfigError(f"fundamental_list: {exc}") from exc
        given = block.get("values", {})
        if not isinstance(given, dict):
            raise ConfigError("'values' must be a mapping from generator names to numbers")
        for name, val in given.items():
            bad = ConfigError(f"bad numeric value for {name!r}: {val!r}")
            if isinstance(val, str):
                try:
                    val = Fraction(val)
                except (ValueError, ZeroDivisionError):
                    raise bad from None
            elif isinstance(val, bool) or not isinstance(val, (int, float)):
                raise bad
            # a generator's value is a positive number with a positive finite float
            if not 0 < val <= _sys.float_info.max or not float(val):
                raise bad
            values[name] = val
    return FamilyConfig(system=system, fundamental_list=fund, values=values)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def make_envelope(command: str | None, inputs: dict, outputs, exact: bool = True,
                  elapsed_ms: float | None = None, degraded: Sequence[str] = ()) -> dict:
    envelope = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "exact": exact,
        "engine_version": __version__,
        "elapsed_ms": elapsed_ms,
    }
    if degraded:
        envelope["degraded"] = list(degraded)
    return envelope


def _internal_error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}


def emit(envelope: dict, code: int) -> int:
    """Print the envelope and return ``code``, or 1 if stdout's reader is gone."""
    try:
        text = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False)
    except (TypeError, ValueError, RecursionError) as exc:  # outputs JSON cannot hold
        return emit({**envelope, "exact": True, "outputs": _internal_error(exc)}, 1)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


# ---------------------------------------------------------------------------
# subcommands: each takes (args, cfg) and returns (outputs, exact)
# ---------------------------------------------------------------------------

def _write_output(path: str, text: str, flag: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {flag} file {path!r}: {exc}") from exc


def _cmd_decompose(args, cfg: FamilyConfig):
    sys_ = cfg.system
    x = parse_element(sys_, args.x)
    y = parse_element(sys_, args.y)
    product = sys_.tensor(x, y)
    outputs = {sys_.format_label(lab): str(m) for lab, m in sys_.sorted_items(product)}
    return outputs, True


def _cmd_moments(args, cfg: FamilyConfig):
    sys_ = cfg.system
    u = parse_element(sys_, args.u)
    reports: list[dict] = []
    if args.word is not None:
        try:
            w = characters.StarWord.from_string(args.word)
        except FusionError as exc:
            raise ConfigError(f"--word: {exc}") from exc
        reports.append({"word": str(w), "value": str(characters.moment(sys_, u, w))})
    else:
        if args.k is None:
            raise ConfigError("moments needs --word or --k")
        if args.k < 1:
            raise ConfigError("--k must be >= 1")
        lengths = range(2, 2 * args.k + 1, 2) if args.even else range(1, args.k + 1)
        seq = characters.moment_sequence(sys_, u, max(lengths))
        for l in lengths:
            word = characters.StarWord.plain(l)
            reports.append({"word": str(word), "value": str(seq[l - 1])})
    if args.jsonl:
        for rep in reports:
            print(json.dumps(rep, sort_keys=True))
    return reports, True


def _cmd_distance(args, cfg: FamilyConfig):
    sys_ = cfg.system
    v = parse_element(sys_, args.v)
    a = sys_.parse_label(args.a)
    b = sys_.parse_label(args.b)
    d = geometry.distance(sys_, v, a, b, budget=args.budget)
    return {"distance": d}, True


def _cmd_ball(args, cfg: FamilyConfig):
    sys_ = cfg.system
    v = parse_element(sys_, args.v)
    center = sys_.parse_label(args.center)
    labels = geometry.ball(sys_, v, center, args.r)
    out = sorted(sys_.format_label(lab) for lab in labels)
    return {"size": len(out), "labels": out}, True


def _cmd_growth(args, cfg: FamilyConfig):
    sys_ = cfg.system
    v = parse_element(sys_, args.v)
    center = sys_.parse_label(args.center)
    rows = geometry.growth_table(sys_, v, center, args.rmax)
    if args.csv:
        _write_output(args.csv, "radius,ball_size\n" + "".join(f"{r},{s}\n" for r, s in rows),
                      "--csv")
    return [{"radius": r, "ball_size": s} for r, s in rows], True


def _cmd_amenable(args, cfg: FamilyConfig):
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ConfigError("--tol must be finite and >= 0")
    sys_ = cfg.system
    u = parse_element(sys_, args.u) if args.u else None
    report = amenability.amenability_verdict(sys_, u, K=args.depth, tol=args.tol,
                                             method=args.method)
    return report.to_json(), False


def _cmd_list_invariant(args, cfg: FamilyConfig):
    sys_ = cfg.system
    if cfg.fundamental_list is None:
        raise ConfigError("list-invariant needs a params block with a fundamental_list")
    lists = params.derive_irreducible_lists(sys_, cfg.fundamental_list, args.depth)
    outputs = {sys_.format_label(lab): [str(p) for p in plist.entries()]
               for lab, plist in sorted(lists.items(), key=lambda it: sys_.sort_key(it[0]))}
    return outputs, True


def _parse_params(text: str, flag: str) -> list[params.Param]:
    try:
        return [params.Param.parse(t) for t in text.split(",")]
    except FusionError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _cmd_modular_spectrum(args, cfg: FamilyConfig):
    if args.list:
        plist = params.ParamList(_parse_params(args.list, "--list"))
    else:
        if cfg.fundamental_list is None:
            raise ConfigError("modular-spectrum needs --list or a config fundamental_list")
        plist = cfg.fundamental_list
    lattice = params.modular_spectrum(plist)
    outputs = lattice.describe()
    if args.member:
        members = _parse_params(args.member, "--member")
        outputs["membership"] = {
            text: lattice.contains(p)
            for text, p in zip(args.member.split(","), members)
        }
    return outputs, True


def _cmd_graph(args, cfg: FamilyConfig):
    sys_ = cfg.system
    u = parse_element(sys_, args.u)
    diagram = towers.tower(sys_, u, args.depth)
    graph = towers.principal_graph(diagram)
    if cfg.fundamental_list is not None:
        lists = params.derive_irreducible_lists(sys_, cfg.fundamental_list, args.depth + 1)
        towers.attach_qdim_weights(graph, lists, cfg.values or None)
    if args.dot:
        _write_output(args.dot, towers.export_dot(graph), "--dot")
    outputs = {
        "vertices": [{"label": sys_.format_label(lab), "level": lev}
                     for lab, lev in graph.vertices],
        "edges": [{"a": sys_.format_label(a), "b": sys_.format_label(b), "mult": str(m)}
                  for a, b, m in graph.edges],
        "end_dims": [str(d) for d in diagram.end_dims()],
        "dot_file": args.dot,
    }
    return outputs, True


def _label_list(data, what: str) -> list[str]:
    if not isinstance(data, list) or not all(isinstance(t, str) for t in data):
        raise ConfigError(f"witness {what} must be a list of label strings, got {data!r}")
    return data


def _parse_irrset(sys_, spec, what: str) -> object:
    if isinstance(spec, list):
        return powers._finite_set(sys_, [sys_.parse_label(t) for t in _label_list(spec, what)])
    if not isinstance(spec, dict):
        raise ConfigError(f"bad set descriptor: {spec!r}")
    kind = spec.get("type")
    if kind == "finite":
        return _parse_irrset(sys_, spec.get("labels", []), f"{what} labels")
    if kind == "cylinder":
        if not isinstance(sys_, GroupDualSystem):
            raise ConfigError("cylinder sets need a group-dual family")
        unknown = set(spec) - {"type", "prefixes", "except", "include"}
        if unknown:
            raise ConfigError(f"unknown set descriptor keys: {sorted(unknown)}")
        words = {key: [sys_.parse_label(t).payload
                       for t in _label_list(spec.get(key, []), f"{what} {key}")]
                 for key in ("prefixes", "include", "except")}
        return powers.WordSet.make(sys_, cylinders=words["prefixes"],
                                   includes=words["include"], excludes=words["except"])
    raise ConfigError(f"unknown set type {kind!r}")


def _load_witness(sys_, path: str) -> powers.PowersWitness:
    """Read a witness file; every malformed shape is a ConfigError."""
    wdata = _read_json(path, "witness")
    needed = {"F", "D", "E", "r"}
    if not isinstance(wdata, dict) or not needed.issubset(wdata):
        raise ConfigError(f"witness file must define keys {sorted(needed)}")
    r = [sys_.parse_label(t) for t in _label_list(wdata["r"], "r")]
    if len(r) != 3:
        raise ConfigError("witness needs exactly three r labels")
    radius = wdata.get("truncation_radius")
    if radius is not None and (not isinstance(radius, int) or isinstance(radius, bool)
                               or radius < 0):
        raise ConfigError(f"truncation_radius must be an integer >= 0, got {radius!r}")
    return powers.PowersWitness(
        F=[sys_.parse_label(t) for t in _label_list(wdata["F"], "F")],
        D=_parse_irrset(sys_, wdata["D"], "D"),
        E=_parse_irrset(sys_, wdata["E"], "E"),
        r1=r[0], r2=r[1], r3=r[2],
        truncation_radius=radius)


def _cmd_powers_check(args, cfg: FamilyConfig):
    witness = _load_witness(cfg.system, args.witness)
    verdict = powers.check_witness(cfg.system, witness)
    outputs = {"holds": verdict.holds, "exact": verdict.exact, "detail": verdict.detail}
    return outputs, verdict.exact


def _cmd_powers_search(args, cfg: FamilyConfig):
    sys_ = cfg.system
    F = [sys_.parse_label(t.strip()) for t in args.f.split(",") if t.strip()]
    witness = powers.search_witness(sys_, F, budget=args.budget)
    if witness is None:
        return {"found": False, "note": "bounded search exhausted; proves nothing"}, True
    def describe(S):
        return {
            "type": "cylinder",
            "prefixes": sorted(sys_.format_label(sys_.word(p)) for p in S.cylinders),
            "include": sorted(sys_.format_label(sys_.word(w)) for w in S.includes),
            "except": sorted(sys_.format_label(sys_.word(w)) for w in S.excludes),
        }
    outputs = {
        "found": True,
        "F": [sys_.format_label(lab) for lab in witness.F],
        "D": describe(witness.D),
        "E": describe(witness.E),
        "r": [sys_.format_label(lab) for lab in witness.r_labels()],
    }
    return outputs, True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a UsageError (one envelope) instead of exiting."""

    command: str | None = None  # set on each subcommand's parser
    subcommands: dict[str, "_Parser"]  # set on the top-level parser

    def error(self, message: str):
        self.print_usage(_sys.stderr)
        raise UsageError(f"{self.prog}: {message}", self.command)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fusionkit",
        description="Exact fusion-semiring computations for compact quantum groups")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def family_cmd(name, fn, echo, **kw):
        """A subcommand whose envelope echoes ``--family`` and the ``echo`` arguments."""
        p = sub.add_parser(name, **kw)
        p.command = name
        p.add_argument("--family", required=True, help="family config JSON path")
        p.add_argument("--cache-dir", default=None,
                       help="pair-product cache directory")
        p.set_defaults(fn=fn, echo=("family", *echo), least={})
        return p

    def int_flag(p, flag, least, **kw):
        """An integer flag whose values below ``least`` are configuration errors."""
        p.add_argument(flag, type=int, **kw)
        p.get_default("least")[flag[2:]] = least

    p = family_cmd("decompose", _cmd_decompose, ("x", "y"),
                   help="tensor product decomposition")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = family_cmd("moments", _cmd_moments, ("u", "word", "k", "even"),
                   help="character star-moments")
    p.add_argument("--u", required=True)
    p.add_argument("--word", default=None, help='star word, e.g. "XX*XX*"')
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--even", action="store_true", help="even word lengths 2..2k")
    p.add_argument("--jsonl", action="store_true", help="also print one JSON line per moment")

    p = family_cmd("distance", _cmd_distance, ("v", "a", "b", "budget"),
                   help="generator metric between irreducibles")
    p.add_argument("--v", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    int_flag(p, "--budget", 0, default=64)

    p = family_cmd("ball", _cmd_ball, ("v", "center", "r"), help="metric ball contents")
    p.add_argument("--v", required=True)
    p.add_argument("--center", required=True)
    int_flag(p, "--r", 0, required=True)

    p = family_cmd("growth", _cmd_growth, ("v", "center", "rmax", "csv"),
                   help="ball growth table (CSV)")
    p.add_argument("--v", required=True)
    p.add_argument("--center", required=True)
    int_flag(p, "--rmax", 0, required=True)
    p.add_argument("--csv", default=None)

    p = family_cmd("amenable", _cmd_amenable, ("u", "depth", "tol", "method"),
                   help="Kesten-type amenability estimate")
    p.add_argument("--u", default=None, help="generator element (default: fundamental)")
    int_flag(p, "--depth", 3, default=30)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--method", default="extrapolated-ratio",
                   choices=amenability._METHODS)

    p = family_cmd("list-invariant", _cmd_list_invariant, ("depth",),
                   help="derive parameter lists of irreducibles")
    int_flag(p, "--depth", 0, default=6)

    p = family_cmd("modular-spectrum", _cmd_modular_spectrum, ("list", "member"),
                   help="exponent lattice generated by the squared list products")
    p.add_argument("--list", default=None, help='comma-separated parameters, e.g. "2^1/2,2^-1/2"')
    p.add_argument("--member", default=None, help="comma-separated membership queries")

    p = family_cmd("graph", _cmd_graph, ("u", "depth"),
                   help="tower and principal graph (DOT export)")
    p.add_argument("--u", required=True)
    int_flag(p, "--depth", 1, default=10)
    p.add_argument("--dot", default=None)

    p = family_cmd("powers-check", _cmd_powers_check, ("witness",),
                   help="check a paradoxicality witness")
    p.add_argument("--witness", required=True, help="witness JSON path")

    p = family_cmd("powers-search", _cmd_powers_search, ("f", "budget"),
                   help="bounded search for a paradoxicality witness")
    p.add_argument("--f", required=True, help="comma-separated F labels")
    int_flag(p, "--budget", 0, default=2)

    return parser


def run(argv: list[str] | None = None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args, extra = parser.parse_known_args(argv)
        if extra:
            parser.subcommands[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
    except UsageError as exc:
        return emit(make_envelope(exc.command, {"argv": argv},
                                  {"error": str(exc), "kind": "config"}), 2)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Exception as exc:  # a defect in the parser still ends in one envelope
        return emit(make_envelope(None, {"argv": argv}, _internal_error(exc)), 1)
    started = time.perf_counter()
    # JSON has no NaN or infinity: echo such flag values as text
    inputs = {name: str(v) if isinstance(v, float) and not math.isfinite(v) else v
              for name, v in vars(args).items() if name in args.echo}
    cache = None
    elapsed_ms = None
    try:
        cfg = load_family_config(args.family)
        memo = cfg.system._pair_cache
        if args.cache_dir:
            cache = DiskCache(args.cache_dir)
            memo.update(cache.lookup(cfg.system) or {})
        loaded = len(memo)
        for name, least in args.least.items():
            if getattr(args, name) < least:
                raise ConfigError(f"--{name} must be >= {least}")
        outputs, exact = args.fn(args, cfg)
        if cache is not None and len(memo) > loaded:
            cache.store(cfg.system, memo)
        code = 0
        elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
    except ConfigError as exc:
        outputs, exact, code = {"error": str(exc), "kind": "config"}, True, 2
    except FusionError as exc:
        outputs, exact, code = {"error": str(exc), "kind": "computation"}, True, 1
    except Exception as exc:  # last resort: a defect still ends in one envelope
        outputs, exact, code = _internal_error(exc), True, 1
    return emit(make_envelope(args.command, inputs, outputs, exact, elapsed_ms,
                              cache.degraded if cache else ()), code)


def main() -> None:
    _sys.exit(run())


if __name__ == "__main__":
    main()
