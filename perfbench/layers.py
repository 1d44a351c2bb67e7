"""Which fusionkit entry points the traced run wraps, and the per-layer metrics.

Everything is wrapped from outside, by replacing module attributes and
class methods of an imported fusionkit; nothing under ``src/`` changes.
Module functions are replaced wherever fusionkit holds a reference to them
(the package namespace re-exports most), so calls inside the library see
the wrappers too.

Time metrics are seconds per pass (one pass runs every job of the workload
once); counts are per pass too.  Names ending in ``_self_s`` are self
times (the layer's spans minus their child spans); the other ``_s``
metrics are the wall time covered by that stage's spans, children
included.  ``core.tensor_pair`` is counted but gets no span: it runs once
per term product and is mostly a dictionary hit, so its time stays inside
the caller's self time.
"""

from __future__ import annotations

import sys

from spans import Tracer, group_time, self_times

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("core.tensor_calls", "count"),
    ("core.tensor_self_s", "s"),
    ("core.term_products", "count"),
    ("core.support_peak", "count"),
    ("core.pair_calls", "count"),
    ("core.pair_mem_hit_ratio", "ratio"),
    ("families.rule_calls", "count"),
    ("families.rule_s", "s"),
    ("amenability.counts_s", "s"),
    ("amenability.cross_s", "s"),
    ("amenability.cumulant_s", "s"),
    ("amenability.path_cumulant", "count"),
    ("amenability.path_direct", "count"),
    ("amenability.estimate_abs_err.a_o", "norm"),
    ("amenability.estimate_abs_err.aut", "norm"),
    ("amenability.estimate_abs_err.a_u", "norm"),
    ("amenability.estimate_abs_err.f2", "norm"),
    ("amenability.estimate_abs_err.zd2", "norm"),
    ("characters.moment_s", "s"),
    ("towers.tower_s", "s"),
    ("towers.matrix_entries", "count"),
    ("params.derive_s", "s"),
    ("geometry.bfs_nodes", "count"),
    ("geometry.bfs_self_s", "s"),
    ("geometry.nodes_per_s", "1/s"),
    ("powers.translate_calls", "count"),
    ("powers.translate_s", "s"),
    ("powers.translate_out_terms", "count"),
    ("powers.make_calls", "count"),
    ("powers.make_s", "s"),
    ("powers.search_s", "s"),
    ("powers.check_s", "s"),
    ("powers.witness_found_per_check", "ratio"),
    ("cli.startup_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.envelope_bytes", "bytes"),
    ("cli.cache_lookups", "count"),
    ("cli.cache_disk_hit_ratio", "ratio"),
    ("cli.cache_lookup_s", "s"),
    ("cli.cache_store_s", "s"),
    ("cli.cache_files", "count"),
    ("cli.cache_bytes", "bytes"),
    ("wall_s.nocache", "s"),
    ("wall_s.cold", "s"),
    ("wall_s.warm", "s"),
    ("trace.overhead_frac", "ratio"),
]

GEOMETRY = ("distance", "ball", "sphere", "growth_table", "quasi_isometry_check",
            "containment_index")


def _modules():
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name.startswith("fusionkit.") and mod is not None}


def _replace_function(mods, pkg, module, attr, wrapper) -> None:
    original = getattr(module, attr)
    for mod in [pkg, *mods.values()]:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every fusionkit layer that is imported."""
    pkg = sys.modules["fusionkit"]
    mods = _modules()
    counts = tracer.counts

    def function(modname, attr, before=None, after=None):
        module = mods[modname]
        wrapper = tracer.wrap(f"{modname}.{attr}", getattr(module, attr), before, after)
        _replace_function(mods, pkg, module, attr, wrapper)

    def method(cls, attr, name, before=None, after=None, kind=None):
        fn = cls.__dict__[attr]
        if kind is classmethod:
            setattr(cls, attr, classmethod(tracer.wrap(name, fn.__func__, before, after)))
        else:
            setattr(cls, attr, tracer.wrap(name, fn, before, after))

    # core: bilinear tensor (span) and the pair memo (count only)
    core = mods["core"]

    def tensor_done(args, result, _):
        _, x, y = args
        counts["core.term_products"] += len(x) * len(y)
        tracer.peak("core.support_peak", len(result))

    method(core.FusionSystem, "tensor", "core.tensor", after=tensor_done)
    pair = core.FusionSystem.tensor_pair

    def tensor_pair(self, a, b):
        counts["core.pair_calls"] += 1
        return pair(self, a, b)

    core.FusionSystem.tensor_pair = tensor_pair

    # families: the irreducible pair rule of every concrete system
    stack = [core.FusionSystem]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "_tensor_irr" in cls.__dict__ and not getattr(
                cls.__dict__["_tensor_irr"], "__isabstractmethod__", False):
            method(cls, "_tensor_irr", "families.rule")

    # amenability: which counting path each verdict took
    def verdict_before(_):
        return counts["amenability.cumulant_calls"]

    def verdict_done(args, result, before):
        cumulant = counts["amenability.cumulant_calls"] > before
        counts["amenability.path_cumulant" if cumulant else "amenability.path_direct"] += 1

    function("amenability", "amenability_verdict", verdict_before, verdict_done)
    for attr in ("kesten_counts", "chi_chi_star_counts", "char_moments"):
        function("amenability", attr)

    def cumulants_done(args, result, _):
        counts["amenability.cumulant_calls"] += 1

    function("amenability", "moments_to_free_cumulants", after=cumulants_done)
    function("amenability", "free_cumulants_to_moments")

    function("characters", "moment")
    function("characters", "moment_sequence")

    def tower_done(args, diagram, _):
        levels = diagram.levels
        counts["towers.matrix_entries"] += sum(
            len(levels[k]) * len(levels[k + 1]) for k in range(len(levels) - 1))

    function("towers", "tower", after=tower_done)
    function("params", "derive_irreducible_lists")

    # geometry: BFS entry points, and one count per node expansion
    for attr in GEOMETRY:
        function("geometry", attr)
    geometry = mods["geometry"]
    neighbor_fn = geometry._neighbor_fn

    def counted_neighbor_fn(sys_, v):
        neighbors = neighbor_fn(sys_, v)

        def counted(c):
            counts["geometry.bfs_nodes"] += 1
            return neighbors(c)

        return counted

    geometry._neighbor_fn = counted_neighbor_fn

    # powers: translations, set construction, witness check and search
    def translated(args, result, _):
        counts["powers.translate_out_terms"] += (
            len(result.cylinders) + len(result.includes) + len(result.excludes))

    for attr in ("_left_translate", "_right_translate"):
        function("powers", attr, after=translated)
    function("powers", "set_product")
    method(mods["powers"].WordSet, "make", "powers.WordSet.make", kind=classmethod)

    def checked(args, verdict, _):
        counts["powers.witness_found"] += bool(verdict.holds)

    function("powers", "check_witness", after=checked)
    function("powers", "search_witness")

    # cli: serialization and the disk cache, when the CLI is imported
    cli = mods.get("cli")
    if cli is not None:
        function("cli", "emit")

        def looked_up(args, hit, _):
            counts["cli.cache_disk_hits"] += hit is not None

        method(cli.DiskCache, "lookup", "cli.DiskCache.lookup", after=looked_up)
        method(cli.DiskCache, "store", "cli.DiskCache.store")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of ``passes`` traced passes."""
    tr = tracer
    ids = {name: i for i, name in enumerate(tr.names)}
    own = self_times(tr.start, tr.end, tr.parent)
    self_by = [0.0] * len(tr.names)
    calls_by = [0] * len(tr.names)
    for n, o in zip(tr.name, own):
        self_by[n] += o
        calls_by[n] += 1

    def calls(*names):
        return sum(calls_by[ids[n]] for n in names if n in ids)

    def self_s(*names):
        return sum(self_by[ids[n]] for n in names if n in ids)

    def covered(*names):
        return group_time(tr.name, tr.start, tr.end, tr.parent,
                          {ids[n] for n in names if n in ids})

    def ratio(a, b):
        return a / b if b else 0.0

    c = tr.counts
    geometry = [f"geometry.{attr}" for attr in GEOMETRY]
    translate = ("powers._left_translate", "powers._right_translate")
    pair_calls = c["core.pair_calls"]
    rule_calls = calls("families.rule")
    lookups = calls("cli.DiskCache.lookup")
    totals = {
        "core.tensor_calls": calls("core.tensor"),
        "core.tensor_self_s": self_s("core.tensor"),
        "core.term_products": c["core.term_products"],
        "core.pair_calls": pair_calls,
        "families.rule_calls": rule_calls,
        "families.rule_s": covered("families.rule"),
        "amenability.counts_s": covered("amenability.kesten_counts"),
        "amenability.cross_s": covered("amenability.chi_chi_star_counts"),
        "amenability.cumulant_s": covered("amenability.moments_to_free_cumulants",
                                          "amenability.free_cumulants_to_moments"),
        "amenability.path_cumulant": c["amenability.path_cumulant"],
        "amenability.path_direct": c["amenability.path_direct"],
        "characters.moment_s": covered("characters.moment", "characters.moment_sequence"),
        "towers.tower_s": covered("towers.tower"),
        "towers.matrix_entries": c["towers.matrix_entries"],
        "params.derive_s": covered("params.derive_irreducible_lists"),
        "geometry.bfs_nodes": c["geometry.bfs_nodes"],
        "geometry.bfs_self_s": self_s(*geometry),
        "powers.translate_calls": calls(*translate),
        "powers.translate_s": covered(*translate),
        "powers.translate_out_terms": c["powers.translate_out_terms"],
        "powers.make_calls": calls("powers.WordSet.make"),
        "powers.make_s": covered("powers.WordSet.make"),
        "powers.search_s": covered("powers.search_witness"),
        "powers.check_s": covered("powers.check_witness"),
        "cli.emit_s": covered("cli.emit"),
        "cli.cache_lookups": lookups,
        "cli.cache_lookup_s": covered("cli.DiskCache.lookup"),
        "cli.cache_store_s": covered("cli.DiskCache.store"),
    }
    out = {name: value / passes for name, value in totals.items()}
    # every pair product that is not a memory hit is a disk hit or a rule call
    out["core.pair_mem_hit_ratio"] = ratio(
        pair_calls - rule_calls - c["cli.cache_disk_hits"], pair_calls)
    out["core.support_peak"] = tr.peaks.get("core.support_peak", 0)
    out["geometry.nodes_per_s"] = ratio(c["geometry.bfs_nodes"], covered(*geometry))
    out["powers.witness_found_per_check"] = ratio(
        c["powers.witness_found"], calls("powers.check_witness"))
    out["cli.cache_disk_hit_ratio"] = ratio(c["cli.cache_disk_hits"], lookups)
    return out
