"""Which engine calls are traced, and the per-layer metrics made from them.

Every probe names a layer (a module of ``src/quiverext``) and a key. A
probe's spans count toward ``<layer>.calls`` and ``<layer>.self_s``; probes
with the same key also give ``<layer>.<key>_calls`` and
``<layer>.<key>_s`` (self time). Some probes keep size counters as well.
"""

import importlib
import os

LAYERS = ("linalg", "algebra", "quiver", "modules", "resolutions",
          "invariants", "barcomplex", "extensions", "docparse", "report",
          "cli")


def _elim(width, rank):
    def after(tr, args, result):
        tr.add("linalg.elim_calls", 1)
        tr.add("linalg.elim_width_sum", width(args))
        tr.add("linalg.elim_rank_sum", rank(args, result))
    return after


def _insert(tr, args, result):
    tr.add("linalg.span_insert_useful", 1 if result else 0)


def _validate(tr, args):
    tr.maximum("algebra.validate_dim_max", args[0].dim)


# An enveloping algebra is built by `enveloping_algebra(a)`, cached under
# "enveloping", or by `Bimodule.env_algebra()`, which is
# `tensor_algebra(L, opposite(R))` cached under ("tensor", id(R^op)) in L.
# A hit is a call that finds its result already cached.
def _enveloping_before(tr, args):
    tr.add("algebra.enveloping_calls", 1)
    tr.add("algebra.enveloping_hits", 1 if "enveloping" in args[0]._cache else 0)


def _env_algebra_before(tr, args):
    bim = args[0]
    opp = bim.right_alg._cache.get("opposite")
    hit = opp is not None and ("tensor", id(opp)) in bim.left_alg._cache
    tr.add("algebra.enveloping_calls", 1)
    tr.add("algebra.enveloping_hits", 1 if hit else 0)


def _enveloping_after(tr, args, result):
    tr.maximum("algebra.enveloping_dim_max", result.dim)


def _tensor_over(tr, args):
    tr.add("modules.tensor_over_ambient_sum", args[0].dim * args[1].dim)


def _minres(tr, args, result):
    tr.add("resolutions.minres_term_dim_sum", sum(result.term_dims()))


# (layer, key, module, attribute, class or None, before, after).
# `linalg.elim_calls` counts eliminations actually run: `rank`,
# `kernel_basis` and `solve_linear` run theirs through `rref`, so only
# `rref`, `quotient_space` and `sparse_rank` count calls, widths and ranks,
# while all six entry points add to `linalg.elim_s`.
PROBES = (
    ("linalg", "elim", "linalg", "rref", None, None,
     _elim(lambda a: a[0].ncols, lambda a, r: r.rank)),
    ("linalg", "elim", "linalg", "quotient_space", None, None,
     _elim(lambda a: a[0], lambda a, r: a[0] - r[0].nrows)),
    ("linalg", "elim", "linalg", "sparse_rank", None, None,
     _elim(lambda a: a[1], lambda a, r: r)),
    ("linalg", "elim", "linalg", "rank", None, None, None),
    ("linalg", "elim", "linalg", "kernel_basis", None, None, None),
    ("linalg", "elim", "linalg", "solve_linear", None, None, None),
    ("linalg", "span_insert", "linalg", "insert", "EchelonSpan", None, _insert),
    ("algebra", "validate", "algebra", "validate", "Algebra", _validate, None),
    ("algebra", "tensor", "algebra", "tensor_algebra", None, None, None),
    ("algebra", "enveloping", "algebra", "enveloping_algebra", None,
     _enveloping_before, _enveloping_after),
    ("algebra", "opposite", "algebra", "opposite", None, None, None),
    ("algebra", "product", "algebra", "product_algebra", None, None, None),
    ("quiver", "build", "quiver", "algebra_from_presentation", None, None, None),
    ("modules", "tensor_over", "modules", "tensor_over", None, _tensor_over, None),
    ("modules", "env_algebra", "modules", "env_algebra", "Bimodule",
     _env_algebra_before, _enveloping_after),
    ("modules", "env_module", "modules", "as_env_module", "Bimodule", None, None),
    ("modules", "env_module", "modules", "as_opposite_env_module", "Bimodule",
     None, None),
    ("modules", "hom_space", "modules", "hom_space", None, None, None),
    ("modules", "iso", "modules", "is_isomorphic", None, None, None),
    ("modules", "projective", "modules", "projective_bimodule", None, None, None),
    ("modules", "sum", "modules", "direct_sum", None, None, None),
    ("modules", "sum", "modules", "bimodule_direct_sum", None, None, None),
    ("modules", "simple", "modules", "simple_modules", None, None, None),
    ("modules", "module_validate", "modules", "validate", "Module", None, None),
    ("modules", "bimodule_validate", "modules", "validate", "Bimodule", None, None),
    ("resolutions", "minres", "resolutions", "minimal_resolution", None, None,
     _minres),
    ("resolutions", "tor", "resolutions", "tor", None, None, None),
    ("resolutions", "ext", "resolutions", "ext", None, None, None),
    ("resolutions", "pd", "resolutions", "projective_dimension", None, None, None),
    ("resolutions", "complex_validate", "resolutions", "validate",
     "ChainComplex", None, None),
    ("resolutions", "complex_homology", "resolutions", "homology",
     "ChainComplex", None, None),
    ("invariants", "hh", "invariants", "hochschild_homology", None, None, None),
    ("invariants", "gldim", "invariants", "global_dimension", None, None, None),
    ("barcomplex", "homology", "barcomplex", "relative_bar_homology", None,
     None, None),
    ("barcomplex", "homology", "barcomplex", "full_bar_homology", None,
     None, None),
    ("extensions", "check", "extensions", "check_extension", None, None, None),
    ("extensions", "quotient", "extensions", "quotient_maps", None, None, None),
    ("extensions", "quotient", "extensions", "quotient_bimodule", None, None, None),
    ("extensions", "pd", "extensions", "check_bimodule_pd", None, None, None),
    ("extensions", "nilpotency", "extensions", "check_nilpotency", None, None, None),
    ("extensions", "tor_range", "extensions", "check_tor_vanishing", None,
     None, None),
    ("extensions", "split", "extensions", "check_split", None, None, None),
    ("extensions", "bar_complex", "extensions", "relative_bar_complex", None,
     None, None),
    ("extensions", "consequences", "extensions", "crosscheck_consequences",
     None, None, None),
    ("docparse", "parse", "docparse", "parse_document", None, None, None),
    ("docparse", "build", "docparse", "build_document", None, None, None),
    ("report", "render", "report", "render", "Report", None, None),
    ("cli", "main", "cli", "main", None, None, None),
)


def install(tracer, package="quiverext"):
    """Wrap every probe; the caller undoes it with tracer.uninstall().

    Returns the probe targets the engine no longer has: their counters
    stay 0 rather than stopping the run."""
    missing = []
    for layer, key, modname, attr, clsname, before, after in PROBES:
        module = importlib.import_module(f"{package}.{modname}")
        name = f"{layer}.{key}"
        owner = module if clsname is None else getattr(module, clsname, None)
        if owner is None or attr not in vars(owner):
            missing.append(".".join(filter(None, (modname, clsname, attr))))
        elif clsname is None:
            tracer.patch_function(module, attr, name, before, after)
        else:
            tracer.patch_method(owner, attr, name, before, after)
    return missing


def layer_metrics(tracer, item_wall_ns):
    """Per-layer metrics from the recorded spans and counters.

    `item_wall_ns` is the summed wall time of the traced items, measured by
    the benchmark around each item. Coverage is the share of it inside a
    span of any layer other than `cli`, the demo's entry point, so the
    demo's gate asks that nine tenths of its time land in engine layers
    below the command line. Set-up spans (item -1) count toward every
    metric but coverage.
    """
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    keys = {f"{layer}.{key}" for layer, key, *_ in PROBES}
    for name in keys:
        out[f"{name}_calls"] = 0
        out[f"{name}_s"] = 0.0
    names = tracer.names
    is_cli = [n.startswith("cli.") for n in names]
    calls = [0] * len(names)
    own_ns = [0] * len(names)
    covered = 0
    name_of, start, end, parent_of, item_of = tracer.columns()
    for i, self_ns in enumerate(tracer.self_times()):
        nid = name_of[i]
        calls[nid] += 1
        own_ns[nid] += self_ns
        parent = parent_of[i]
        if item_of[i] >= 0 and not is_cli[nid] and (
                parent < 0 or is_cli[name_of[parent]]):
            covered += end[i] - start[i]
    for name, n, ns in zip(names, calls, own_ns):
        layer = name.split(".", 1)[0]
        out[f"{layer}.calls"] += n
        out[f"{layer}.self_s"] += ns / 1e9
        out[f"{name}_calls"] += n
        out[f"{name}_s"] += ns / 1e9
    c = tracer.counters
    out["linalg.elim_calls"] = c.get("linalg.elim_calls", 0)
    out["linalg.elim_width_sum"] = c.get("linalg.elim_width_sum", 0)
    out["linalg.elim_rank_sum"] = c.get("linalg.elim_rank_sum", 0)
    inserts = out["linalg.span_insert_calls"]
    out["linalg.span_insert_useful_frac"] = (
        c.get("linalg.span_insert_useful", 0) / inserts if inserts else 0.0)
    out["algebra.validate_dim_max"] = c.get("algebra.validate_dim_max", 0)
    env = out["algebra.enveloping_calls"] = c.get("algebra.enveloping_calls", 0)
    out["algebra.enveloping_hit_frac"] = (
        c.get("algebra.enveloping_hits", 0) / env if env else 0.0)
    out["algebra.enveloping_dim_max"] = c.get("algebra.enveloping_dim_max", 0)
    out["modules.tensor_over_ambient_sum"] = c.get(
        "modules.tensor_over_ambient_sum", 0)
    out["resolutions.minres_term_dim_sum"] = c.get(
        "resolutions.minres_term_dim_sum", 0)
    out["trace.coverage_frac"] = covered / item_wall_ns if item_wall_ns else 0.0
    return out


def source_lines(src_dir):
    """Non-blank source lines per layer module and in total."""
    out = {}
    total = 0
    pkg = os.path.join(src_dir, "quiverext")
    for dirpath, _, files in os.walk(pkg):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(dirpath, fname), encoding="utf-8") as fh:
                n = sum(1 for line in fh if line.strip())
            total += n
            layer = fname[:-3]
            if dirpath == pkg and layer in LAYERS:
                out[f"src.lines.{layer}"] = n
    out["src.lines.total"] = total
    return out
