"""Command line interface.

Commands:
  check-extension FILE   run the hypothesis checker on each 'check
                         extension' block of the document
  invariants FILE        run the requested invariant computations
  demo example-4-5       run the built-in worked example with its full
                         battery of assertions
  random-suite           generate random instances and run the property
                         battery over them

Exit codes: 0 conclusions hold / success, 1 a hypothesis or assertion
fails, or an internal check fails (an engine bug), 2 undetermined at the
configured bounds, 3 input error.
Reports are deterministic: the same input, seed and bounds produce byte
identical output.
"""

import argparse
import random
import sys
from importlib import resources

from .errors import QuiverExtError, InternalCheckError
from .docparse import build_document, parse_document
from .extensions import CheckConfig, check_extension, quotient_bimodule
from .invariants import (global_dimension, gorenstein_verdict,
                         hochschild_homology, perp_membership)
from .modules import (direct_sum, is_isomorphic, projective_data,
                      simple_modules)
from .algebra import opposite
from .report import Report, verdict_fields

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3


def _load_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(report, args):
    text = report.render(machine=args.machine)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pick(flag, options, key, default):
    """A bound from its command-line flag, else from the document option,
    else the default."""
    if flag is not None:
        return flag
    if key in options:
        return int(options[key])
    return default


def _config_from(args, options=None):
    options = options or {}
    cfg = CheckConfig()
    cfg.cap = _pick(args.cap, options, "cap", cfg.cap)
    cfg.p_max = _pick(args.pmax, options, "pmax", cfg.p_max)
    cfg.hh_range = _pick(args.hh_range, options, "hh", cfg.hh_range)
    cfg.seed = args.seed
    if options.get("consequences") == "off":
        cfg.consequences = False
    return cfg


def _extension_section(report, name, hrep):
    report.section(f"extension.{name}")
    report.add("provenance", hrep.provenance)
    report.add("quotient-dim", hrep.quotient_dim)
    pd = hrep.pd_verdict
    report.add("pd-over-enveloping", pd.kind)
    if pd.kind == "finite":
        report.add("pd-over-enveloping.value", pd.value)
    report.add("pd-over-enveloping.resolution-ranks",
               pd.certificate.get("term_dims"))
    if pd.kind == "infinite":
        report.add("pd-over-enveloping.periodic-pair", pd.witness[:2])
    verdict_fields(report, "nilpotency", hrep.nilpotency)
    verdict_fields(report, "tor-vanishing", hrep.tor_verdict)
    if hrep.tor_tables:
        cells = sorted(hrep.tor_tables["q_then_power"].items())
        report.add("tor-table", [f"i{i}j{j}={v}" for (i, j), v in cells])
    verdict_fields(report, "split", hrep.split_verdict)
    report.add("conclusion.singular-equivalence", hrep.sing_equiv.status)
    report.add("conclusion.defect-equivalence", hrep.defect_equiv.status)
    for key in sorted(hrep.consequences, key=str):
        report.add(f"consequence.{key}", hrep.consequences[key])
    report.add("exit-code", hrep.exit_code())
    return report


def cmd_check_extension(args, text=None):
    text = text if text is not None else _load_text(args.file)
    built = build_document(parse_document(text), field_override=args.field)
    report = Report("check-extension", input_text=text, seed=args.seed,
                    field=built.field if args.field else None)
    codes = []
    ran = False
    for check in built.checks:
        if check.kind != "extension":
            continue
        ran = True
        ext = built.env[check.name]
        cfg = _config_from(args, check.options)
        hrep = check_extension(ext, cfg)
        _extension_section(report, check.name, hrep)
        codes.append(hrep.exit_code())
    if not ran:
        sys.stderr.write("input error: no 'check extension' block\n")
        return EXIT_INPUT
    _emit(report, args)
    if EXIT_FAILS in codes:
        return EXIT_FAILS
    if EXIT_UNDETERMINED in codes:
        return EXIT_UNDETERMINED
    return EXIT_HOLDS


def cmd_invariants(args, text=None):
    text = text if text is not None else _load_text(args.file)
    built = build_document(parse_document(text), field_override=args.field)
    report = Report("invariants", input_text=text, seed=args.seed,
                    field=built.field if args.field else None)
    ran = False
    for check in built.checks:
        if check.kind != "invariants":
            continue
        ran = True
        target = built.env[check.name]
        algebra = getattr(target, "ambient", target)
        cap = _pick(args.cap, check.options, "cap", CheckConfig.cap)
        report.section(f"invariants.{check.name}")
        report.add("dim", algebra.dim)
        if "gldim" in check.options:
            gd = global_dimension(algebra, cap, seed=args.seed)
            verdict_fields(report, "global-dimension-finite", gd)
            # the singularity category vanishes exactly for finite gldim
            report.add("singularity-category-trivial", gd.status)
        if "gorenstein" in check.options:
            gv = gorenstein_verdict(algebra, cap, seed=args.seed)
            verdict_fields(report, "gorenstein", gv)
        if "hh" in check.options:
            i_max = int(check.options["hh"])
            report.add("hochschild", hochschild_homology(algebra, i_max))
        if "perp" in check.options:
            i_max = int(check.options["perp"])
            for s, simple in enumerate(simple_modules(algebra)):
                pv = perp_membership(simple, i_max)
                verdict_fields(report, f"perp.simple{s}", pv)
    if not ran:
        sys.stderr.write("input error: no 'check invariants' block\n")
        return EXIT_INPUT
    _emit(report, args)
    return EXIT_HOLDS


def demo_document():
    return resources.files("quiverext.data").joinpath("example_4_5.txt") \
        .read_text(encoding="utf-8")


def cmd_demo(args):
    if args.name != "example-4-5":
        sys.stderr.write(f"unknown demo {args.name!r}\n")
        return EXIT_INPUT
    text = demo_document()
    built = build_document(parse_document(text), field_override=args.field)
    ext = built.env["GammaInLambda"]
    lam, gam = ext.ambient, ext.sub
    cfg = _config_from(args, built.checks[0].options if built.checks else {})
    report = Report("demo example-4-5", input_text=text, seed=args.seed,
                    field=built.field if args.field else None)
    failures = []

    def expect(name, got, want):
        ok = got == want
        report.add(name, f"{got} (expected {want})" if not ok else got)
        if not ok:
            failures.append(name)
        return ok

    report.section("structure")
    expect("dim-ambient", lam.dim, 9)
    expect("dim-sub", gam.dim, 5)
    q = quotient_bimodule(ext)
    expect("dim-quotient", q.dim, 4)

    hrep = check_extension(ext, cfg)
    _extension_section(report, "GammaInLambda", hrep)
    report.section("assertions")
    if hrep.pd_verdict.kind == "finite":
        expect("pd", hrep.pd_verdict.value, 1)
        expect("resolution-ranks", hrep.pd_verdict.certificate["term_dims"],
               [12, 8])
        expect("nilpotency-index", hrep.nilpotency.value, 2)
        expect("tor-vanishing", hrep.tor_verdict.status, "holds")
        expect("split", hrep.split_verdict.status, "holds")
        # module-structure identifications, with isomorphism witnesses
        s2_right = simple_modules(opposite(gam))[1]
        right_target = direct_sum([s2_right] * 4)
        v1, _ = is_isomorphic(q.as_right_module(), right_target, seed=args.seed)
        expect("right-structure-simple4", v1, "yes")
        p1 = projective_data(gam, 0).module
        v2, _ = is_isomorphic(q.as_left_module(), p1, seed=args.seed)
        expect("left-structure-projective1", v2, "yes")
        if cfg.consequences:
            expect("hh-agree-positive",
                   hrep.consequences.get("hh_agree_positive"), True)
            expect("gldim-ambient", hrep.consequences.get("gldim_ambient"),
                   "infinite")
            expect("gldim-sub", hrep.consequences.get("gldim_sub"), "infinite")
            expect("bar-exact", hrep.consequences.get("bar_exact"), True)
            expect("bar-euler", hrep.consequences.get("bar_euler"), 0)
    report.section("verdict")
    report.add("conclusion.singular-equivalence", hrep.sing_equiv.status)
    report.add("conclusion.defect-equivalence", hrep.defect_equiv.status)
    code = hrep.exit_code()
    if failures:
        code = EXIT_FAILS
    report.add("exit-code", code)
    _emit(report, args)
    return code


def cmd_random_suite(args):
    from .linalg import QQ, field_from_spec
    from .suite import (random_module, random_quiver_algebra,
                        random_right_module)
    from .resolutions import tor
    field = field_from_spec(args.field) if args.field else QQ
    rng = random.Random(args.seed)
    report = Report("random-suite", seed=args.seed)
    report.section("config")
    report.add("count", args.count)
    report.add("max-dim", args.max_dim)
    report.add("field", repr(field))
    failures = 0
    rejections = 0
    report.section("results")
    for t in range(args.count):
        try:
            algebra = random_quiver_algebra(rng, field)
            if algebra.dim > args.max_dim:
                rejections += 1
                continue
            m = random_right_module(rng, algebra)
            n = random_module(rng, algebra)
            d1 = tor(m, n, 4, resolve="first")
            d2 = tor(m, n, 4, resolve="second")
            if d1 != d2:
                failures += 1
                report.add(f"case{t}", f"tor-symmetry-violated {d1} vs {d2}")
        except QuiverExtError:
            rejections += 1
    report.section("summary")
    report.add("failures", failures)
    report.add("constructor-rejections", rejections)
    _emit(report, args)
    return EXIT_HOLDS if failures == 0 else EXIT_FAILS


def build_parser():
    p = argparse.ArgumentParser(
        prog="quiverext",
        description="Exact hypothesis checking for ring extensions of "
                    "finite-dimensional quiver algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--cap", type=int, default=None,
                        help="resolution length bound (default 12)")
        sp.add_argument("--pmax", type=int, default=None,
                        help="tensor power bound (default 8)")
        sp.add_argument("--hh-range", dest="hh_range", type=int, default=None,
                        help="Hochschild degree bound (default 4)")
        sp.add_argument("--field", default=None,
                        help="field override: q or p:PRIME")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--report", default=None, help="write report to file")
        sp.add_argument("--machine", action="store_true",
                        help="machine-readable key-value rendering")

    sp = sub.add_parser("check-extension", help="verify extension hypotheses")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_check_extension)

    sp = sub.add_parser("invariants", help="compute algebra invariants")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("demo", help="run a built-in worked example")
    sp.add_argument("name")
    common(sp)
    sp.set_defaults(func=cmd_demo)

    sp = sub.add_parser("random-suite", help="run randomized property checks")
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--max-dim", dest="max_dim", type=int, default=5)
    common(sp)
    sp.set_defaults(func=cmd_random_suite)
    return p


def main(argv=None):
    """Run one command; an engine error that escapes it is mapped to its
    exit code here: a failed internal check (an engine bug) to 1, any other
    error (bad input) to 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as e:
        sys.stderr.write(f"internal check failed: {e}\n")
        return EXIT_FAILS
    except QuiverExtError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
