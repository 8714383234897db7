"""Command-line interface.

Exit codes: 0 success; 1 a promised property failed to hold (a
verification check failed, or a package invariant was violated); 2 usage,
parse or input validation errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io_text
from .core import (
    InvariantViolation,
    RibbonGraph,
    RibbonGraphError,
    canonical_form,
    is_equivalent,
)
from .decomposition import (
    BiseparationClass,
    _certified_subsets,
    prime_factorization,
)
from .duality import (
    genus_polynomial,
    geometric_dual,
    partial_dual,
    partial_dual_subsets,
    spectrum,
    spectrum_rows,
)
from .moves import move_related
from .topology import surface_stats
from .verify import ALL_CHECKS, check_suite, generate


def _load(path: str) -> RibbonGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return io_text.parse(fh.read()).graph()
    except OSError as ex:
        raise RibbonGraphError(f"cannot read {path}: {ex}") from ex


def _edges_arg(text: str) -> set[str]:
    return {t for t in text.split(",") if t}


def cmd_info(args) -> int:
    g = _load(args.file)
    st = surface_stats(g)
    if args.json:
        print(io_text.emit({"command": "info", **io_text.stats_json(st)}), end="")
    else:
        print(io_text.stats_text(st))
    return 0


def cmd_canon(args) -> int:
    g = _load(args.file)
    print(canonical_form(g))
    return 0


def cmd_dual(args) -> int:
    g = _load(args.file)
    if args.edges is None:
        result = geometric_dual(g)
    else:
        result = partial_dual(g, _edges_arg(args.edges))
    doc = io_text.document_of(result)
    if args.json:
        print(io_text.emit(io_text.document_json(doc)), end="")
    else:
        print(io_text.serialize(doc), end="")
    return 0


def cmd_spectrum(args) -> int:
    g = _load(args.file)
    if args.polynomial:
        if args.genus is not None or args.classes:
            raise ValueError("--polynomial takes neither --genus nor --classes")
        poly = genus_polynomial(g)
        if args.json:
            print(io_text.emit({"command": "spectrum", "polynomial": poly}), end="")
        else:
            print(io_text.polynomial_text(poly))
        return 0
    if args.json:
        io_text.write_spectrum_json(
            spectrum_rows(g, genus=args.genus, classes=args.classes, force=args.force)
        )
    else:
        print(io_text.spectrum_text(
            spectrum(g, genus=args.genus, classes=args.classes, force=args.force)
        ))
    return 0


def cmd_biseparations(args) -> int:
    g = _load(args.file)
    found = _certified_subsets(g, args.klass)
    if args.json:
        io_text.write_certificates_json(cert for _, cert in found)
    else:
        listed = False
        for sub, cert in found:
            print(f"{io_text.subset_text(sub)}: {BiseparationClass.of(cert)}")
            listed = True
        if not listed:
            print("none")
    return 0


def cmd_factor(args) -> int:
    g = _load(args.file)
    tree = prime_factorization(g)
    if args.json:
        print(io_text.emit({"command": "factor", **io_text.join_tree_json(tree)}), end="")
    else:
        print(io_text.join_tree_text(tree))
    return 0


def cmd_relate(args) -> int:
    g = _load(args.file1)
    h = _load(args.file2)
    equivalent = is_equivalent(g, h)
    subsets = partial_dual_subsets(g, h)
    gamma_g = surface_stats(g).euler_genus
    gamma_h = surface_stats(h).euler_genus
    trace = None
    search = None
    if gamma_g == gamma_h and gamma_g in (0, 1):
        search = move_related(g, h, bound=args.max_depth)
        trace = search.trace
    if args.json:
        data = {
            "command": "relate",
            "equivalent": equivalent,
            "partial_dual_subsets": [sorted(s) for s in subsets],
        }
        if search is not None:
            data["moves"] = io_text.move_trace_json(trace) if trace is not None else None
            data["search_closed"] = search.closed
        print(io_text.emit(data), end="")
    else:
        print(f"equivalent: {'yes' if equivalent else 'no'}")
        if subsets:
            print(
                "partial-dual subsets: "
                + ", ".join(io_text.subset_text(s) for s in subsets)
            )
        else:
            print("partial-dual subsets: none found")
        if search is not None:
            if trace is not None:
                print("move sequence:")
                print(io_text.move_trace_text(trace))
            else:
                kind = "search closed" if search.closed else "depth bound hit"
                print(f"move sequence: none ({kind})")
    return 0


def cmd_verify(args) -> int:
    which = None
    if args.suite:
        which = [s for s in args.suite.split(",") if s]
    corpus = generate(args.max_edges, mode=args.mode, seed=args.seed, count=args.count)
    report = check_suite(corpus, which=which, seed=args.seed or 0)
    if args.json:
        print(io_text.emit({"command": "verify", **report.to_json(stable=args.stable)}), end="")
    else:
        print(report.to_text(stable=args.stable))
    return 0 if report.ok else 1


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    each ``parse_args`` fills a fresh namespace, so no call sees another's
    arguments."""
    top = argparse.ArgumentParser(
        prog="ribbongraph",
        description="Ribbon graphs: genus, partial duality, separability, moves.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="surface statistics of a graph file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("canon", help="canonical code of a graph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("dual", help="geometric or partial dual")
    p.add_argument("file")
    p.add_argument("--edges", help="comma-separated labels (omit for the geometric dual)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("spectrum", help="genus of every partial dual")
    p.add_argument("file")
    p.add_argument("--genus", type=int, help="only subsets reaching this Euler genus")
    p.add_argument("--classes", action="store_true", help="annotate certificates")
    p.add_argument("--force", action="store_true", help="ignore the edge-count guard")
    p.add_argument(
        "--polynomial",
        action="store_true",
        help="count subsets by Euler genus (refused only above 16 edges in a prime factor)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("biseparations", help="subsets carrying certificates")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", choices=["plane", "rp2", "all"], default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_biseparations)

    p = sub.add_parser("factor", help="prime join factorization")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("relate", help="how two graphs are related")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--max-edges", type=int, default=4)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="random mode sample size")
    p.add_argument("--suite", help=f"comma-separated check names ({', '.join(ALL_CHECKS)})")
    p.add_argument("--stable", action="store_true", help="omit timing fields")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvariantViolation as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except (RibbonGraphError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
