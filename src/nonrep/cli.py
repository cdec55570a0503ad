"""Command-line entry point.

Subcommands: `word gen|check-free|check-directed`, `morphism apply`,
`treecert certify`, `graph gen|verify`, `search pik|word`,
`suite run`.  Exit codes: 0 on pass/success, 1 on a failed check (with the
counterexample emitted), 2 on usage or configuration errors.  All rational
parameters are exact `a/b` strings; floats are rejected."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import acceptance
from .words import (
    NAMED_MORPHISMS,
    Morphism,
    apply_morphism,
    check_word,
    generate_powerfree_ternary,
)
from .repetitions import PowerFreeSpec, is_d_directed, is_power_free
from .treecert import BranchCheckSpec, certify_morphic_tree_coloring
from .graphs import (
    Coloring,
    Graph,
    leveled_outerplanar,
    outerplanar_U,
    path_graph,
    plus4_gadget,
    stacked_triangulation,
    verify_coloring,
)
from .search import SearchBudget, extend_word_search, pi_k_exact


def _rational(s: str) -> Fraction:
    if "." in s or "e" in s.lower():
        raise argparse.ArgumentTypeError(f"{s!r}: rationals must be exact a/b strings")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{s!r}: {exc}")


def _morphism(name: str) -> Morphism:
    if name in NAMED_MORPHISMS:
        return NAMED_MORPHISMS[name]
    if os.path.exists(name):
        with open(name) as fh:
            return Morphism.from_text(fh.read())
    raise ValueError(f"unknown morphism {name!r} (not a named morphism or a file)")


def _default_budget() -> SearchBudget:
    """The search budget, with each field an environment variable sets; an
    invalid value is refused naming its variable."""
    fields = {}
    for name, field, parse in (
        ("NONREP_NODE_LIMIT", "node_limit", int),
        ("NONREP_TIME_LIMIT", "time_limit", float),
    ):
        text = os.environ.get(name)
        if text is None:
            continue
        try:
            fields[field] = parse(text)
            SearchBudget(**{field: fields[field]})  # checks this field alone
        except ValueError as exc:
            raise ValueError(f"{name}={text!r}: {exc}") from None
    return SearchBudget(**fields)


def cmd_word(args) -> int:
    if args.action == "gen":
        print(generate_powerfree_ternary(args.length))
        return 0
    check_word(args.word, 10)
    if args.action == "check-free":
        spec = PowerFreeSpec(args.beta, min_period=args.n, strict=args.strict)
        rep = is_power_free(args.word, spec)
        if rep is None:
            print("free")
            return 0
        print(f"violation: {rep.describe()}")
        return 1
    bad = is_d_directed(args.word, args.d)
    if bad is None:
        print("directed")
        return 0
    print(f"violation: factor {bad[0]!r} and reversal {bad[1]!r} both occur")
    return 1


def cmd_morphism(args) -> int:
    print(apply_morphism(_morphism(args.morphism), args.word))
    return 0


def cmd_treecert(args) -> int:
    m = _morphism(args.morphism)
    spec = BranchCheckSpec(
        args.k,
        PowerFreeSpec(args.beta, min_period=args.n, strict=True),
        args.d,
    )
    cert = certify_morphic_tree_coloring(
        m, spec, factor_len=args.factor_len, morphism_name=args.morphism
    )
    print(cert.to_json())
    return 0 if cert.passed else 1


_FAMILIES = {
    "path": lambda a: path_graph(a.n),
    "stacked": lambda a: stacked_triangulation(a.i),
    "outeru": lambda a: outerplanar_U(a.i),
    "plus4": lambda a: plus4_gadget(path_graph(a.n), a.m),
    "leveled": lambda a: leveled_outerplanar(a.i, a.n),
}


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # json recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return Graph.from_json_dict(doc)


def cmd_graph(args) -> int:
    if args.action == "gen":
        g = _FAMILIES[args.family](args)
        text = json.dumps(g.to_json_dict(), sort_keys=True, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
    g = _read_graph(args.graph)
    colors = tuple(int(c) for c in args.colors.split(","))
    coloring = Coloring(colors, max(colors) + 1)
    max_path = g.n if args.max_path is None else args.max_path
    hit = verify_coloring(g, coloring, args.k, max_path)
    if hit is None:
        print("no violating path")
        return 0
    path, rep = hit
    print(f"violation on path {list(path)}: {rep.describe()}")
    return 1


def cmd_search(args) -> int:
    budget = _default_budget()
    if args.action == "pik":
        g = _read_graph(args.graph) if args.graph else path_graph(args.n)
        res = pi_k_exact(g, args.k, budget)
        witness = list(res.witness.colors) if res.witness else None
        print(json.dumps({**asdict(res), "value": res.value, "witness": witness}, sort_keys=True))
        return 0 if res.value is not None else 1
    res = extend_word_search(args.alphabet, args.k, args.target, budget)
    status = "reached" if res.reached_target else (
        "exhausted" if res.exhausted else "max"
    )
    print(f"{status} length {len(res.word)}: {res.word}")
    return 0 if res.reached_target else 1


def cmd_suite(args) -> int:
    numbers = None if args.only is None else [int(x) for x in args.only.split(",")]
    results = acceptance.run_all(numbers)
    if args.json:
        docs = [{**asdict(r), "seconds": round(r.seconds, 3)} for r in results]
        print(json.dumps(docs, sort_keys=True, indent=2))
    else:
        print(acceptance.format_report(results))
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (a parse leaves it as it was)."""
    ap = argparse.ArgumentParser(prog="nonrep")
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("word", help="generate and check words")
    wsub = w.add_subparsers(dest="action", required=True)
    wg = wsub.add_parser("gen")
    wg.add_argument("--length", type=int, required=True)
    wf = wsub.add_parser("check-free")
    wf.add_argument("--beta", type=_rational, required=True)
    wf.add_argument("--n", type=int, default=1)
    wf.add_argument("--strict", action="store_true")
    wf.add_argument("word")
    wd = wsub.add_parser("check-directed")
    wd.add_argument("--d", type=int, required=True)
    wd.add_argument("word")
    w.set_defaults(func=cmd_word)

    m = sub.add_parser("morphism", help="apply a morphism")
    msub = m.add_subparsers(dest="action", required=True)
    ma = msub.add_parser("apply")
    ma.add_argument("--morphism", required=True)
    ma.add_argument("word")
    m.set_defaults(func=cmd_morphism)

    t = sub.add_parser("treecert", help="tree-coloring certificates")
    tsub = t.add_subparsers(dest="action", required=True)
    tc = tsub.add_parser("certify")
    tc.add_argument("--morphism", required=True)
    tc.add_argument("--k", type=int, required=True)
    tc.add_argument("--beta", type=_rational, required=True)
    tc.add_argument("--n", type=int, required=True)
    tc.add_argument("--d", type=int, required=True)
    tc.add_argument("--factor-len", type=int, default=None)
    t.set_defaults(func=cmd_treecert)

    g = sub.add_parser("graph", help="generate and verify graphs")
    gsub = g.add_subparsers(dest="action", required=True)
    gg = gsub.add_parser("gen")
    gg.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    gg.add_argument("--i", type=int, default=0)
    gg.add_argument("--n", type=int, default=4)
    gg.add_argument("--m", type=int, default=1)
    gg.add_argument("--out")
    gv = gsub.add_parser("verify")
    gv.add_argument("--graph", required=True)
    gv.add_argument("--colors", required=True, help="comma-separated vertex colors")
    gv.add_argument("--k", type=int, required=True)
    gv.add_argument("--max-path", type=int, default=None)
    g.set_defaults(func=cmd_graph)

    s = sub.add_parser("search", help="exact searches")
    ssub = s.add_subparsers(dest="action", required=True)
    sp = ssub.add_parser("pik")
    sp.add_argument("--graph")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--k", type=int, required=True)
    sw = ssub.add_parser("word")
    sw.add_argument("--alphabet", type=int, required=True)
    sw.add_argument("--k", type=int, required=True)
    sw.add_argument("--target", type=int, required=True)
    s.set_defaults(func=cmd_search)

    su = sub.add_parser("suite", help="acceptance criteria")
    susub = su.add_subparsers(dest="action", required=True)
    sr = susub.add_parser("run")
    sr.add_argument("--json", action="store_true")
    sr.add_argument("--only", help="comma-separated criterion numbers")
    su.set_defaults(func=cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly on malformed arguments; fold that into the
        # usage-error return code so main() always returns
        return 2 if exc.code else int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigurationError and JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
