"""Command-line front end.

Every verb maps onto one library operation and writes machine-stable
output: identical argument vectors (including seeds) produce
byte-identical stdout.  ``--jobs`` is still accepted and has no effect.
Domain failures (bad tree text, exceeded guards) exit 1 with a one-line
diagnostic on stderr; usage errors exit 2.  The size guards are this
module's policy: the library computes whatever bound it is given.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys

from . import embedding, minors
from .invariants import fingerprint
from .trees import (
    PlaneTree,
    count,
    enumerate_trees,
    parse,
    random_tree,
    tree_to_json,
    unrank,
)

DEFAULT_POSET_GUARD = 6  # largest universe bound of poset, mine and audit
DEFAULT_ORACLE_GUARD = 8  # largest host, in vertices, of oracle-embed
CLASSES_GUARD = 9  # largest size of classes: 3.2-3.7 s and 89 MiB; size 10 has 5.0M trees
SIZE_GUARD = 10**5  # largest size of count, enum, random and classes; their first step costs about n^2


def _limit(text: str) -> int:
    try:
        limit = int(text)
    except ValueError:
        limit = -1  # reported in the same words as a negative value
    if limit < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return limit


@functools.cache  # built on the first run, not at import, then kept
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopfarb",
        description="Signed plane trees, their minor order, and invariants of "
        "the Hopf-plumbed surfaces they encode.",
    )
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored; sweeps run in one process")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_tree_input(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--tree", help="tree text")
        g.add_argument("--file", help="file with one canonical tree text per line")

    sp = sub.add_parser("parse", help="validate tree text and print its canonical form")
    add_tree_input(sp)
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("enum", help="list all trees of a given size")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--limit", type=_limit, default=None)

    sp = sub.add_parser("count", help="number of trees of a given size")
    sp.add_argument("n", type=int)

    sp = sub.add_parser("inv", help="invariant fingerprint of trees")
    add_tree_input(sp)
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("embed", help="decide sub -> super embedding (dynamic program)")
    sp.add_argument("--sub", required=True)
    sp.add_argument("--super", dest="sup", required=True)
    sp.add_argument("--witness", action="store_true")

    sp = sub.add_parser("oracle-embed", help="decide embedding by brute-force closure")
    sp.add_argument("--sub", required=True)
    sp.add_argument("--super", dest="sup", required=True)
    sp.add_argument("--guard", type=int, default=None, help="raise the closure size guard")

    sp = sub.add_parser("poset", help="embedding relation over a bounded universe")
    sp.add_argument("--max-size", type=int, required=True)
    sp.add_argument("--dot", help="write Hasse diagram as DOT ('-' for stdout)")
    sp.add_argument("--csv", help="write relation pairs as CSV ('-' for stdout)")
    sp.add_argument("--guard", type=int, default=None, help="raise the universe size guard")

    sp = sub.add_parser("mine", help="minimal excluded trees of a predicate")
    sp.add_argument("--predicate", required=True, help="e.g. size_le:3, all_positive")
    sp.add_argument("--max-size", type=int, required=True)
    sp.add_argument("--guard", type=int, default=None, help="raise the universe size guard")

    sp = sub.add_parser("audit", help="monotonicity audit of a quantity over the order")
    sp.add_argument("--quantity", choices=["genus", "betti"], required=True)
    sp.add_argument("--max-size", type=int, required=True)
    sp.add_argument("--guard", type=int, default=None, help="raise the universe size guard")

    sp = sub.add_parser("classes", help="fingerprint classes of a given size")
    sp.add_argument("--size", type=int, required=True)

    sp = sub.add_parser("random", help="uniform random tree, deterministic in the seed")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)

    return p


def _input_trees(args) -> list[PlaneTree]:
    if args.tree is not None:
        return [parse(args.tree)]
    with open(args.file, encoding="utf-8") as fh:
        return [parse(line.strip()) for line in fh if line.strip()]


def _guard(args, default: int) -> int:
    if args.guard is None:
        return default
    print(f"guard override: {args.guard}", file=sys.stderr)
    return args.guard


def _size(n: int) -> int:
    if n > SIZE_GUARD:
        raise ValueError(f"size guard exceeded: tree size {n} > guard {SIZE_GUARD}")
    return n


def _check_universe(nmax: int, guard: int) -> None:
    if nmax > guard:
        raise ValueError(f"poset guard exceeded: universe bound {nmax} > guard {guard}")


def _write_output(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)


def _universe_tree(i: int) -> PlaneTree:
    # Tree i of ``minors.universe``, through the size offsets and ``unrank``.
    n = 1
    while i >= count(n):
        i, n = i - count(n), n + 1
    return unrank(n, i)


def _fingerprint_text(fp) -> str:
    return (
        f"n={fp.n} b={fp.b} g={fp.g} sigma={fp.signature} det={fp.determinant} "
        f"nullity={fp.nullity} alexander={fp.alexander}"
    )


def _dispatch(args) -> int:
    if args.verb == "parse":
        for t in _input_trees(args):
            print(tree_to_json(t) if args.format == "json" else t.text)
    elif args.verb == "enum":
        limit = args.limit
        for i, t in enumerate(enumerate_trees(_size(args.size))):
            if limit is not None and i >= limit:
                break
            print(t.text)
    elif args.verb == "count":
        print(decimal.Decimal(count(_size(args.n))))  # str(int) stops at 4,300 digits
    elif args.verb == "inv":
        for t in _input_trees(args):
            fp = fingerprint(t)
            if args.format == "json":
                print(json.dumps(fp.to_json_obj(), separators=(",", ":")))
            else:
                print(_fingerprint_text(fp))
    elif args.verb == "embed":
        sub, sup = parse(args.sub), parse(args.sup)
        if args.witness:
            w = embedding.embed_witness(sub, sup)
            print("true" if w is not None else "false")
            if w is not None:
                print(json.dumps(w.to_json_obj(), separators=(",", ":")))
        else:
            print("true" if embedding.embeds(sub, sup) else "false")
    elif args.verb == "oracle-embed":
        sub, sup = parse(args.sub), parse(args.sup)
        guard = _guard(args, DEFAULT_ORACLE_GUARD)
        if sup.size > guard:
            raise ValueError(
                f"operation-closure guard exceeded: tree has {sup.size} vertices, guard is {guard}"
            )
        print("true" if embedding.oracle_embeds(sub, sup) else "false")
    elif args.verb == "poset":
        _check_universe(args.max_size, _guard(args, DEFAULT_POSET_GUARD))
        u = minors.universe(args.max_size)
        report = minors.poset(u)
        if args.dot:
            _write_output(args.dot, minors.poset_to_dot(u, report))
        if args.csv:
            _write_output(args.csv, minors.poset_to_csv(report))
        if not args.dot and not args.csv:
            print(json.dumps(report.stats, sort_keys=True))
    elif args.verb == "mine":
        guard = _guard(args, DEFAULT_POSET_GUARD)  # logs an override before a predicate error
        pred = minors.Predicate.parse(args.predicate)
        _check_universe(args.max_size, guard)
        for t in minors.minimal_excluded(pred, args.max_size):
            print(t.text)
    elif args.verb == "audit":
        _check_universe(args.max_size, _guard(args, DEFAULT_POSET_GUARD))
        violations = minors.audit_monotone(args.quantity, args.max_size)
        for i, j in violations:
            print(f"{_universe_tree(i).text}\t{_universe_tree(j).text}")
        print(f"violations: {len(violations)}")
    elif args.verb == "classes":
        n = _size(args.size)
        if n > CLASSES_GUARD:
            raise ValueError(f"classes guard exceeded: tree size {n} > guard {CLASSES_GUARD}")
        for cls in minors.fingerprint_classes(n):
            print(" ".join(cls))
    elif args.verb == "random":
        print(random_tree(_size(args.size), args.seed).text)
    return 0


_TREE_OPTS = ("--tree", "--sub", "--super")


def _merge_tree_values(argv: list[str]) -> list[str]:
    # Tree texts may start with '-', which argparse would read as an
    # option; fold the value into '--opt=value' form ahead of parsing.
    out, rest = [], iter(argv)
    for tok in rest:
        value = next(rest, None) if tok in _TREE_OPTS else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_merge_tree_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
