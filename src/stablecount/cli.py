"""Command-line front end.

Subcommands: solve, blocking, rotations, poset, count, enumerate,
count-1d, isets, gen, verify.  Inputs are files or '-' for stdin.
Instance-consuming commands accept either a preference-list file or a
geometric model file (recognized by its ``model ...`` header), which is
converted on the fly.  Exit codes: 0 success, 1 domain error (bad input,
ties, memo budget), 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .core import (
    Instance,
    ParseError,
    Side,
    _content_lines,
    _decimal,
    _pair_lines,
    format_instance,
    format_matching,
    parse_instance,
    parse_matching,
)
from .counting import (
    _wives_along,
    count_downsets,
    count_independent_sets,
    count_stable_matchings,
    enumerate_downsets,
    parse_bipartite,
)
from .gale_shapley import blocking_pairs, propose_optimal
from .geometry import (
    OneAttributeSpec,
    count_1attribute,
    format_geometric,
    induced_instance,
    parse_geometric,
)
from .reductions import MODELS, gen_partial_lists, verify_reduction
from .rotations import (
    find_all_rotations,
    format_rotations,
    hasse_dot,
    rotation_poset,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> Instance:
    text = _read(path)
    if next(_content_lines(text), (0, ""))[1].startswith("model "):
        return induced_instance(parse_geometric(text))
    return parse_instance(text)


def _parse_tau(arg: str) -> tuple[int, ...]:
    bad = f"bad permutation {arg!r}; expected e.g. 2,1,3"
    return tuple(_decimal(tok, bad) for tok in arg.split(","))


def _cmd_solve(args) -> int:
    inst = _load_instance(args.file)
    side = Side.WOMAN if args.side == "women" else Side.MAN
    sys.stdout.write(format_matching(propose_optimal(inst, side)))
    return 0


def _cmd_blocking(args) -> int:
    inst = _load_instance(args.file)
    matching = parse_matching(_read(args.matching), inst.n)
    sys.stdout.write(_pair_lines("block", blocking_pairs(inst, matching)))
    return 0


def _cmd_rotations(args) -> int:
    inst = _load_instance(args.file)
    sys.stdout.write(format_rotations(find_all_rotations(inst)[0]))
    return 0


def _cmd_poset(args) -> int:
    inst = _load_instance(args.file)
    poset = rotation_poset(inst)
    if args.dot:
        sys.stdout.write(hasse_dot(poset))
    else:
        sys.stdout.write(format_rotations(list(poset.rotations)))
        prec = ((i + 1, j + 1) for i, j in poset.relation_pairs())
        sys.stdout.write(_pair_lines("prec", prec))
    return 0


def _cmd_count(args) -> int:
    inst = _load_instance(args.file)
    print(count_stable_matchings(inst))
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.file)
    rposet = rotation_poset(inst)
    print(f"total {count_downsets(rposet)}")
    numeral = [str(i) for i in range(inst.n + 1)]
    walk = _wives_along(rposet, enumerate_downsets(rposet))
    sys.stdout.writelines(
        " ".join(map(numeral.__getitem__, wives)) + "\n"
        for wives in itertools.islice(walk, args.limit)
    )
    return 0


def _cmd_count_1d(args) -> int:
    spec = parse_geometric(_read(args.file))
    if not isinstance(spec, OneAttributeSpec):
        raise ParseError("count-1d expects a 'model 1d' spec")
    print(count_1attribute(spec))
    return 0


def _cmd_isets(args) -> int:
    graph = parse_bipartite(_read(args.file))
    print(count_independent_sets(graph))
    return 0


def _cmd_gen(args) -> int:
    graph = parse_bipartite(_read(args.file))
    if args.tau is None:
        built = MODELS[args.model](graph)
    elif args.model == "lists":
        built = gen_partial_lists(graph, _parse_tau(args.tau))
    else:
        raise ParseError(f"--tau applies only to --model lists, not {args.model}")
    if isinstance(built, Instance):
        sys.stdout.write(format_instance(built))
    else:
        sys.stdout.write(format_geometric(built))
    return 0


def _cmd_verify(args) -> int:
    is_dir = os.path.isdir(args.file)
    paths = [args.file]
    if is_dir:
        paths = sorted(
            os.path.join(args.file, name)
            for name in os.listdir(args.file)
            if name.endswith(".bis")
        )
        if not paths:
            raise ParseError(f"no .bis files in {args.file}")
    all_ok = True
    for path in paths:
        try:
            report = verify_reduction(parse_bipartite(_read(path)), args.model)
        except (ValueError, OSError) as exc:  # in a directory, name the graph
            raise (ValueError(f"{path}: {exc}") if is_dir else exc) from None
        if is_dir:
            print(f"== {path}")
        print(report)
        all_ok = all_ok and report.all_ok
    return 0 if all_ok else 3


def _limit(text: str) -> int:
    # the numbers of the file formats, with a minus sign named as such
    try:
        value = _decimal(text.removeprefix("-"), f"invalid int value: {text!r}")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablecount",
        description="Stable matchings, rotation posets, and counting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        sub = subs.add_parser(name, help=help_)
        sub.set_defaults(func=func)
        sub.add_argument("file")
        return sub

    sub = add("solve", _cmd_solve, "side-optimal stable matching")
    sub.add_argument("--side", choices=("men", "women"), default="men")

    sub = add("blocking", _cmd_blocking, "blocking pairs of a matching")
    sub.add_argument("matching")

    add("rotations", _cmd_rotations, "all rotations in elimination order")

    sub = add("poset", _cmd_poset, "rotation poset (or its Hasse diagram as DOT)")
    sub.add_argument("--dot", action="store_true")

    add("count", _cmd_count, "number of stable matchings")

    sub = add("enumerate", _cmd_enumerate, "list stable matchings")
    sub.add_argument("--limit", type=_limit, default=1000)

    add("count-1d", _cmd_count_1d, "count stable matchings of a 1d model")

    add("isets", _cmd_isets, "independent sets of a bipartite graph")

    sub = add("gen", _cmd_gen, "instance or geometric spec from a bipartite graph")
    sub.add_argument("--model", choices=tuple(MODELS), default="lists")
    sub.add_argument("--tau", default=None)

    sub = add("verify", _cmd_verify, "check the reduction on a graph (or directory)")
    sub.add_argument("--model", choices=tuple(MODELS), default="lists")

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:  # ParseError, TieDetected, SizeLimitError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
