"""Command-line front end.

One executable with subcommands wired to the library modules.  Output is
deterministic: identical argv (and seed) produce byte-identical stdout, all
counts are decimal strings, and anything order-dependent is sorted.  Commands
that print a row per record format and write their rows a block at a time;
``scan w`` puts its rows together from text made once per distinct value, and
``enumerate`` writes ``ResidueEnumerator.by_value``, building no set of Omega(U).
Exit status is 0 on success, 1 on a domain or usage error, 2 when an invariant
or acceptance check fails.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys as _sys
from typing import Callable, Iterable, Optional, Sequence

# core alone at import time: each command imports the modules it runs
from . import core
from .core import (
    ChainPartError,
    DEFAULT_ENUMERATION_CEILING,
    DEFAULT_PARTITION_BUDGET,
    InvariantViolationError,
    Partition,
    PQSystem,
    make_system,
)

_SCAN_MODES = ("w", "maxw", "monotonicity", "theorem4", "smallw", "bound")
#: Lines per stdout write of the row-per-record commands other than ``scan w``,
#: and of ``enumerate``, whose json lines at U = 9,555,147 are about 210 B each.
_BLOCK_LINES, _MEMBER_LINES = 4096, 256


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as domain errors (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(_sys.stderr)
        print(f"error: {message}", file=_sys.stderr)
        raise SystemExit(1)


def _integer(text: str) -> int:
    """argparse type of the integer options; an over-long value is refused, not echoed."""
    try:
        return int(text)
    except ValueError:
        limit = getattr(_sys, "get_int_max_str_digits", lambda: 0)()
        too_long = limit and sum(ch.isdigit() for ch in text) > limit
        raise argparse.ArgumentTypeError(f"more than {limit} digits (Python's int string limit)"
                                         if too_long else f"invalid int value: {text!r}") from None


#: The three low digits "000" .. "999" of the row numbers from 1000 on.
_LOW_DIGITS = tuple(f"{i:03d}" for i in range(1000))


def _print_numbered(head: str, mid: str, tail: str, values: Sequence[int]) -> None:
    """Print ``head + str(u) + mid + str(values[u]) + tail`` for each u, 1,000 rows per write.

    The text of each distinct value, with ``mid`` and ``tail``, is made once
    per call; in a block of rows from 1000 on, u div 1000 is made once and the
    low digits are read from ``_LOW_DIGITS``.
    """
    write = _sys.stdout.write  # looked up per call, so a swapped stdout is honoured
    text = _TextOf(lambda w: f"{mid}{w}{tail}")
    for lo in range(0, len(values), 1000):
        block = values[lo:lo + 1000]
        line = [f"{head}{lo // 1000 or ''}"] * (3 * len(block))
        line[1::3] = _LOW_DIGITS[:len(block)] if lo else map(str, range(len(block)))
        line[2::3] = map(text.__getitem__, block)
        write("".join(line))


def _read_config(path: str) -> dict[str, str]:
    """Simple key=value file, keys spelled as options; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("_", "-")] = val.strip()
    return values


def _ceiling(args: argparse.Namespace) -> int:
    if args.ceiling is not None:
        return args.ceiling
    env = os.environ.get("CHAINPART_CEILING")
    return int(env) if env else DEFAULT_ENUMERATION_CEILING


def _system(args: argparse.Namespace) -> PQSystem:
    sys_ = make_system(args.p, args.q)
    if "tree" in (getattr(args, "codec", None), getattr(args, "format", None)):
        from . import codec  # tree words need p = 2: refused before any work
        codec.require_p2(sys_)
    return sys_


def _print_json(doc: dict) -> None:
    """Print ``doc`` as one line of compact JSON."""
    print(json.dumps(doc, separators=(",", ":")))


class _TextOf(dict):
    """``make(key)`` for each key, made on its first lookup and kept."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _pair_texts(sys_: PQSystem) -> tuple[_TextOf, Callable[[tuple, object], str]]:
    """The decimal value of each exponent pair, and the json line of a partition.

    ``json_line(parts, total)`` is the ``core.to_json`` line of a partition
    with sum ``total`` and a ``values`` list, the decimal text of each part,
    put together from the text of each distinct pair and its value, made once
    per call of this function.
    """
    p, q = sys_.p, sys_.q
    values = _TextOf(lambda pair: str(p**pair[0] * q**pair[1]))
    quoted = _TextOf(lambda pair: f'"{values[pair]}"')
    pairs = _TextOf(lambda pair: f"[{pair[0]},{pair[1]}]")
    head = f'{{"p":{p},"q":{q},"parts":['

    def json_line(parts: tuple, total: object) -> str:
        return (head + ",".join(map(pairs.__getitem__, parts)) + f'],"sum":"{total}","values":['
                + ",".join(map(quoted.__getitem__, parts)) + "]}")

    return values, json_line


def _member_line(sys_: PQSystem, u: int, fmt: str) -> Callable[[Partition], str]:
    """The line of one member of Omega(u) in ``fmt``, without the newline.

    The sum is u for every member; the json and csv lines read the text of
    each pair and its value from ``_pair_texts``.
    """
    if fmt in ("words", "tree"):
        from . import codec
        return (codec.lattice_encode if fmt == "words"
                else lambda pt: codec.tree_encode(pt, sys_).render(sys_))
    values, json_line = _pair_texts(sys_)
    if fmt == "csv":
        head, text = f"{u},", values.__getitem__
        return lambda pt: head + " ".join(map(text, pt))
    if fmt == "json":
        total = str(u)
        return lambda pt: json_line(pt, total)
    raise ValueError(f"unknown format {fmt!r}")


def _write_lines(lines: Iterable[str], size: int = 0) -> None:
    """Write each line and a newline, ``size`` (or ``_BLOCK_LINES``) lines per write.

    On a terminal each line is written as soon as it is made, as ``print``
    would.  When ``lines`` raises, the lines finished before it are written
    first; a write that raises is not repeated.
    """
    out = _sys.stdout  # looked up per call, so a swapped stdout is honoured
    size = 1 if out.isatty() else size or _BLOCK_LINES
    block: list[str] = []

    def flush() -> None:
        # the block is emptied before the write, and neither it nor the text outlives it
        block.append("")  # the last newline, without a second copy of the block
        text = "\n".join(block)
        block.clear()
        out.write(text)

    try:
        for line in lines:
            block.append(line)
            if len(block) == size:
                flush()
    finally:
        if block:
            flush()


def _cmd_enumerate(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import enumeration
    ceiling = _ceiling(args)
    if args.u > ceiling:
        raise core.BudgetError(f"u={args.u} exceeds the enumeration ceiling {ceiling}")
    members = enumeration.ResidueEnumerator(sys_, args.budget).by_value(args.u)
    line = _member_line(sys_, args.u, args.format)
    if args.format == "csv":
        print("u,values")
    _write_lines(map(line, members), _MEMBER_LINES)
    return 0


def _cmd_count(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import counting
    if args.method == "all":
        names = {engine: name for name, engine in counting.ENGINES.items()}
        doc: dict = {"u": args.u}
        values = set()
        for engine in counting.all_counters(sys_):
            w = engine.w(args.u)
            doc[names[type(engine)]] = str(w)
            values.add(w)
        doc["agree"] = len(values) == 1
        _print_json(doc)
        return 0 if doc["agree"] else 2
    counter = counting.make_counter(sys_, args.method)
    print(counter.w(args.u))
    return 0


def _cmd_scan(args: argparse.Namespace, sys_: PQSystem) -> int:
    mode = "monotonicity" if args.mode == "theorem4" else args.mode
    if mode == "w":
        from . import counting
        arr = counting.make_counter(sys_).scan(args.limit)
        if args.emit == "csv":
            print("u,w")
            _print_numbered("", ",", "\n", arr)
        else:
            _print_numbered('{"u":', ',"w":"', '"}\n', arr)
        return 0
    from . import analytics
    if mode == "maxw":
        records = analytics.max_count_jumps(args.limit, sys_).records
        klass = ["q-odd" if r.odd_multiple else "2q2-exception" for r in records]
        if args.emit == "csv":
            print("u,maxw,class")
        row = "%d,%d,%s" if args.emit == "csv" else '{"u":%d,"maxw":"%d","class":"%s"}'
        _write_lines(row % (r.u, r.value, k) for r, k in zip(records, klass))
        return 0
    if mode == "monotonicity":
        results = [(q, analytics.check_local_monotonicity(args.limit, make_system(sys_.p, q)))
                   for q in args.scan_q or [sys_.q]]
        for q, report in results:
            _print_json({"q": q, "limit": args.limit, "violations": len(report.violations)})
        return 0 if not any(report.violations for _, report in results) else 2
    if mode == "smallw":
        report = analytics.classify_small_counts(args.limit, sys_)
        if args.emit == "csv":
            print("u,w")
            _write_lines(map("%d,1".__mod__, report.ones))
            _write_lines(map("%d,2".__mod__, report.twos))
        else:
            _print_json({"limit": report.limit, "ones": list(report.ones),
                         "twos": list(report.twos)})
        return 0
    if mode == "bound":
        report = analytics.check_growth_bound(args.limit, sys_)
        _print_json({"limit": report.limit, "beta": repr(report.beta),
                     "max_ratio": repr(report.max_ratio), "violations": len(report.violations)})
        return 0 if not report.violations else 2
    raise ValueError(f"unknown scan mode {mode!r}")


def _cmd_sample(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import enumeration
    draws = enumeration.sample_uniform(args.u, sys_, random.Random(args.seed), args.n)
    _write_lines(core.to_json(pt, sys_) for pt in draws)
    return 0


def _iter_stdin() -> Iterable[str]:
    for line in _sys.stdin:
        line = line.strip()
        if line:
            yield line


def _parse_partition_line(line: str, sys_: PQSystem) -> Partition:
    if line.startswith("{"):
        pt, _ = core.from_json(line, sys_)
        return pt
    if line.startswith("["):
        return Partition.from_pairs(core.json_pairs(json.loads(line)))
    return core.validate(line.split(), sys_)


def _cmd_encode(args: argparse.Namespace, sys_: PQSystem) -> int:
    word = _member_line(sys_, 0, "tree" if args.codec == "tree" else "words")  # reads no sum
    _write_lines(word(_parse_partition_line(line, sys_)) for line in _iter_stdin())
    return 0


def _cmd_decode(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import codec
    values, json_line = _pair_texts(sys_)
    words = _iter_stdin()
    if args.codec == "tree":  # (U, partition); U is the json sum
        decoded = (codec.tree_decode(codec.TreeWord.parse(w, sys_), sys_) for w in words)
    else:  # (None, partition); the json line sums the partition itself
        decoded = ((None, codec.lattice_decode(w)) for w in words)
    if args.format == "values":
        _write_lines(" ".join(map(values.__getitem__, pt)) for _, pt in decoded)
    else:
        _write_lines(json_line(pt, core.value(pt, sys_) if total is None else total)
                     for total, pt in decoded)
    return 0


def _cmd_sigma(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import shortest
    table = shortest.ShortestTable(sys_)
    if not args.witness:
        print(table.sigma(args.u))
        return 0
    res = table.witness(args.u)
    _print_json({"u": args.u, "sigma": res.sigma, "witness": res.witness,
                 "values": [str(core.part_value(pair, sys_)) for pair in res.witness],
                 "cost": shortest.chain_cost(res.witness)._asdict()})
    return 0


def _cmd_sigma_stats(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import shortest
    stats = shortest.ShortestTable(sys_).stats(args.limit)
    if args.emit == "csv":
        print("sigma,count")
        _write_lines(map("%d,%d".__mod__, stats.histogram.items()))
    else:
        _print_json({"limit": stats.limit, "mean_ratio": repr(stats.mean_ratio),
                     "histogram": {str(k): v for k, v in stats.histogram.items()}})
    return 0


def _cmd_chainpow(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import shortest
    table = shortest.ShortestTable(sys_)
    witness = table.witness(args.u).witness if args.u >= 1 else Partition()
    result = shortest.chain_pow(args.g, args.u, args.mod, sys_, witness or None)
    if args.cost:
        _print_json({"result": str(result), "witness": witness,
                     "cost": shortest.chain_cost(witness)._asdict()})
    else:
        print(result)
    return 0


def _cmd_graph(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import codec, graph23
    graph = graph23.build_graph(args.u, sys_)
    if args.dot:
        # every label before the first write; each edge once, from its earlier (sorted) vertex
        labels = list(map(codec.lattice_encode, graph.vertices))
        edges = (sorted((labels[i], labels[j])) for i, js in enumerate(graph.nbrs)
                 for j in js if j > i)
        _write_lines(itertools.chain([f'graph "omega{args.u}" {{'], map('  "{}";'.format, labels),
                                     itertools.starmap('  "{}" -- "{}";'.format, edges), ["}"]))
        return 0
    # diameter()'s first BFS finds a disconnected graph, so no other BFS runs
    try:
        diameter = graph.diameter()
    except InvariantViolationError:
        diameter = -1
    _print_json({"u": args.u, "vertices": len(graph.vertices), "edges": graph.edge_count,
                 "connected": diameter >= 0, "diameter": diameter})
    return 0


def _cmd_walk(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import codec, graph23
    pt = graph23.random_walk(args.u, args.steps, sys_, args.seed)
    _print_json({"u": args.u, "steps": args.steps, "seed": args.seed,
                 "word": codec.lattice_encode(pt), "partition": pt})
    return 0


def _cmd_alpha(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import analytics
    roots = analytics.solve_exponents(sys_)
    _print_json({"p": sys_.p, "q": sys_.q, "alpha": repr(roots.alpha), "beta": repr(roots.beta),
                 "alpha_residual": repr(roots.alpha_residual),
                 "beta_residual": repr(roots.beta_residual),
                 "c_upper": repr(analytics.constant_upper_bound(sys_, roots.alpha))})
    return 0


def _cmd_sumfn(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import analytics
    estimate = analytics.estimate_growth_constant(sys_, args.xmax)
    if args.emit == "csv":
        print("x,s,ratio,c_upper")
    row = ("%d,%d,%r,%r" if args.emit == "csv"
           else '{"x":%d,"s":"%d","ratio":"%r","c_upper":"%r"}')
    _write_lines(row % (*sample, estimate.upper_bound) for sample in estimate.samples)
    return 0


def _cmd_selftest(args: argparse.Namespace, sys_: PQSystem) -> int:
    from . import acceptance
    profile = "full" if args.full else "quick"
    return acceptance.run_selftest(profile)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainpart",
        description="Generate, encode, count, sample and analyze strictly "
                    "chained two-base partitions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # options every command but selftest takes; the others belong to the commands that read them
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--p", type=_integer, default=2, help="first base (default 2)")
    base.add_argument("--q", type=_integer, default=3, help="second base (default 3)")
    base.add_argument("--config", default=None, help="key=value file of options")

    sub = subs.add_parser("enumerate", parents=[base], help="list all partitions of a sum")
    sub.add_argument("--u", type=_integer, required=True)
    sub.add_argument("--ceiling", type=_integer, default=None,
                     help="largest sum to enumerate (default env CHAINPART_CEILING or 10^7)")
    sub.add_argument("--budget", type=_integer, default=DEFAULT_PARTITION_BUDGET,
                     help="max partitions to list, checked against W(u) before any is built")
    sub.add_argument("--format", choices=("json", "csv", "words", "tree"), default="json")

    sub = subs.add_parser("count", parents=[base], help="W(u) by one or all engines")
    sub.add_argument("--u", type=_integer, required=True)
    sub.add_argument("--method", default="auto", choices=(
        "auto", "cases", "halving", "direct", "all", "general", "p2", "theorem2"))

    sub = subs.add_parser("scan", parents=[base], help="bulk scans and structure checks")
    sub.add_argument("mode", nargs="?", choices=_SCAN_MODES, default="w")
    sub.add_argument("--limit", type=_integer, required=True)
    sub.add_argument("--emit", choices=("json", "csv"), default="json")
    sub.add_argument("--scan-q", type=_integer, action="append", default=None,
                     help="extra q values for the monotonicity scan")

    sub = subs.add_parser("sample", parents=[base], help="uniform random partitions of a sum")
    sub.add_argument("--seed", type=_integer, default=0, help="PRNG seed (default 0)")
    sub.add_argument("--u", type=_integer, required=True)
    sub.add_argument("--n", type=_integer, default=1)

    sub = subs.add_parser("encode", parents=[base], help="partitions on stdin -> words")
    sub.add_argument("--codec", choices=("lattice", "tree"), default="lattice")

    sub = subs.add_parser("decode", parents=[base], help="words on stdin -> partitions")
    sub.add_argument("--codec", choices=("lattice", "tree"), default="lattice")
    sub.add_argument("--format", choices=("json", "values"), default="json")

    sub = subs.add_parser("sigma", parents=[base], help="least number of parts")
    sub.add_argument("--u", type=_integer, required=True)
    sub.add_argument("--witness", action="store_true")

    sub = subs.add_parser("sigma-stats", parents=[base], help="shortest-length statistics")
    sub.add_argument("--limit", type=_integer, required=True)
    sub.add_argument("--emit", choices=("json", "csv"), default="json")

    sub = subs.add_parser("chainpow", parents=[base], help="modular power along a chain")
    sub.add_argument("--g", type=_integer, required=True)
    sub.add_argument("--u", type=_integer, required=True)
    sub.add_argument("--mod", type=_integer, required=True)
    sub.add_argument("--cost", action="store_true")

    sub = subs.add_parser("graph", parents=[base], help="transition graph for (2,3)")
    sub.add_argument("--u", type=_integer, required=True)
    sub.add_argument("--dot", action="store_true")

    sub = subs.add_parser("walk", parents=[base], help="lazy random walk on the graph")
    sub.add_argument("--seed", type=_integer, default=0, help="PRNG seed (default 0)")
    sub.add_argument("--u", type=_integer, required=True)
    sub.add_argument("--steps", type=_integer, required=True)

    subs.add_parser("alpha", parents=[base], help="growth exponents and the C ceiling")

    sub = subs.add_parser("sumfn", parents=[base], help="partial-sum ratios at dyadic points")
    sub.add_argument("--xmax", type=_integer, required=True)
    sub.add_argument("--emit", choices=("json", "csv"), default="json")

    # the criteria fix their own systems; main's _system reads the default bases
    sub = subs.add_parser("selftest", help="run the acceptance criteria")
    sub.set_defaults(p=2, q=3)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True)
    mode.add_argument("--full", action="store_true", default=False)
    return parser


def _names_config(name: str, options: dict) -> bool:
    """Whether argparse reads the option ``name`` as ``--config``, given the
    command's ``options``: it is ``--config``, or a prefix that no other option has."""
    if name in options:
        return name == "--config"
    return (name.startswith("--")
            and [opt for opt in options if opt.startswith(name)] == ["--config"])


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser`` once per process."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    parser = _parser()
    commands = next(action.choices for action in parser._actions if action.dest == "command")
    command = commands.get(argv[0]) if argv else None
    options = command._option_string_actions if command else {}
    # first pass only to honor --config PATH or --config=PATH before real parsing,
    # in every spelling that argparse reads as --config
    at = next((i for i, arg in enumerate(itertools.takewhile("--".__ne__, argv))
               if _names_config(arg.partition("=")[0], options)), None)
    if at is not None:
        try:
            _, eq, path = argv[at].partition("=")
            config = _read_config(path if eq else argv[at + 1])
        except (IndexError, OSError, ValueError) as exc:
            print(f"error: bad config: {exc}", file=_sys.stderr)
            return 1
        # each key the command has as an option goes in as --key=value after
        # the command name, so argparse reads it and later flags override it
        argv[1:1] = [f"--{key}={val}" for key, val in config.items() if f"--{key}" in options]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by _Parser.error with code 1
        return int(exc.code or 0)
    try:  # the handler by name at call time, so the cached parser holds no function
        code = globals()["_cmd_" + args.command.replace("-", "_")](args, _system(args))
        _sys.stdout and _sys.stdout.flush()  # a refused write fails here, not in the flush at exit
        return code
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=_sys.stderr)
        return 2
    except (ChainPartError, ValueError, OverflowError, RecursionError, MemoryError, OSError) as exc:
        if not isinstance(exc, BrokenPipeError):  # a closed pipe ends the command in silence
            print(f"error: {str(exc) or type(exc).__name__}", file=_sys.stderr)
        try:  # only a stdout that still refuses its bytes goes to devnull, for a quiet exit
            _sys.stdout and _sys.stdout.flush()  # stdout is None where the process has none
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
