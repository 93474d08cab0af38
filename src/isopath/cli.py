"""Command-line front end: generate, compute, construct, verify, solve.

Exit codes: 0 success, 1 invalid input (usage errors included), 2 invalid
certificate or unproven optimum or failed selftest, 3 internal error (a
failed assertion or any unexpected exception, reported on one stderr
line).  All output is ASCII with LF line endings and a stable key=value
grammar.
"""

import argparse
import functools
import os
import sys
from itertools import product

from .construct import cover_hamming2, cover_hamming3, cover_multipartite
from .cover import (
    Cover,
    format_cover,
    parse_cover,
    verify_cover,
)
from .errors import (
    ConstructionError,
    DisconnectedGraphError,
    FormatError,
    InvalidSpecError,
    OutOfRangeError,
    PoolBudgetError,
)
from .formulas import ip_hamming, ip_multipartite
from .graph import (
    Graph,
    HammingSpec,
    PartiteSpec,
    all_pairs_distances,
    format_graph,
    make_augmented_multipartite,
    make_complete_multipartite,
    make_hamming,
    parse_graph,
    sorted_partitions,
)
from .solver import check_pool_order, enumerate_isometric_paths, solve_min_cover

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_UNPROVEN = 2
EXIT_INTERNAL = 3

# selftest builds every partition of up to --max-n vertices before it solves
# any (6.6 million at 60); 14 runs in about half a minute
SELFTEST_MAX_N = 14

_DOT_COLORS = (
    "red", "blue", "forestgreen", "darkorange", "purple",
    "deeppink", "teal", "saddlebrown", "goldenrod", "navy",
)


def _parse_sizes(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InvalidSpecError(f"malformed size list {text!r}") from None


def _parse_pairs(text, r):
    groups = text.split(";")
    if len(groups) != r:
        raise InvalidSpecError(
            f"--pairs needs {r} ';'-separated groups (one per part), got {len(groups)}"
        )
    pairings = []
    for group in groups:
        pairs = []
        group = group.strip()
        if group:
            for token in group.split(","):
                a, sep, b = token.partition("-")
                if not sep:
                    raise InvalidSpecError(f"malformed pair {token!r} (want a-b)")
                try:
                    pairs.append((int(a), int(b)))
                except ValueError:
                    raise InvalidSpecError(f"malformed pair {token!r}") from None
        pairings.append(pairs)
    return pairings


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    # one encode and raw writes, with no text layer
    view = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _read_text(path):
    # one read and one decode, with no text layer: line ends stay as they
    # are, since parse_graph and parse_cover split with str.splitlines, and
    # exc.start is the offset in the file
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not ASCII"
        ) from None


def _vertex_labels(spec):
    """The display name of each vertex of the family graph of ``spec``: its
    coordinate tuple (first coordinate most significant) for a HammingSpec,
    else ``i:k``, the k-th vertex of part i (largest part first)."""
    if isinstance(spec, HammingSpec):
        coords = product(*map(range, spec.factors))
        return ["(" + ",".join(map(str, c)) + ")" for c in coords]
    return [f"{i}:{k}" for i, size in enumerate(spec.sizes) for k in range(size)]


def _graph_dot(g: Graph, labels=None, cover: Cover | None = None) -> str:
    """Presentation-only DOT export; vertex v is named ``labels[v]``, or v
    when no labels are given, and paths are colored when a cover is given."""
    vertex_color = {}
    edge_color = {}
    if cover is not None:
        for i, p in enumerate(cover.paths):
            color = _DOT_COLORS[i % len(_DOT_COLORS)]
            for v in p:
                vertex_color.setdefault(v, color)
            for a, b in zip(p, p[1:]):
                edge_color.setdefault((min(a, b), max(a, b)), color)
    lines = ["graph cover {" if cover is not None else "graph g {"]
    for v in range(g.n):
        label = labels[v] if labels else str(v)
        attrs = [f'label="{label}"']
        if v in vertex_color:
            attrs.append(f'color="{vertex_color[v]}"')
            attrs.append("style=bold")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.edges():
        if (u, v) in edge_color:
            lines.append(f'  {u} -- {v} [color="{edge_color[(u, v)]}", penwidth=2];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args):
    if args.pairs is not None and args.augmented is None:
        raise InvalidSpecError("--pairs requires --augmented")
    if args.multipartite is not None:
        spec = PartiteSpec(_parse_sizes(args.multipartite))
        g = make_complete_multipartite(spec)
    elif args.hamming is not None:
        spec = HammingSpec(_parse_sizes(args.hamming))
        g = make_hamming(spec)
    else:
        sizes = _parse_sizes(args.augmented)
        spec = PartiteSpec(sizes)
        if args.pairs is None:
            raise InvalidSpecError("--augmented requires --pairs")
        groups = _parse_pairs(args.pairs, spec.r)
        # the groups follow the parts as given; PartiteSpec sorts the sizes
        # largest first, stably, so the groups are sorted the same way
        order = sorted(range(spec.r), key=sizes.__getitem__, reverse=True)
        g = make_augmented_multipartite(spec, [groups[i] for i in order])
    _write_text(args.output, format_graph(g))
    if args.dot:
        _write_text(args.dot, _graph_dot(g, _vertex_labels(spec)))
    return EXIT_OK


def _hamming_spec(text):
    """The spec of formula's or construct's --hamming, its factor count checked first."""
    factors = _parse_sizes(text)
    if len(factors) not in (2, 3):
        raise InvalidSpecError("--hamming takes 2 or 3 factors")
    return HammingSpec(factors)


def _cmd_formula(args):
    if args.multipartite is not None:
        result = ip_multipartite(PartiteSpec(_parse_sizes(args.multipartite)))
    else:
        result = ip_hamming(_hamming_spec(args.hamming))
    print(f"ip={result.value} case={result.case_tag}")
    return EXIT_OK


def _cmd_construct(args):
    if args.multipartite is not None:
        spec = PartiteSpec(_parse_sizes(args.multipartite))
        g = make_complete_multipartite(spec)
        cover = cover_multipartite(spec)
    else:
        spec = _hamming_spec(args.hamming)
        g = make_hamming(spec)
        # by name, not cover_hamming: the benchmark's tracer wraps these two
        cover = (cover_hamming2 if spec.r == 2 else cover_hamming3)(*spec.factors)
    report = verify_cover(g, cover)
    if not report.valid:
        raise ConstructionError("constructed cover failed verification")
    text = format_cover(cover)
    if args.output:
        _write_text(args.output, text)
        print(f"size={report.size}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _report_lines(report):
    lines = [
        f"valid={'true' if report.valid else 'false'} size={report.size} "
        f"uncovered={len(report.uncovered)} overlap={report.overlap}"
    ]
    if report.normal_form is not None:
        lines.append(f"normal_form={'true' if report.normal_form else 'false'}")
    if report.uncovered:
        lines.append("uncovered_vertices=" + ",".join(str(v) for v in report.uncovered))
    for i, verdict in enumerate(report.path_verdicts):
        if not verdict.ok:
            lines.append(
                f"path={i} simple={'true' if verdict.simple else 'false'} "
                f"walk={'true' if verdict.walk else 'false'} "
                f"isometric={'true' if verdict.isometric else 'false'}"
            )
    return lines


def _cmd_verify(args):
    g = parse_graph(_read_text(args.graph))
    cover = parse_cover(_read_text(args.cover))
    report = verify_cover(g, cover, strict_normal_form=args.strict)
    for line in _report_lines(report):
        print(line)
    if args.dot:
        _write_text(args.dot, _graph_dot(g, cover=cover))
    return EXIT_OK if report.valid else EXIT_UNPROVEN


def _cmd_solve(args):
    g = parse_graph(_read_text(args.graph))
    result = solve_min_cover(g, budget=args.budget)
    print(f"size={result.size}")
    print(f"nodes={result.nodes_explored}")
    print(f"proven={'true' if result.proof_of_optimality else 'false'}")
    if args.output:
        _write_text(args.output, format_cover(result.optimum))
    return EXIT_OK if result.proof_of_optimality else EXIT_UNPROVEN


def _cmd_paths(args):
    g = parse_graph(_read_text(args.graph))
    check_pool_order(g.n)
    pool = enumerate_isometric_paths(g, all_pairs_distances(g))
    if args.count_only:
        print(f"count={len(pool.paths)}")
    else:
        for p in pool.paths:
            print(" ".join(map(str, p)))
    return EXIT_OK


def _selftest_instances(max_n):
    multi = sorted_partitions(max_n)
    hamming = []
    for a in range(2, 10):
        for b in range(a, 10):
            if a * b <= 18:
                hamming.append((a, b))
    for a in range(2, 5):
        for b in range(a, 5):
            for c in range(b, 7):
                if a * b * c <= 18:
                    hamming.append((a, b, c))
    return sorted(multi), sorted(hamming)


def _selftest_rows(max_n):
    """(family, key, formula value, graph) of each selftest instance, by
    family and then by key."""
    multi, hamming = _selftest_instances(max_n)
    # the paper's exceptional family past the sweep: K2 x K2 x K_c, c odd,
    # 7 <= c <= max_n + 1, where ip is one more than the counting bound
    for key in sorted(hamming + [(2, 2, c) for c in range(7, max_n + 2, 2)]):
        spec = HammingSpec(key)
        yield "hamming", key, ip_hamming(spec).value, make_hamming(spec)
    for key in multi:
        spec = PartiteSpec(key)
        yield "multipartite", key, ip_multipartite(spec).value, make_complete_multipartite(spec)


def _cmd_selftest(args):
    passed = 0
    total = 0
    for family, key, want, g in _selftest_rows(args.max_n):
        got = solve_min_cover(g)
        total += 1
        # an incumbent from an exhausted budget confirms nothing, even when
        # its size happens to match
        if not got.proof_of_optimality:
            status = "UNPROVEN"
        else:
            status = "ok" if want == got.size else "MISMATCH"
        passed += status == "ok"
        spec_str = ",".join(str(s) for s in key)
        print(f"{family} {spec_str} formula={want} solver={got.size} {status}")
    verdict = "ok" if passed == total else "FAIL"
    print(f"selftest: {passed}/{total} {verdict}")
    return EXIT_OK if passed == total else EXIT_UNPROVEN


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input: exit 1, not argparse's 2, which here
    means an invalid certificate or an unproven optimum.  Subparsers are
    made by the parser's own class, so they inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _budget(text):
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return budget


def _max_n(text):
    try:
        max_n = int(text)
    except ValueError:
        max_n = SELFTEST_MAX_N + 1
    if max_n > SELFTEST_MAX_N:
        raise argparse.ArgumentTypeError(
            f"need an integer of at most {SELFTEST_MAX_N}, got {text!r}"
        )
    if max_n < 2:
        # below 2 the multipartite sweep is empty
        raise argparse.ArgumentTypeError(f"need an integer of at least 2, got {text!r}")
    return max_n


def _family_group(parser):
    """Add the required --multipartite or --hamming choice to a parser; return it."""
    family = parser.add_mutually_exclusive_group(required=True)
    family.add_argument("--multipartite", metavar="SIZES", help="part sizes, e.g. 3,3,2")
    family.add_argument("--hamming", metavar="FACTORS", help="factor sizes, e.g. 3,3,4")
    return family


@functools.cache
def _parser():
    """The parser and its subcommand parsers by name, built on the first call
    and kept for the process: building them costs about twenty times what
    one parse does.  They bind only the _cmd_* functions, which look up
    everything else at call time, so a name patched in this module (as the
    benchmark's tracer and the tests do) still takes effect."""
    parser = _Parser(
        prog="isopath",
        description="Isometric path covers: formulas, constructions, exact solving, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family graph in the graph text format")
    family = _family_group(gen)
    family.add_argument("--augmented", metavar="SIZES", help="part sizes for the augmented family")
    gen.add_argument("--pairs", metavar="PAIRS", help="per-part non-adjacent pairs, e.g. '0-1,2-3;0-1'")
    gen.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    gen.add_argument("--dot", metavar="FILE", help="also write a DOT rendering")
    gen.set_defaults(func=_cmd_gen)

    formula = sub.add_parser("formula", help="print the closed-form isometric path number")
    _family_group(formula)
    formula.set_defaults(func=_cmd_formula)

    construct = sub.add_parser("construct", help="build an optimal cover and verify it")
    _family_group(construct)
    construct.add_argument("-o", "--output", help="cover file; prints size=N when given")
    construct.set_defaults(func=_cmd_construct)

    verify = sub.add_parser("verify", help="verify a cover file against a graph file")
    verify.add_argument("-g", "--graph", required=True)
    verify.add_argument("-c", "--cover", required=True)
    verify.add_argument("--strict", action="store_true", help="also require normal form")
    verify.add_argument("--dot", metavar="FILE", help="write a DOT rendering with paths colored")
    verify.set_defaults(func=_cmd_verify)

    solve = sub.add_parser("solve", help="exact minimum cover by branch and bound")
    solve.add_argument("-g", "--graph", required=True)
    solve.add_argument("--budget", type=_budget, help="node budget (default 10^8)")
    solve.add_argument("-o", "--output", help="write the optimum cover here")
    solve.set_defaults(func=_cmd_solve)

    paths = sub.add_parser("paths", help="enumerate the isometric path pool")
    paths.add_argument("-g", "--graph", required=True)
    paths.add_argument("--count-only", action="store_true")
    paths.set_defaults(func=_cmd_paths)

    selftest = sub.add_parser("selftest", help="formula-vs-solver sweep on small instances")
    selftest.add_argument(
        "--max-n", type=_max_n, default=8,
        help=f"multipartite vertex cap (at most {SELFTEST_MAX_N})",
    )
    selftest.set_defaults(func=_cmd_selftest)

    return parser, sub.choices


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    # A named command is parsed by its own parser, as the full parser would
    # hand it on.  With no command, an unknown one or words left over, the
    # full parser parses again and prints its own usage and error.
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
    if sub is None or extras:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSpecError, FormatError, OutOfRangeError,
            DisconnectedGraphError, PoolBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other escape is a bug: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
