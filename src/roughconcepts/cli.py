"""Command-line interface tying the modules together.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 semantic error,
4 resource cap exceeded.  Failures print a single machine-parsable line
``error: <category>: <message>`` to stderr and emit nothing on stdout.
Each command hands :func:`run_cli` its text in pieces once nothing can
fail, and ``run_cli`` alone writes them.  A reader that closes stdout
early (``| head``) is not a failure: the rest of the output is dropped,
stderr stays empty and the exit code is 0, since the input was good and
every byte written was correct (as when the whole output fits the pipe).

Each command runs in a fresh interpreter, so the modules only some
commands use (``approx``, ``concepts``, ``report``, ``rules`` and
``json``) are imported in the branches of :func:`_dispatch` that run
them.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .context import ApproximationSpace, FormalContext, _names, definable_attributes, derive_extent
from .errors import ConceptLimitError, ParseError, RoughConceptsError, UndefinedMeasureError
from .formats import (
    FORMATS,
    ContextDocument,
    export_dot,
    guess_format,
    parse_context,
    parse_partition,
    render_context,
)
from .lattice import DEFAULT_MAX_CONCEPTS, ConceptLattice, _named_concepts, enumerate_concepts

if TYPE_CHECKING:
    from .rules import Implication

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_RESOURCE = 4


class UsageError(Exception):
    pass


# (error type, category, exit code), tried in order, so a subclass precedes its base.
_FAILURES = (
    (UsageError, "usage", EXIT_USAGE),
    (ParseError, "parse", EXIT_PARSE),
    (ConceptLimitError, "resource", EXIT_RESOURCE),
    (RoughConceptsError, "semantic", EXIT_SEMANTIC),
    (OSError, "parse: cannot read input", EXIT_PARSE),
)
_MAX_MESSAGE = 500  # characters; a failure message may echo hostile input of any size
_CHUNK = 256  # pieces of text per write; on an unbuffered stdout each write is a system call


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2; usage errors are 1 here
        raise UsageError(message)


def _non_negative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _build_parser() -> _Parser:
    # Each subcommand declares exactly the shared options it reads.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--context", required=True, metavar="FILE", help="context input file")
    source.add_argument("--format", choices=FORMATS, help="input format (default: by extension)")

    space = argparse.ArgumentParser(add_help=False)
    group = space.add_mutually_exclusive_group()
    group.add_argument("--partition", metavar="FILE", help="partition file (one block per line)")
    group.add_argument(
        "--partition-by",
        metavar="ATTRS",
        help="synthesize the partition whose blocks have equal rows on these attributes",
    )

    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--max-concepts",
        type=_non_negative_int,
        default=DEFAULT_MAX_CONCEPTS,
        help="exit with code 4 when any one lattice has more than this many concepts",
    )

    parser = _Parser(prog="roughconcepts", description="Concept lattices with rough approximation.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("lattice", parents=[source, cap], help="list concepts and covers of the context")

    p = sub.add_parser("approx", parents=[source, space], help="print an approximation context")
    p.add_argument("--mode", choices=("upper", "lower"), required=True)

    sub.add_parser("definable", parents=[source, space], help="list definable attributes")

    p = sub.add_parser("extent", parents=[source, space], help="extent of an attribute set")
    p.add_argument("--attrs", required=True, metavar="A,B,...")
    p.add_argument("--approx", choices=("base", "upper", "lower"), default="base")
    p.add_argument(
        "--strict-upper", action="store_true", help="strict upper extent semantics for --approx upper"
    )

    sub.add_parser(
        "assignments", parents=[source, space, cap], help="conceptual assignment maps and kernels"
    )
    sub.add_parser("rough-classes", parents=[source, space, cap], help="rough concept classes")

    p = sub.add_parser("rules", parents=[source, space], help="evaluate an attribute implication")
    p.add_argument("--premise", required=True, metavar="A,B,...")
    p.add_argument("--conclusion", required=True, metavar="A,B,...")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--certain", action="store_true", help="test in the lower approximation")
    group.add_argument("--possible", action="store_true", help="test in the upper approximation")
    group.add_argument("--measure", action="store_true", help="print the exact rough measure")

    p = sub.add_parser("report", parents=[source, space, cap], help="full analysis report as JSON")
    p.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="P=>C",
        help="include this implication in the report (repeatable)",
    )

    p = sub.add_parser("export", parents=[source, space, cap], help="export a lattice diagram")
    p.add_argument("--dot", action="store_true", required=True, help="emit Graphviz DOT text")
    p.add_argument("--labeling", choices=("full", "reduced"), default="full")
    p.add_argument("--which", choices=("base", "upper", "lower"), default="base")

    return parser


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except ValueError as exc:  # a NUL in the path: input that cannot be read, not a bug
        raise OSError(exc) from None


def _load_document(args: argparse.Namespace) -> ContextDocument:
    path = Path(args.context)
    fmt = args.format or guess_format(path.name)
    if fmt is None:
        raise UsageError(f"cannot infer the format of {path.name!r}; pass --format cxt|csv|json")
    return parse_context(_read(path), fmt)


def _load_space(args: argparse.Namespace, doc: ContextDocument) -> ApproximationSpace | None:
    ctx = doc.context
    if args.partition is not None:
        return parse_partition(_read(Path(args.partition)), ctx.objects)
    if args.partition_by is not None:
        names = _attr_list(args.partition_by)
        return ApproximationSpace.from_attribute_classes(ctx, ctx.attribute_set(*names))
    return doc.partition


def _require_space(space: ApproximationSpace | None) -> ApproximationSpace:
    if space is None:
        raise UsageError(
            "this command needs --partition, --partition-by, "
            "or a context file with an embedded partition"
        )
    return space


def _approximated(
    which: str, space: ApproximationSpace | None, ctx: FormalContext
) -> FormalContext:
    """The context itself (``base``), or its upper or lower approximation by the space."""
    if which == "base":
        return ctx
    from .approx import lower_context, upper_context

    approximate = upper_context if which == "upper" else lower_context
    return approximate(_require_space(space), ctx)


def _attr_list(raw: str) -> list[str]:
    return [name.strip() for name in raw.split(",") if name.strip()]


def _format_lattice(lat: ConceptLattice) -> Iterator[str]:
    yield f"concepts {len(lat)}\n"
    for k, (extent, intent) in enumerate(_named_concepts(lat)):
        yield f"{k} extent={{{','.join(extent)}}} intent={{{','.join(intent)}}}\n"
    yield f"covers {len(lat.covers)}\n"
    for low, high in lat.covers:
        yield f"{low} -> {high}\n"


def _parse_rule_option(ctx: FormalContext, raw: str) -> Implication:
    from .rules import Implication

    if "=>" not in raw:
        raise UsageError(f"rule {raw!r} must look like premise=>conclusion")
    premise, conclusion = raw.split("=>", 1)
    return Implication.of(ctx, _attr_list(premise), _attr_list(conclusion))


def _dispatch(args: argparse.Namespace) -> Iterable[str]:
    """The command's output, as pieces of text to write in turn once nothing can fail."""
    command = args.command
    if command == "extent" and args.strict_upper and args.approx != "upper":
        raise UsageError("argument --strict-upper: not allowed without --approx upper")
    doc = _load_document(args)
    ctx = doc.context

    if command == "lattice":
        return _format_lattice(enumerate_concepts(ctx, args.max_concepts))

    # Read a given partition even where the mode ignores it, so a bad one always fails.
    space = _load_space(args, doc)

    if command == "approx":
        return (render_context(ContextDocument(doc.format, _approximated(args.mode, space, ctx))),)

    if command == "definable":
        return (",".join(_names(ctx.attributes, definable_attributes(_require_space(space), ctx))),)

    if command == "extent":
        attrs = ctx.attribute_set(*_attr_list(args.attrs))
        if args.approx == "base":
            result = derive_extent(ctx, attrs)
        else:
            from .approx import extent_lower, extent_upper_free, extent_upper_strict

            if args.approx == "lower":
                compute = extent_lower
            else:
                compute = extent_upper_strict if args.strict_upper else extent_upper_free
            result = compute(_require_space(space), ctx, attrs)
        return (",".join(_names(ctx.objects, result)),)

    if command in ("assignments", "rough-classes"):
        import json

        from .concepts import approximation_maps
        from .report import _kernels_data, _maps_data, _rough_classes_data

        maps = approximation_maps(_require_space(space), ctx, args.max_concepts)
        if command == "rough-classes":
            return (json.dumps(_rough_classes_data(maps), indent=2),)
        return (json.dumps({**_maps_data(maps), "kernels": _kernels_data(maps)}, indent=2),)

    if command == "rules":
        from .rules import Implication, certain_rule, implication_holds, possible_rule, rough_measure

        implication = Implication.of(ctx, _attr_list(args.premise), _attr_list(args.conclusion))
        if args.measure:
            try:
                return (str(rough_measure(ctx, implication).value),)
            except UndefinedMeasureError:
                return ("undefined",)
        if args.certain or args.possible:
            modal = certain_rule if args.certain else possible_rule
            holds = modal(_require_space(space), ctx, implication)
        else:
            holds = implication_holds(ctx, implication)
        return ("true" if holds else "false",)

    if command == "report":
        from .report import report_chunks

        space = _require_space(space)
        rules = [_parse_rule_option(ctx, raw) for raw in args.rule]
        return report_chunks(space, ctx, rules, args.max_concepts)

    if command == "export":
        target = _approximated(args.which, space, ctx)
        return (export_dot(enumerate_concepts(target, args.max_concepts), args.labeling),)

    raise UsageError(f"unknown command {command!r}")  # pragma: no cover


def run_cli(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit status."""
    try:
        output = _dispatch(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Exception as exc:
        for kind, category, code in _FAILURES:
            if isinstance(exc, kind):
                message = str(exc).replace("\n", "\\n").replace("\r", "\\r")
                cut = len(message) - _MAX_MESSAGE
                tail = f"... [{cut} more characters]" if cut > 0 else ""
                print(f"error: {category}: {message[:_MAX_MESSAGE]}{tail}", file=sys.stderr)
                return code
        raise

    try:
        pieces, text = iter(output), ""
        while batch := list(islice(pieces, _CHUNK)):
            text = "".join(batch)
            sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, as ``| head`` does; the exit at shutdown flushes to nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


def main() -> None:
    sys.stdout.reconfigure(encoding="utf-8")  # as the input files are, whatever the locale
    sys.stderr.reconfigure(encoding="utf-8")
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
