"""Reading and writing contexts, partitions, and DOT diagrams.

Three context formats are supported: Burmeister ``.cxt`` (the FCA
interchange format), CSV with X/blank cells, and a self-describing JSON
document that can also embed a partition.  All renderers are
deterministic, and their output parses back to the same context, except
that the ``.cxt`` and CSV parsers strip surrounding whitespace from names
(a name that strips to empty or to another name is then rejected), and
a ``.cxt`` file cannot hold a name with a line break.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Iterable

from ._record import Record
from .context import ApproximationSpace, FormalContext, _names, _uncovered_message
from .errors import ParseError, RoughConceptsError

if TYPE_CHECKING:
    from .lattice import ConceptLattice

FORMATS = ("cxt", "csv", "json")
_EXTENSIONS = {".cxt": "cxt", ".csv": "csv", ".json": "json"}


class ContextDocument(Record):
    """A parsed context file: the context plus an optional embedded partition.

    Only the JSON format can carry a partition section.
    """

    format: str
    context: FormalContext
    partition: ApproximationSpace | None = None

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.partition is not None:
            if self.format != "json":
                raise ValueError(f"the {self.format} format cannot carry a partition")
            if self.partition.objects != self.context.objects:
                raise ValueError("embedded partition names a different object universe")


def guess_format(filename: str) -> str | None:
    """Format tag implied by the file extension, or None."""
    lowered = filename.lower()
    for extension, fmt in _EXTENSIONS.items():
        if lowered.endswith(extension):
            return fmt
    return None


def _text(data: str | bytes) -> str:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    return data.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _checked_name(raw: str, seen: set[str], kind: str, line: int, column: int | None = None) -> str:
    """The stripped name, new to ``seen``; an empty or repeated one fails at its position."""
    name = raw.strip()
    if not name:
        raise ParseError(f"empty {kind} name", line=line, column=column)
    if name in seen:
        raise ParseError(f"duplicate {kind} name {name!r}", line=line, column=column)
    seen.add(name)
    return name


def parse_context(data: str | bytes, format: str) -> ContextDocument:
    """Parse context data in the given format into a :class:`ContextDocument`."""
    text = _text(data)
    if format == "cxt":
        return ContextDocument("cxt", _parse_cxt(text))
    if format == "csv":
        return ContextDocument("csv", _parse_csv(text))
    if format == "json":
        ctx, partition = _parse_json(text)
        return ContextDocument("json", ctx, partition)
    raise ValueError(f"unknown format {format!r}")


def render_context(doc: ContextDocument) -> str:
    """Deterministic text for the document; the module notes say which names do not survive."""
    if doc.format == "cxt":
        return _render_cxt(doc.context)
    if doc.format == "csv":
        return _render_csv(doc.context)
    return _render_json(doc)


# -- Burmeister .cxt -----------------------------------------------------------


def _parse_cxt(text: str) -> FormalContext:
    lines = text.split("\n")

    def take(position: int, description: str) -> str:
        if position >= len(lines):
            raise ParseError(f"unexpected end of file, expected {description}", line=len(lines))
        return lines[position]

    if take(0, "header 'B'").strip() != "B":
        raise ParseError("expected header 'B'", line=1)
    if take(1, "blank line").strip():
        raise ParseError("expected blank line after header", line=2)

    def count(position: int, what: str) -> int:
        raw = take(position, f"{what} count").strip()
        try:
            if raw.isdigit():
                return int(raw)
        except ValueError:  # a digit int() rejects, such as '²', or too many digits
            pass
        raise ParseError(f"missing or invalid {what} count", line=position + 1)

    n_objects = count(2, "object")
    n_attributes = count(3, "attribute")
    if take(4, "blank line").strip():
        raise ParseError("expected blank line after counts", line=5)

    def names(start: int, n: int, kind: str) -> list[str]:
        seen: set[str] = set()
        return [
            _checked_name(take(k, f"{kind} name"), seen, kind, k + 1)
            for k in range(start, start + n)
        ]

    objects = names(5, n_objects, "object")
    attributes = names(5 + n_objects, n_attributes, "attribute")

    row_start = 5 + n_objects + n_attributes
    rows: list[set[int]] = []
    for g in range(n_objects):
        line_no = row_start + g + 1
        raw = take(row_start + g, "incidence row").rstrip()
        if len(raw) != n_attributes:
            raise ParseError(
                f"incidence row {g + 1} has {len(raw)} cells, expected {n_attributes}",
                line=line_no,
            )
        row: set[int] = set()
        for m, char in enumerate(raw):
            if char == "X":
                row.add(m)
            elif char != ".":
                raise ParseError(
                    f"unexpected character {char!r} in incidence row",
                    line=line_no,
                    column=m + 1,
                )
        rows.append(row)

    for extra, line in enumerate(lines[row_start + n_objects :]):
        if line.strip():
            raise ParseError(
                f"unexpected extra incidence row {n_objects + 1}",
                line=row_start + n_objects + extra + 1,
            )

    return FormalContext(tuple(objects), tuple(attributes), tuple(frozenset(r) for r in rows))


def _render_cxt(ctx: FormalContext) -> str:
    for name in ctx.objects + ctx.attributes:  # one name a line, so a line break would split it
        if "\n" in name or "\r" in name:
            raise ValueError(f"name {name!r} contains a line break, which a .cxt file cannot hold")
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for row in ctx.rows:
        out.append("".join("X" if m in row else "." for m in range(len(ctx.attributes))))
    return "\n".join(out) + "\n"


# -- CSV -------------------------------------------------------------------


def _parse_csv(text: str) -> FormalContext:
    import csv

    reader = csv.reader(io.StringIO(text))
    try:
        table = list(reader)
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}", line=reader.line_num) from None
    if not table or not table[0]:
        raise ParseError("missing header row", line=1)
    header = table[0]
    seen: set[str] = set()
    attributes = [
        _checked_name(cell, seen, "attribute", 1, j) for j, cell in enumerate(header[1:], start=2)
    ]

    objects: list[str] = []
    rows: list[set[int]] = []
    seen_objects: set[str] = set()
    for i, record in enumerate(table[1:], start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise ParseError(
                f"row has {len(record)} cells, expected {len(header)}", line=i
            )
        name = _checked_name(record[0], seen_objects, "object", i, 1)
        row: set[int] = set()
        for j, cell in enumerate(record[1:], start=2):
            mark = cell.strip()
            if mark in ("X", "x"):
                row.add(j - 2)
            elif mark:
                raise ParseError(f"unexpected cell value {cell!r}", line=i, column=j)
        objects.append(name)
        rows.append(row)

    return FormalContext(tuple(objects), tuple(attributes), tuple(frozenset(r) for r in rows))


def _render_csv(ctx: FormalContext) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([""] + list(ctx.attributes))
    for g, row in enumerate(ctx.rows):
        writer.writerow(
            [ctx.objects[g]] + ["X" if m in row else "" for m in range(len(ctx.attributes))]
        )
    return buffer.getvalue()


# -- JSON -------------------------------------------------------------------


def _string_list(data: dict, key: str) -> list[str]:
    value = data.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{key!r} must be an array of strings")
    for name in value:  # JSON escapes can spell lone surrogates, which no output can encode
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{key!r} name {name!r} cannot be encoded as UTF-8") from None
    return value


def _parse_json(text: str) -> tuple[FormalContext, ApproximationSpace | None]:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # the one other fault json.loads raises: an integer of too many digits
        raise ParseError("invalid JSON: integer has too many digits") from None
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    unknown = set(data) - {"objects", "attributes", "incidence", "partition"}
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")

    objects = _string_list(data, "objects")
    attributes = _string_list(data, "attributes")
    incidence = data.get("incidence", [])
    if not isinstance(incidence, list):
        raise ParseError("'incidence' must be an array of [object, attribute] pairs")
    pairs: list[tuple[str, str]] = []
    for k, entry in enumerate(incidence):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise ParseError(f"incidence[{k}] must be an [object, attribute] name pair")
        pairs.append((entry[0], entry[1]))
    raw_partition = data.get("partition")
    try:
        context = FormalContext.from_pairs(objects, attributes, pairs)
        if raw_partition is None:
            return context, None
        if not isinstance(raw_partition, list) or not all(
            isinstance(block, list) and all(isinstance(x, str) for x in block)
            for block in raw_partition
        ):
            raise ParseError("'partition' must be an array of arrays of object names")
        return context, ApproximationSpace.from_names(objects, raw_partition)
    except ParseError:
        raise
    except RoughConceptsError as exc:  # a name or partition fault in the document
        raise ParseError(str(exc)) from None


def _context_data(ctx: FormalContext) -> dict:
    return {
        "objects": list(ctx.objects),
        "attributes": list(ctx.attributes),
        "incidence": [[ctx.objects[g], ctx.attributes[m]] for g, m in ctx.pairs()],
    }


def _blocks_data(space: ApproximationSpace) -> list[list[str]]:
    return [list(_names(space.objects, block)) for block in space.blocks]


def _render_json(doc: ContextDocument) -> str:
    import json

    payload = _context_data(doc.context)
    if doc.partition is not None:
        payload["partition"] = _blocks_data(doc.partition)
    return json.dumps(payload, indent=2) + "\n"


# -- partitions -----------------------------------------------------------


def parse_partition(data: str | bytes, objects: Iterable[str]) -> ApproximationSpace:
    """Parse a block list over the given objects into an approximation space.

    Accepts one comma-separated block per line, or brace-delimited
    blocks which may share a line; ``#`` starts a comment.  The blocks
    must use every object exactly once.
    """
    text = _text(data)
    universe = tuple(objects)
    known = set(universe)
    blocks: list[list[str]] = []
    seen: dict[str, int] = {}

    def add_block(raw: str, line_no: int) -> None:
        names = [part.strip() for part in raw.split(",")]
        names = [name for name in names if name]
        if not names:
            raise ParseError("empty block", line=line_no)
        for name in names:
            if name not in known:
                raise ParseError(f"unknown object name {name!r}", line=line_no)
            if name in seen:
                raise ParseError(
                    f"object {name!r} already placed in a block on line {seen[name]}",
                    line=line_no,
                )
            seen[name] = line_no
        blocks.append(names)

    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "{" in line or "}" in line:
            rest = line
            while "{" in rest:
                open_at = rest.index("{")
                close_at = rest.find("}", open_at)
                if close_at < 0:
                    raise ParseError("unclosed '{' in block list", line=line_no)
                if rest[:open_at].strip(", "):
                    raise ParseError("unexpected text outside braces", line=line_no)
                add_block(rest[open_at + 1 : close_at], line_no)
                rest = rest[close_at + 1 :]
            if rest.strip(", "):
                raise ParseError("unexpected text outside braces", line=line_no)
        else:
            add_block(line, line_no)

    missing = [name for name in universe if name not in seen]
    if missing:
        raise ParseError(_uncovered_message(missing))
    return ApproximationSpace.from_names(universe, blocks)


# -- DOT export ----------------------------------------------------------------


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(lattice: ConceptLattice, labeling: str = "full") -> str:
    """Graphviz text for the Hasse diagram: one node per concept, one edge per cover.

    ``full`` labels every node with its whole extent and intent;
    ``reduced`` prints each attribute only at its attribute concept and
    each object only at its object concept, diagram style.
    """
    if labeling not in ("full", "reduced"):
        raise ValueError(f"unknown labeling {labeling!r}")
    ctx = lattice.context
    labels: list[str] = []
    if labeling == "full":
        from .lattice import _named_concepts

        for extent, intent in _named_concepts(lattice, _dot_escape):
            labels.append(f"{{{', '.join(intent)}}}\\n{{{', '.join(extent)}}}")
    else:
        attr_home: list[list[str]] = [[] for _ in range(len(lattice))]
        for m, column in enumerate(ctx._col_masks):
            attr_home[lattice._extent_index[column]].append(ctx.attributes[m])
        object_home: list[list[str]] = [[] for _ in range(len(lattice))]
        for g, closure in enumerate(ctx._object_closures):
            object_home[lattice._extent_index[closure]].append(ctx.objects[g])
        for attr_names, object_names in zip(attr_home, object_home):
            attrs = _dot_escape(", ".join(attr_names))
            objs = _dot_escape(", ".join(object_names))
            labels.append(f"{attrs}\\n{objs}" if attrs and objs else attrs or objs)

    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    lines.extend(f'  c{k} [label="{label}"];' for k, label in enumerate(labels))
    for low, high in lattice.covers:
        lines.append(f"  c{low} -> c{high};")
    lines.append("}")
    return "\n".join(lines) + "\n"
