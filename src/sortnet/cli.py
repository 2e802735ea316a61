"""Command-line front end and the on-disk representations of networks.

Text format, one connector per line::

    snet 1 8
    layer: 0-1 2-3 4-5 6-7
    layer: 0-2! 1-3!

The header carries a format version and the line count; each ``layer:``
record lists its comparator pairs ascending by lower line, ``!`` marking
a flipped (max-up) comparator.  Unconnected lines are implicit, so the
format cannot express a broken link map.  One function reads each
record.  A record is first read from its skeleton, the record with its
digits deleted.  If that is ``" -"`` per comparator (``" -!"`` for a
flipped one), the record opens with its space and every ``!`` ends a
token, which is the layout ``render_text`` writes, its names are split
out once and decoded by one table lookup.  Any other record is read one
token at a time.  That reading accepts line names with leading zeros
(``00-1`` joins lines 0 and 1), and names the first fault of any other
record with the offending line number.  Either way the connector is built
through the ordinary, checking constructor.

Commands: ``gen`` writes a generated network as text or SVG, ``verify``
decides the sorting property (exit 0 sorting, 1 counterexample, 2 usage
or parse error), ``apply`` runs a network on a tuple of integers, and
``stats`` prints layer/comparator counts.  ``COMMANDS`` names each once,
with its arguments declared once as the keywords of argparse's
``add_argument``.  A plain call (options spelled in full, once each, and
one run of positionals; see ``_read_call``) is read from those
declarations without argparse, which is neither imported nor built for
it.  Help, no arguments, an unknown command and any other call go
through the full ``build_parser()``, the only place that imports
argparse, whose help and errors name every command.
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import itemgetter
from types import SimpleNamespace

from .batcher import batcher
from .bitonic import bfsort, bsort
from .core import Connector, Network, line_numbers
from .errors import SortnetError
from .index import MAX_EXPONENT, pow2
from .knuth import knuth_exchange
from .verify import (
    _INT64_MAX,
    _INT64_MIN,
    VerificationReport,
    _check_exhaustive_width,
    check_sorting_exhaustive,
    check_sorting_oracle,
    network_stats,
)

#: ``build(m, flip)`` of each generator that ``gen`` and ``ALGO M`` name.
GENERATORS = {
    "bsort": lambda m, flip: bsort(m),
    "bfsort": lambda m, flip: bfsort(flip, m),
    "knuth": lambda m, flip: knuth_exchange(m),
    "batcher": lambda m, flip: batcher(m),
}


# Deletes the ASCII digits of a record, leaving its skeleton.
_NO_DIGITS = str.maketrans("", "", "0123456789")


class NetworkParseError(SortnetError):
    """A network file violates the text format; knows its line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def render_text(network: Network) -> str:
    """Serialize a network in the ``snet`` text format (trailing newline).

    Each line number is formatted once per call; a comparator token is
    then two table lookups and one concatenation.
    """
    names = list(map(str, range(network.width)))
    lows = [name + "-" for name in names]
    marked = [name + "!" for name in names]
    lines = [f"snet 1 {network.width}"]
    for layer in network.layers:
        flip = layer.flip
        tokens = [
            lows[i] + (marked[j] if flip[i] else names[j])
            for i, j in enumerate(layer.link)
            if i < j
        ]
        lines.append(" ".join(["layer:", *tokens]))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Network:
    """Parse the ``snet`` text format back into a network.

    Inverse of :func:`render_text` on its outputs.  Raises
    :class:`NetworkParseError` with a line number on any malformed
    content; no partially built network ever escapes.  The name table
    of :func:`_parse_layer` is built once per file, at its first
    ``layer:`` record.
    """
    rows = text.splitlines()
    if not rows:
        raise NetworkParseError(1, "empty file, expected header 'snet 1 <width>'")
    header = rows[0].split()
    # Numbers are ASCII digits only: str.isdigit() also admits digits such
    # as '²' that int() rejects.
    if (
        len(header) != 3
        or header[0] != "snet"
        or header[1] != "1"
        or not header[2].isascii()
        or not header[2].isdigit()
    ):
        raise NetworkParseError(
            1, f"expected header 'snet 1 <width>', got {rows[0]!r}"
        )
    try:
        width = int(header[2])
    except ValueError:  # more digits than int() converts
        raise NetworkParseError(1, "header width has too many digits") from None
    if width > 1 << MAX_EXPONENT:
        raise NetworkParseError(1, f"width {width} exceeds 2**{MAX_EXPONENT}")
    layers = []
    line_of = None
    for number, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        if not row.startswith("layer:"):
            raise NetworkParseError(number, f"expected 'layer:' record, got {row!r}")
        if line_of is None:
            lines = line_numbers(width)
            line_of = dict(zip(map(str, lines), lines))
        layers.append(_parse_layer(lines, line_of, number, row[len("layer:") :]))
    return Network(width, layers)


def _parse_layer(
    lines: tuple[int, ...], line_of: dict[str, int], number: int, body: str
) -> Connector:
    """The connector of the ``layer:`` record ``body`` on file line ``number``;
    raises :class:`NetworkParseError` naming the first fault.

    ``lines`` is ``line_numbers(width)`` and ``line_of`` maps ``str(i)`` to
    ``i`` for each of them.  A record is first read from its skeleton,
    what is left once its digits are deleted.  If that is ``" -"`` per
    comparator, or ``" -!"`` for a flipped one, the record opens with its
    space and every ``!`` ends a token (the layout :func:`render_text`
    writes), its names are the fields between single spaces and dashes,
    decoded by the table in one call, and must be ``2 * count`` distinct
    lines.  Any other record is read token by token, which builds the
    same connector from names with leading zeros (``00-1``) and names the
    first fault of the rest.
    """
    skeleton = body.translate(_NO_DIGITS)
    count, flipped = skeleton.count(" "), "!" in skeleton
    # The skeleton is " -" or " -!" per comparator, the record opens with
    # its space, and every "!" ends a token.
    if (
        count
        and skeleton.replace("-!", "-") == " -" * count
        and body[0] == " "
        and (not flipped or (body + " ").count("! ") == skeleton.count("!"))
    ):
        fields = body.replace("!", "").replace("-", " ").split(" ")
        try:
            names = itemgetter(*fields[1:])(line_of)
        except KeyError:  # an empty name, a leading zero or a line out of range
            names = ()
        if len(set(names)) == 2 * count:
            link, flip = list(lines), [False] * len(lines)
            for low, high in zip(names[0::2], names[1::2]):
                link[low], link[high] = high, low
            if flipped:  # else every flag stays False
                flags = map("-!".__eq__, skeleton[1:].split(" "))
                for low, high, marked in zip(names[0::2], names[1::2], flags):
                    flip[low] = flip[high] = marked
            return Connector(len(lines), link, flip)
    tokens = body.split()
    # A record without "!" flips nothing: skip the per-token pass.
    flags = (
        list(map(str.endswith, tokens, repeat("!"))) if "!" in body
        else [False] * len(tokens)
    )
    pairs = []
    for token, flipped in zip(tokens, flags):
        token_body = token[:-1] if flipped else token
        low_text, dash, high_text = token_body.partition("-")
        if (
            not dash
            or not token_body.isascii()
            or not low_text.isdigit()
            or not high_text.isdigit()
        ):
            raise NetworkParseError(number, f"bad comparator token {token!r}")
        try:
            pairs.append((int(low_text), int(high_text), flipped))
        except ValueError:  # more digits than int() converts
            raise NetworkParseError(
                number, "comparator index has too many digits"
            ) from None
    try:
        return Connector.from_pairs(len(lines), pairs)
    except SortnetError as exc:
        raise NetworkParseError(number, str(exc)) from exc


_SVG_MARGIN_X = 36
_SVG_MARGIN_Y = 22
_SVG_LINE_GAP = 26
_SVG_LAYER_GAP = 52
_SVG_SUB_GAP = 10
_SVG_DOT_RADIUS = 3


def render_svg(network: Network) -> str:
    """Draw a network: horizontal wires, one column of links per layer.

    Flipped comparators carry an arrowhead pointing at the line that
    receives the maximum; plain comparators are bare segments with filled
    endpoints.  The layout is deterministic.
    """
    width = network.width
    y = [_SVG_MARGIN_Y + line * _SVG_LINE_GAP for line in range(width)]
    # A dot's centre height and radius depend on its line alone.
    dot = [f' cy="{cy}" r="{_SVG_DOT_RADIUS}"/>' for cy in y]
    groups = []  # drawn after the header and wires, which need the final width
    x = _SVG_MARGIN_X
    for index, layer in enumerate(network.layers):
        groups.append(
            f'<g class="layer" data-index="{index}" stroke="black" '
            'stroke-width="1.5" fill="black">'
        )
        # Overlapping links within a layer shift right so they stay
        # readable: one step right of the rightmost earlier link they
        # overlap.  Pairs come ascending by low line, so an earlier link
        # overlaps exactly when it reaches this low line, and once it does
        # not it overlaps no later link.  ``reach`` holds the high lines of
        # the open links, the one at position k drawn at offset k.
        reach: list[int] = []
        right = x  # the x of the rightmost link so far
        for low, high, flipped in layer.pairs():
            while reach and reach[-1] < low:
                reach.pop()
            cx = x + len(reach) * _SVG_SUB_GAP
            if cx > right:
                right = cx
            reach.append(high)
            # Flipped: the arrowhead marks the upper line, which gets the maximum.
            start, end = (high, low) if flipped else (low, high)
            marker = ' marker-end="url(#flip-arrow)"' if flipped else ""
            groups += (
                f'<circle cx="{cx}"{dot[low]}',
                f'<circle cx="{cx}"{dot[high]}',
                f'<line class="link" x1="{cx}" y1="{y[start]}" '
                f'x2="{cx}" y2="{y[end]}"{marker}/>',
            )
        groups.append("</g>")
        x = right + _SVG_LAYER_GAP
    total_w = x + _SVG_MARGIN_X
    total_h = 2 * _SVG_MARGIN_Y + max(width - 1, 0) * _SVG_LINE_GAP
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">',
        "<defs>",
        '<marker id="flip-arrow" markerWidth="8" markerHeight="8" refX="7" '
        'refY="4" orient="auto" markerUnits="userSpaceOnUse">'
        '<path d="M 0 0 L 8 4 L 0 8 z"/></marker>',
        "</defs>",
        '<g class="wires" stroke="black" stroke-width="1.5">',
    ]
    parts += [
        f'<line class="wire" x1="10" y1="{cy}" x2="{total_w - 10}" y2="{cy}"/>'
        for cy in y
    ]
    parts += ["</g>", *groups, "</svg>"]
    return "\n".join(parts) + "\n"


def _resolve_network(
    source: list[str], exhaustive: bool = False
) -> tuple[Network, int | None]:
    """Interpret positional arguments as either ``FILE`` or ``ALGO M``.

    ``M`` is refused by :func:`pow2`, the generators' own guard, before
    any network is built: "m must be nonnegative" below 0 and "m must be
    at most 16" above ``MAX_EXPONENT``.  With ``exhaustive``, a width the
    exhaustive check would refuse is refused next, also before building.
    """
    if len(source) == 2 and source[0] in GENERATORS:
        algo, m_text = source
        try:
            m = int(m_text)
        except ValueError:
            raise SortnetError(f"m must be an integer, got {m_text!r}") from None
        if exhaustive:
            _check_exhaustive_width(pow2(m))
        return GENERATORS[algo](m, False), m
    if len(source) == 1:
        path = source[0]
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SortnetError(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise SortnetError(f"{path}: not UTF-8 text ({exc.reason})") from None
        return parse_text(text), None
    raise SortnetError(f"expected a network FILE or '<{'|'.join(GENERATORS)}> <m>'")


def _format_values(values) -> str:
    return ",".join(map(str, map(int, values)))


def _print_report(report: VerificationReport) -> None:
    print(f"mode: {report.mode}")
    if report.mode == "sampled":
        print(f"seed: {report.seed}")
        print(f"trials: {report.trials}")
    print(f"width: {report.width}")
    print(f"inputs checked: {report.inputs_checked}")
    if report.is_sorting:
        print("result: sorting")
    else:
        print("result: counterexample")
        print(f"input: {_format_values(report.counterexample.input)}")
        print(f"output: {_format_values(report.counterexample.output)}")


def _cmd_gen(args) -> int:
    if args.flip and args.algorithm != "bfsort":
        raise SortnetError("--flip only applies to bfsort")
    network = GENERATORS[args.algorithm](args.m, args.flip)
    document = render_svg(network) if args.format == "svg" else render_text(network)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise SortnetError(str(exc)) from None
    else:
        sys.stdout.write(document)
    return 0


def _cmd_verify(args) -> int:
    network, _ = _resolve_network(args.source, exhaustive=args.oracle is None)
    if args.oracle is not None:
        if args.oracle < 0:
            raise SortnetError("TRIALS must be nonnegative")
        report = check_sorting_oracle(network, args.oracle, args.seed)
    else:
        report = check_sorting_exhaustive(network)
    _print_report(report)
    return 0 if report.is_sorting else 1


def _cmd_apply(args) -> int:
    network, _ = _resolve_network(args.source)
    text = args.input.strip()
    pieces = [piece.strip() for piece in text.split(",")] if text else []
    values = []
    for piece in pieces:
        try:
            # A sign and ASCII digits, as in files; int() also takes "_" and any digit.
            if not (piece.isascii() and piece.lstrip("+-").isdigit()):
                raise ValueError
            value = int(piece)
        except ValueError:
            raise SortnetError(f"bad integer {piece!r} in --input") from None
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise SortnetError(f"{value} is outside the signed 64-bit range")
        values.append(value)
    if len(values) != network.width:
        raise SortnetError(
            f"expected {network.width} comma-separated values, got {len(values)}"
        )
    print(_format_values(network.apply(tuple(values))))
    return 0


def _cmd_stats(args) -> int:
    network, m = _resolve_network(args.source)
    stats = network_stats(network)
    print(f"layers: {stats.layers}")
    print(f"comparators: {stats.comparators}")
    print(f"width: {network.width}")
    if m is not None:
        print(f"closed-form layers: {m * (m + 1) // 2}")
    return 0


_SOURCE = ("source", {"nargs": "+", "metavar": "FILE|ALGO M"})
#: The options of which a call may give one: ``verify``'s two modes.
_MODES = ("--exhaustive", "--oracle")

#: ``(help, arguments, run(args))`` of each command.  Each argument is the
#: name and the keywords of its ``add_argument`` call in ``build_parser``;
#: ``_read_call`` reads the same declarations.
COMMANDS = {
    "gen": ("generate a network and print or save it", (
        ("algorithm", {"choices": GENERATORS}),
        ("m", {"type": int, "help": "size exponent; the network has 2**m lines"}),
        ("--flip", {
            "action": "store_true", "help": "descending orientation (bfsort only)"
        }),
        ("--out", {"metavar": "FILE", "help": "write to FILE instead of stdout"}),
        ("--format", {"choices": ("text", "svg"), "default": "text"}),
    ), _cmd_gen),
    "verify": ("decide whether a network sorts", (
        _SOURCE,
        ("--exhaustive", {
            "action": "store_true", "help": "check all boolean inputs (default)"
        }),
        ("--oracle", {"type": int, "metavar": "TRIALS", "help": (
            "sampled check: TRIALS seeded random tuples above width 8; up to "
            "width 8 the boolean check decides, and a network that fails runs "
            "the permutations"
        )}),
        ("--seed", {"type": int, "default": 0, "help": "seed for --oracle"}),
    ), _cmd_verify),
    "apply": ("run a network on a tuple of integers", (
        _SOURCE,
        ("--input", {
            "required": True, "metavar": "V1,V2,...", "help": "comma-separated integers"
        }),
    ), _cmd_apply),
    "stats": ("print layer and comparator counts", (_SOURCE,), _cmd_stats),
}


def _read_call(name: str, words: list) -> SimpleNamespace | None:
    """The arguments of a plain call of command ``name``, ``words`` the
    words after the name, as its sub-parser in ``build_parser`` reads
    them; None for any other call, which argparse then reads.

    A call is plain when every word is a string, every option is spelled
    in full and given at most once, a flag (``store_true``) has no ``=``,
    a valued option is ``--opt=VALUE`` (VALUE not ``--``) or ``--opt
    VALUE`` (VALUE not starting with ``-``), the positionals form one
    unbroken run and none starts with ``-``, the required options are
    given, at most one of ``_MODES`` is, and every value converts by its
    ``type`` and is among its ``choices``.  An option's dest is its name
    without the dashes, and its default ``False`` for a flag.  ``--help``,
    abbreviations, ``--``, values with a leading minus and every error
    are left to argparse.
    """
    declared = dict(COMMANDS[name][1])
    positionals = [argument for argument in declared if argument[0] != "-"]
    if not all(isinstance(word, str) for word in words):
        return None
    given, run, closed, pending = {}, [], False, iter(words)
    for word in pending:
        if not word.startswith("-"):
            if closed:  # a second run of positionals
                return None
            run.append(word)
            continue
        option, equals, value = word.partition("=")
        closed, keywords = bool(run), declared.get(option)
        if keywords is None or option in given or equals and "action" in keywords:
            return None
        if "action" not in keywords and not equals:
            value = next(pending, "-")
        # argparse alone decides what "--opt -x" means, and drops the "--"
        # of "--opt=--".
        if value.startswith("-") and not equals or value == "--":
            return None
        given[option] = True if "action" in keywords else value
    if "nargs" in declared[positionals[0]] and run:  # ``source`` takes the run
        run = [run]
    required = {
        option for option, keywords in declared.items() if keywords.get("required")
    }
    if (len(run) != len(positionals) or not given.keys() >= required
            or len(given.keys() & set(_MODES)) > 1):
        return None
    args = {option[2:]: keywords.get("default", False if "action" in keywords else None)
            for option, keywords in declared.items() if option[0] == "-"}
    for argument, value in [*zip(positionals, run), *given.items()]:
        keywords = declared[argument]
        try:
            value = keywords["type"](value) if "type" in keywords else value
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[argument.lstrip("-")] = value
    return SimpleNamespace(**args)


def build_parser():
    """The CLI's parser, with the sub-parser of every command; the only
    place that imports ``argparse``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sortnet",
        description="Generate, run, inspect, and verify comparator sorting networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, _) in COMMANDS.items():
        command, modes = sub.add_parser(name, help=summary), None
        for argument, keywords in arguments:
            if argument in _MODES:
                modes = modes or command.add_mutually_exclusive_group()
            (modes if argument in _MODES else command).add_argument(argument, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    args = _read_call(name, argv[1:]) if name in COMMANDS else None
    if args is None:
        # Help, no arguments, an unknown command and any call that is not
        # plain: argparse reads it, and its help and errors name every
        # command.
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else int(exc.code)
        name = args.command
    try:
        return COMMANDS[name][2](args)
    except SortnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
