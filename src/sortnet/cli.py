"""Command-line front end and the on-disk representations of networks.

Text format, one connector per line::

    snet 1 8
    layer: 0-1 2-3 4-5 6-7
    layer: 0-2! 1-3!

The header carries a format version and the line count; each ``layer:``
record lists its comparator pairs ascending by lower line, ``!`` marking
a flipped (max-up) comparator.  Unconnected lines are implicit, so the
format cannot express a broken link map.  Parsing validates every pair
through the ordinary connector constructor and reports errors with the
offending line number.

Commands: ``gen`` writes a generated network as text or SVG, ``verify``
decides the sorting property (exit 0 sorting, 1 counterexample, 2 usage
or parse error), ``apply`` runs a network on a tuple of integers, and
``stats`` prints layer/comparator counts.
"""

from __future__ import annotations

import argparse
import sys

from .batcher import batcher
from .bitonic import bfsort, bsort
from .core import Connector, Network
from .errors import SortnetError
from .index import MAX_EXPONENT
from .knuth import knuth_exchange
from .verify import (
    _INT64_MAX,
    _INT64_MIN,
    VerificationReport,
    check_sorting_exhaustive,
    check_sorting_oracle,
    network_stats,
)

GENERATOR_NAMES = ("bsort", "bfsort", "knuth", "batcher")


class NetworkParseError(SortnetError):
    """A network file violates the text format; knows its line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class CliError(Exception):
    """Usage-level problem; maps to exit status 2."""


def render_text(network: Network) -> str:
    """Serialize a network in the ``snet`` text format (trailing newline)."""
    lines = [f"snet 1 {network.width}"]
    for layer in network.layers:
        tokens = ["layer:"]
        for low, high, flipped in layer.pairs():
            tokens.append(f"{low}-{high}{'!' if flipped else ''}")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Network:
    """Parse the ``snet`` text format back into a network.

    Inverse of :func:`render_text` on its outputs.  Raises
    :class:`NetworkParseError` with a line number on any malformed
    content; no partially built network ever escapes.
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
    for number, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        if not row.startswith("layer:"):
            raise NetworkParseError(number, f"expected 'layer:' record, got {row!r}")
        pairs = []
        for token in row[len("layer:") :].split():
            flipped = token.endswith("!")
            body = token[:-1] if flipped else token
            low_text, dash, high_text = body.partition("-")
            if (
                not dash
                or not body.isascii()
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
            layers.append(Connector.from_pairs(width, pairs))
        except SortnetError as exc:
            raise NetworkParseError(number, str(exc)) from exc
    return Network(width, tuple(layers))


_SVG_MARGIN_X = 36
_SVG_MARGIN_Y = 22
_SVG_LINE_GAP = 26
_SVG_LAYER_GAP = 52
_SVG_SUB_GAP = 10
_SVG_DOT_RADIUS = 3


def _link_offsets(pairs) -> list[int]:
    # Overlapping links within a layer shift right so they stay readable.
    placed: list[tuple[int, int, int]] = []
    offsets = []
    for low, high, _ in pairs:
        offset = 0
        for plow, phigh, poff in placed:
            if max(low, plow) <= min(high, phigh):
                offset = max(offset, poff + 1)
        placed.append((low, high, offset))
        offsets.append(offset)
    return offsets


def render_svg(network: Network) -> str:
    """Draw a network: horizontal wires, one column of links per layer.

    Flipped comparators carry an arrowhead pointing at the line that
    receives the maximum; plain comparators are bare segments with filled
    endpoints.  The layout is deterministic.
    """
    width = network.width

    columns = []  # (x, pairs, offsets)
    x = _SVG_MARGIN_X
    for layer in network.layers:
        pairs = layer.pairs()
        offsets = _link_offsets(pairs)
        columns.append((x, pairs, offsets))
        x += _SVG_LAYER_GAP + max(offsets, default=0) * _SVG_SUB_GAP
    total_w = x + _SVG_MARGIN_X
    total_h = 2 * _SVG_MARGIN_Y + max(width - 1, 0) * _SVG_LINE_GAP

    def y(line: int) -> int:
        return _SVG_MARGIN_Y + line * _SVG_LINE_GAP

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
    for line in range(width):
        parts.append(
            f'<line class="wire" x1="10" y1="{y(line)}" '
            f'x2="{total_w - 10}" y2="{y(line)}"/>'
        )
    parts.append("</g>")
    for index, (base_x, pairs, offsets) in enumerate(columns):
        parts.append(
            f'<g class="layer" data-index="{index}" stroke="black" '
            'stroke-width="1.5" fill="black">'
        )
        for (low, high, flipped), offset in zip(pairs, offsets):
            cx = base_x + offset * _SVG_SUB_GAP
            parts.append(
                f'<circle cx="{cx}" cy="{y(low)}" r="{_SVG_DOT_RADIUS}"/>'
            )
            parts.append(
                f'<circle cx="{cx}" cy="{y(high)}" r="{_SVG_DOT_RADIUS}"/>'
            )
            if flipped:
                # Maximum travels to the lower-numbered (upper) line.
                parts.append(
                    f'<line class="link" x1="{cx}" y1="{y(high)}" '
                    f'x2="{cx}" y2="{y(low)}" marker-end="url(#flip-arrow)"/>'
                )
            else:
                parts.append(
                    f'<line class="link" x1="{cx}" y1="{y(low)}" '
                    f'x2="{cx}" y2="{y(high)}"/>'
                )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _generate(algorithm: str, m: int, flip: bool = False) -> Network:
    if m < 0:
        raise CliError("m must be nonnegative")
    if m > MAX_EXPONENT:
        raise CliError(f"m must be at most {MAX_EXPONENT}")
    if algorithm == "bsort":
        return bsort(m)
    if algorithm == "bfsort":
        return bfsort(flip, m)
    if algorithm == "knuth":
        return knuth_exchange(m)
    if algorithm == "batcher":
        return batcher(m)
    raise CliError(f"unknown algorithm {algorithm!r}")


def _resolve_network(source: list[str]) -> tuple[Network, int | None]:
    """Interpret positional arguments as either ``FILE`` or ``ALGO M``."""
    if len(source) == 2 and source[0] in GENERATOR_NAMES:
        algo, m_text = source
        try:
            m = int(m_text)
        except ValueError:
            raise CliError(f"m must be an integer, got {m_text!r}") from None
        return _generate(algo, m), m
    if len(source) == 1:
        path = source[0]
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not UTF-8 text ({exc.reason})") from None
        return parse_text(text), None
    raise CliError(
        "expected a network FILE or '<bsort|bfsort|knuth|batcher> <m>'"
    )


def _format_values(values) -> str:
    return ",".join(str(int(v)) for v in values)


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
        raise CliError("--flip only applies to bfsort")
    network = _generate(args.algorithm, args.m, args.flip)
    document = render_svg(network) if args.format == "svg" else render_text(network)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise CliError(str(exc)) from None
    else:
        sys.stdout.write(document)
    return 0


def _cmd_verify(args) -> int:
    network, _ = _resolve_network(args.source)
    if args.oracle is not None:
        if args.oracle < 0:
            raise CliError("TRIALS must be nonnegative")
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
            value = int(piece)
        except ValueError:
            raise CliError(f"bad integer {piece!r} in --input") from None
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise CliError(f"{value} is outside the signed 64-bit range")
        values.append(value)
    if len(values) != network.width:
        raise CliError(
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortnet",
        description="Generate, run, inspect, and verify comparator sorting networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a network and print or save it")
    gen.add_argument("algorithm", choices=GENERATOR_NAMES)
    gen.add_argument("m", type=int, help="size exponent; the network has 2**m lines")
    gen.add_argument(
        "--flip", action="store_true", help="descending orientation (bfsort only)"
    )
    gen.add_argument("--out", metavar="FILE", help="write to FILE instead of stdout")
    gen.add_argument("--format", choices=("text", "svg"), default="text")
    gen.set_defaults(run=_cmd_gen)

    ver = sub.add_parser("verify", help="decide whether a network sorts")
    ver.add_argument("source", nargs="+", metavar="FILE|ALGO M")
    mode = ver.add_mutually_exclusive_group()
    mode.add_argument(
        "--exhaustive",
        action="store_true",
        help="check all boolean inputs (default)",
    )
    mode.add_argument(
        "--oracle",
        type=int,
        metavar="TRIALS",
        help="sampled check: permutations (small widths) plus TRIALS random tuples",
    )
    ver.add_argument("--seed", type=int, default=0, help="seed for --oracle")
    ver.set_defaults(run=_cmd_verify)

    app = sub.add_parser("apply", help="run a network on a tuple of integers")
    app.add_argument("source", nargs="+", metavar="FILE|ALGO M")
    app.add_argument(
        "--input", required=True, metavar="V1,V2,...", help="comma-separated integers"
    )
    app.set_defaults(run=_cmd_apply)

    st = sub.add_parser("stats", help="print layer and comparator counts")
    st.add_argument("source", nargs="+", metavar="FILE|ALGO M")
    st.set_defaults(run=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.run(args)
    except (CliError, SortnetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
