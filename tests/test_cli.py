"""Text format round-trips, SVG rendering, and command-line behaviour."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortnet import cli
from sortnet.batcher import batcher
from sortnet.bitonic import bfsort, bsort
from sortnet.cli import (
    NetworkParseError,
    main,
    parse_text,
    render_svg,
    render_text,
)
from sortnet.combinators import cswap
from sortnet.core import Connector, Network
from sortnet.knuth import knuth_exchange
from sortnet.verify import network_stats
from spec import parse_text_spec

GENERATORS = {
    "bsort": bsort,
    "bfsort": lambda m: bfsort(False, m),
    "knuth": knuth_exchange,
    "batcher": batcher,
}


def test_render_text_examples():
    assert render_text(bsort(1)) == "snet 1 2\nlayer: 0-1\n"
    assert render_text(Network(4, ())) == "snet 1 4\n"
    assert render_text(bfsort(True, 1)) == "snet 1 2\nlayer: 0-1!\n"


def test_render_text_identity_layer_keeps_its_line():
    net = Network(3, (cswap(0, 1, 3), Connector.identity(3)))
    text = render_text(net)
    assert text == "snet 1 3\nlayer: 0-1\nlayer:\n"
    assert parse_text(text) == net


def test_round_trip_on_all_generators():
    for name, build in GENERATORS.items():
        for m in range(7):
            net = build(m)
            assert parse_text(render_text(net)) == net, (name, m)
    flipped = bfsort(True, 4)
    assert parse_text(render_text(flipped)) == flipped


def test_parse_reports_line_numbers():
    with pytest.raises(NetworkParseError, match="line 1"):
        parse_text("net 1 4\n")
    with pytest.raises(NetworkParseError, match="line 1"):
        parse_text("")
    with pytest.raises(NetworkParseError, match="line 2"):
        parse_text("snet 1 4\nlayer: 0-9\n")
    with pytest.raises(NetworkParseError, match="line 3"):
        parse_text("snet 1 4\nlayer: 0-1\nlayer: 0-1 1-2\n")
    with pytest.raises(NetworkParseError, match="line 2"):
        parse_text("snet 1 4\nlayer: 1-1\n")
    with pytest.raises(NetworkParseError, match="line 2"):
        parse_text("snet 1 4\nlayer: 0:1\n")
    with pytest.raises(NetworkParseError, match="line 2"):
        parse_text("snet 1 4\nconnector: 0-1\n")


def test_parse_builds_no_name_table_without_a_record(monkeypatch):
    # The name table costs ``width`` entries, which a file without a
    # ``layer:`` record never uses.
    monkeypatch.setattr(cli, "line_numbers", None)
    assert parse_text("snet 1 65536\n\n") == Network(65536, ())


# Rows of a ``layer:`` record: line names with and without leading zeros,
# dashes, marks and the separators ``str.split`` and ``str.splitlines``
# treat specially, either loose or arranged as comparator tokens.
_PARSE_ALPHABET = "0123456789-! \t\x1c\xa0\u00b2\u0663"
_LINE_NAME = st.builds(
    "{}{}".format, st.sampled_from(["", "", "", "0"]), st.integers(0, 13)
)
_PARSE_TOKEN = st.builds(
    "{}{}".format,
    st.lists(st.one_of(_LINE_NAME, st.just("")), min_size=1, max_size=3).map("-".join),
    st.sampled_from(["", "", "!"]),
)
_PARSE_ROW = st.one_of(
    st.text(_PARSE_ALPHABET, max_size=24),
    st.lists(
        st.tuples(
            st.sampled_from([" ", " ", " ", "\t", "\xa0", "\x1c"]),
            _PARSE_TOKEN,
        ),
        max_size=7,
    ).map(lambda parts: "".join(sep + token for sep, token in parts)),
)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except NetworkParseError as exc:
        return str(exc), exc.line_number


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 12), st.lists(_PARSE_ROW.map("layer:{}".format), max_size=4))
@example(4, ["layer: 0-1-2 3"])
@example(4, ["layer: 0!-1"])
@example(4, ["layer: 1-0"])
@example(4, ["layer: 0-1!!"])
@example(4, ["layer: 00-1"])
@example(4, ["layer:0-1"])
@example(4, ["layer: 0- -1"])
@example(4, ["layer: 2-2"])
@example(4, ["layer: 0-1 1-2"])
@example(4, ["layer: 0-1-2 3-"])
@example(4, ["layer: 1 2-3-0"])
@example(4, ["layer: 3-1! 0-2", "layer: 0-\u00b2"])
def test_parse_text_matches_the_per_token_spec(width, rows):
    # Same network on acceptance; same message and line number on
    # rejection.  The last three examples have as many fields as a
    # well-formed record but a token with two dashes.
    text = "\n".join([f"snet 1 {width}", *rows]) + "\n"
    assert _parse_outcome(parse_text, text) == _parse_outcome(parse_text_spec, text)


_MALFORMED = {
    "bad-header": (
        b"snet 2 4\nlayer: 0-1\n",
        "line 1: expected header 'snet 1 <width>', got 'snet 2 4'",
    ),
    "out-of-range": (b"snet 1 4\nlayer: 0-4\n", "line 2: line 4 not in [0, 4)"),
    "reused-line": (
        b"snet 1 4\nlayer: 0-1 1-2\n",
        "line 2: line 1 appears in more than one pair",
    ),
    "self-pair": (b"snet 1 4\nlayer: 2-2\n", "line 2: pair links line 2 to itself"),
    "superscript": (
        "snet 1 4\nlayer: 0-\u00b2\n".encode(),
        "line 2: bad comparator token '0-\u00b2'",
    ),
    "non-utf8": (
        b"snet 1 4\nlayer: 0-1 \xff\xfe\n",
        "{path}: not UTF-8 text (invalid start byte)",
    ),
}


@pytest.mark.parametrize("name", _MALFORMED)
@pytest.mark.parametrize(
    "command",
    [["verify"], ["verify", "--oracle", "5"], ["apply", "--input=1,2,3,4"], ["stats"]],
    ids=["verify", "oracle", "apply", "stats"],
)
def test_malformed_files_exit_2_naming_the_fault(tmp_path, name, command):
    content, message = _MALFORMED[name]
    path = tmp_path / f"{name}.snet"
    path.write_bytes(content)
    argv = [command[0], str(path), *command[1:]]
    assert _run(argv) == (2, "", f"error: {message.format(path=path)}\n")


def test_parse_accepts_blank_lines_and_header_width_zero():
    assert parse_text("snet 1 0\n") == Network(0, ())
    assert parse_text("snet 1 2\n\nlayer: 0-1\n\n").size == 1


def test_svg_empty_network_has_wires_but_no_links():
    svg = render_svg(Network(4, ()))
    assert svg.count('class="wire"') == 4
    assert 'class="link"' not in svg
    ET.fromstring(svg)


def test_svg_bsort3_counts():
    svg = render_svg(bsort(3))
    assert svg.count('<g class="layer"') == 6
    assert svg.count('class="link"') == 24
    assert "marker-end" not in svg
    ET.fromstring(svg)


def test_svg_marks_each_flipped_pair_once():
    net = bfsort(True, 2)
    flipped_pairs = sum(
        1 for layer in net.layers for _, _, flip in layer.pairs() if flip
    )
    svg = render_svg(net)
    assert svg.count("marker-end") == flipped_pairs
    ET.fromstring(svg)


def test_gen_text_to_stdout(capsys):
    assert main(["gen", "bsort", "1"]) == 0
    assert capsys.readouterr().out == "snet 1 2\nlayer: 0-1\n"


def test_gen_flip_builds_descending_bfsort(capsys):
    assert main(["gen", "bfsort", "1", "--flip"]) == 0
    assert capsys.readouterr().out == "snet 1 2\nlayer: 0-1!\n"


def test_gen_flip_rejected_elsewhere(capsys):
    assert main(["gen", "bsort", "1", "--flip"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_svg_format(capsys):
    assert main(["gen", "batcher", "2", "--format", "svg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<?xml")
    ET.fromstring(out)


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "net.snet"
    assert main(["gen", "knuth", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert parse_text(target.read_text()) == knuth_exchange(2)


def test_gen_rejects_bad_exponent(capsys):
    assert main(["gen", "bsort", "-1"]) == 2
    assert main(["gen", "bsort", "31"]) == 2
    capsys.readouterr()


def test_gen_rejects_unknown_algorithm(capsys):
    assert main(["gen", "quicksort", "2"]) == 2
    capsys.readouterr()


def test_verify_rejects_unknown_algorithm(capsys):
    assert main(["verify", "quicksort", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_generated_network_exhaustive(capsys):
    assert main(["verify", "bsort", "4", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "result: sorting" in out
    assert "inputs checked: 65536" in out


def test_verify_defaults_to_exhaustive(capsys):
    assert main(["verify", "batcher", "2"]) == 0
    assert "mode: exhaustive" in capsys.readouterr().out


def test_verify_counterexample_from_file(tmp_path, capsys):
    path = tmp_path / "empty.snet"
    path.write_text("snet 1 2\n")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "result: counterexample" in out
    assert "input: 1,0" in out
    assert "output: 1,0" in out


def test_verify_oracle_mode(capsys):
    assert main(["verify", "batcher", "2", "--oracle", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "mode: sampled" in out
    assert "seed: 7" in out
    assert "trials: 10" in out
    assert "inputs checked: 34" in out  # 24 permutations + 10 trials


def test_verify_oracle_and_exhaustive_conflict(capsys):
    assert main(["verify", "bsort", "2", "--exhaustive", "--oracle", "5"]) == 2
    capsys.readouterr()


def test_verify_width_beyond_guard_is_usage_error(tmp_path, capsys):
    path = tmp_path / "wide.snet"
    path.write_text("snet 1 25\n")
    assert main(["verify", str(path), "--exhaustive"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["bsort", "bfsort", "knuth", "batcher"])
def test_verify_refuses_wide_generator_before_building(monkeypatch, capsys, algo):
    # Building bsort(16) alone takes seconds; the guard must come first.
    def refuse(*args):
        raise AssertionError("generator called")

    for name in cli.GENERATORS:
        monkeypatch.setitem(cli.GENERATORS, name, refuse)
    assert main(["verify", algo, "5"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: width 32 exceeds exhaustive guard 24\n")
    # The checks on M keep their precedence, and --oracle has no guard.
    assert main(["verify", algo, "17"]) == 2
    assert capsys.readouterr().err == "error: m must be at most 16\n"
    assert main(["verify", algo, "-1"]) == 2
    assert capsys.readouterr().err == "error: m must be nonnegative\n"
    with pytest.raises(AssertionError, match="generator called"):
        main(["verify", algo, "5", "--oracle", "0"])


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.snet"
    path.write_text("snet 1 4\nlayer: 0-4\n")
    assert main(["verify", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, line",
    [
        (b"snet 1 \xc2\xb2\n", "line 1"),  # superscript two as the width
        (b"snet 1 4\nlayer: 0-\xc2\xb2\n", "line 2"),  # ... as a line index
    ],
    ids=["header", "comparator"],
)
def test_verify_rejects_non_ascii_digits(tmp_path, capsys, content, line):
    path = tmp_path / "super.snet"
    path.write_bytes(content)
    with pytest.raises(NetworkParseError, match=line):
        parse_text(content.decode("utf-8"))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and line in err


def test_verify_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "binary.snet"
    path.write_bytes(b"snet 1 4\nlayer: 0-1 \xff\xfe\n")
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "UTF-8" in err


@pytest.mark.parametrize("command", ["verify", "stats", "apply"])
def test_oversized_header_width_is_rejected_before_building(
    tmp_path, capsys, command
):
    # Above 2**MAX_EXPONENT, the generators' guard; building the layer would
    # otherwise allocate one list entry per line.
    for width in ("99999999999", "65537"):
        path = tmp_path / "huge.snet"
        path.write_text(f"snet 1 {width}\nlayer: 0-1\n")
        with pytest.raises(NetworkParseError, match="line 1"):
            parse_text(path.read_text())
        extra = ["--input=0,1"] if command == "apply" else []
        assert main([command, str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 1: ")


@pytest.mark.parametrize(
    "content, line",
    [
        ("snet 1 " + "9" * 5000 + "\n", "line 1"),
        ("snet 1 4\nlayer: 0-" + "0" * 5000 + "1\n", "line 2"),
    ],
    ids=["header", "comparator"],
)
def test_verify_rejects_numbers_too_long_for_int(tmp_path, capsys, content, line):
    path = tmp_path / "long.snet"
    path.write_text(content)
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and line in err


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_TOKENS = st.one_of(
    st.builds(
        "{}-{}{}".format,
        st.integers(0, 9),
        st.integers(0, 9),
        st.sampled_from(["", "!"]),
    ),
    st.sampled_from(
        ["-", "0-", "-1", "1--2", "0-1!!", "!", "a-b", "0:1", "+1-2", "1-\u0663",
         "0-" + "0" * 5000 + "1"]
    ),
)
_ROWS = st.one_of(
    st.lists(_TOKENS, max_size=5).map(lambda tokens: " ".join(["layer:", *tokens])),
    st.sampled_from(["", "  ", "layer:", "layer:0-1", "Layer: 0-1", "layers: 0-1", "#"]),
)
# Header widths stay at 0..8, so every parsed network verifies in
# milliseconds; oversized widths have their own test above.
_HEADERS = st.one_of(
    st.builds("snet 1 {}".format, st.integers(0, 8)),
    st.sampled_from(
        ["", "snet", "snet 1", "snet 2 4", "snet 1 4 4", "snet 1 -4", "snet 1 \u00b2",
         " snet 1 4", "snet 1 4x", "SNET 1 4"]
    ),
)
_NEAR_MISS = st.builds(
    lambda header, rows, newline, end: (newline.join([header, *rows]) + end).encode(),
    _HEADERS,
    st.lists(_ROWS, max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n"]),
)


@pytest.fixture(scope="module")
def contract_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "net.snet"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), _NEAR_MISS))
def test_verify_exit_code_contract(contract_path, content):
    # 0 is sorting, 1 a counterexample that apply reproduces, 2 an error
    # line and nothing else; no exception ever escapes main.
    contract_path.write_bytes(content)
    code, out, err = _run(["verify", str(contract_path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error:")
        return
    assert err == ""
    if code == 0:
        assert "result: sorting" in out.splitlines()
        return
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["result"] == "counterexample"
    replay = _run(["apply", str(contract_path), f"--input={fields['input']}"])
    assert replay == (0, fields["output"] + "\n", "")


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/net.snet"]) == 2
    capsys.readouterr()


def test_apply_sorts_input(capsys):
    assert main(["apply", "bsort", "2", "--input", "3,1,0,2"]) == 0
    assert capsys.readouterr().out == "0,1,2,3\n"


def test_apply_accepts_booleans_as_bits(capsys):
    assert main(["apply", "knuth", "2", "--input", "1,0,1,0"]) == 0
    assert capsys.readouterr().out == "0,0,1,1\n"


def test_apply_from_file(tmp_path, capsys):
    path = tmp_path / "swap.snet"
    path.write_text(render_text(Network(2, (cswap(0, 1, 2),))))
    assert main(["apply", str(path), "--input", "9,-3"]) == 0
    assert capsys.readouterr().out == "-3,9\n"


def test_apply_validates_input(capsys):
    assert main(["apply", "bsort", "2", "--input", "1,2,3"]) == 2
    assert main(["apply", "bsort", "2", "--input", "1,2,x,4"]) == 2
    too_big = str(2**63)
    assert main(["apply", "bsort", "2", "--input", f"1,2,3,{too_big}"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, bad",
    [
        ("\u0663,1", "\u0663"),  # ARABIC-INDIC DIGIT THREE: int() reads 3
        ("1_0,2", "1_0"),  # int() reads 10
        ("1,\uff12", "\uff12"),  # FULLWIDTH DIGIT TWO: int() reads 2
        ("+,1", "+"),
        ("+-3,1", "+-3"),
    ],
)
def test_apply_reads_integers_as_files_do(capsys, text, bad):
    # A value is an optional sign and ASCII digits, as in the text format.
    assert main(["apply", "bsort", "1", f"--input={text}"]) == 2
    assert capsys.readouterr() == ("", f"error: bad integer {bad!r} in --input\n")


def test_apply_takes_signs_and_spaces(capsys):
    assert main(["apply", "bsort", "1", "--input= +3 , -5 "]) == 0
    assert capsys.readouterr().out == "-5,3\n"


def test_apply_int64_bounds_accepted(capsys):
    lo, hi = -(2**63), 2**63 - 1
    assert main(["apply", "bsort", "1", "--input", f"{hi},{lo}"]) == 0
    assert capsys.readouterr().out == f"{lo},{hi}\n"


def test_stats_generated(capsys):
    assert main(["stats", "knuth", "3"]) == 0
    out = capsys.readouterr().out
    assert "layers: 6" in out
    assert "width: 8" in out
    assert "closed-form layers: 6" in out
    comparators = network_stats(knuth_exchange(3)).comparators
    assert f"comparators: {comparators}" in out


def test_stats_from_file_omits_closed_form(tmp_path, capsys):
    path = tmp_path / "net.snet"
    path.write_text(render_text(batcher(3)))
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "layers: 6" in out
    assert "closed-form" not in out


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["verify"]) == 2
    assert main(["verify", "bsort", "2", "extra", "junk"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def count_parsers(monkeypatch):
    """The ``prog`` of every ``ArgumentParser`` built from now on."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "bsort", "1"],
        ["verify", "bsort", "1"],
        ["apply", "bsort", "1", "--input=2,1"],
        ["stats", "bsort", "1"],
    ],
)
def test_a_call_builds_only_its_commands_parser(monkeypatch, capsys, argv):
    # A plain call is read without argparse: neither it nor a second call
    # builds any parser.
    built = count_parsers(monkeypatch)
    assert main(argv) == 0
    assert main(argv) == 0
    assert built == []
    capsys.readouterr()


def test_help_and_errors_build_every_commands_parser(monkeypatch, capsys):
    built = count_parsers(monkeypatch)
    every = ["sortnet"] + [f"sortnet {name}" for name in cli.COMMANDS]
    for argv, code in (
        (["--help"], 0),
        ([], 2),
        (["frobnicate"], 2),
        # Not plain: the full parser alone reports the unknown option,
        # naming every command.
        (["stats", "bsort", "1", "--bogus"], 2),
    ):
        built.clear()
        assert main(argv) == code
        assert built == every
    assert "{gen,verify,apply,stats}" in capsys.readouterr().err


def test_a_plain_call_loads_no_argparse():
    # A fresh interpreter, so no earlier import counts.
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import sortnet.cli\n"
        "code = sortnet.cli.main(['verify', 'bsort', '2'])\n"
        "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-I", "-c", probe, src],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "result: sorting" in result.stdout
    assert result.stdout.splitlines()[-1] == "0 False False"


_SUBPARSERS = next(
    action.choices
    for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)


def test_the_declarations_read_as_the_parsers_actions():
    # ``_read_call`` reads each argument's declaration by these rules: an
    # option's dest is its name without dashes, a flag ("action") takes no
    # value and defaults to False, only a positional with "nargs" takes
    # more than one word, and ``_MODES`` are the only exclusive options.
    for name, (_, arguments, _) in cli.COMMANDS.items():
        declared = dict(arguments)
        parser = _SUBPARSERS[name]
        actions = [action for action in parser._actions if action.dest != "help"]
        names = [(action.option_strings or [action.dest])[0] for action in actions]
        assert names == list(declared)
        for argument, action in zip(names, actions):
            keywords = declared[argument]
            flag = "action" in keywords
            assert (
                action.option_strings,
                action.dest,
                action.default,
                action.type,
                action.choices,
                action.required,
                action.nargs == 0,
                action.nargs == "+",
            ) == (
                [argument] if argument.startswith("-") else [],
                argument.lstrip("-"),
                keywords.get("default", False if flag else None),
                keywords.get("type"),
                keywords.get("choices"),
                keywords.get("required", not argument.startswith("-")),
                flag,
                "nargs" in keywords,
            ), (name, argument)
        groups = [
            [option for action in group._group_actions for option in action.option_strings]
            for group in parser._mutually_exclusive_groups
        ]
        assert groups == ([list(cli._MODES)] if cli._MODES[0] in declared else [])


def _argparse_reads(argv):
    """What the sub-parser of ``argv[0]`` reads from the rest of ``argv``."""
    args, leftover = _SUBPARSERS[argv[0]].parse_known_args(argv[1:])
    return vars(args), leftover


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "bsort", "3"],
        ["gen", "--flip", "bfsort", "1_0", "--format=svg", "--out", "o.svg"],
        ["gen", "knuth", "\u0663", "--out="],
        ["gen", "batcher", " 2 ", "--format", "text"],
        ["verify", "bsort", "2", "--exhaustive"],
        ["verify", "--seed=-4", "--oracle", "5", "bsort", "2"],
        ["verify", "net.snet", "--oracle=-1"],
        ["verify", "a", "b", "c"],
        ["apply", "bsort", "1", "--input=-5,3"],
        ["apply", "--input", "2,1", "bsort", "1"],
        ["stats", "bsort", "1"],
        ["stats", ""],
    ],
)
def test_plain_calls_are_read_as_argparse_reads_them(argv):
    args = cli._read_call(argv[0], argv[1:])
    assert args is not None
    assert (vars(args), []) == _argparse_reads(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen"],
        ["verify"],
        ["gen", "bsort", "2", "-h"],
        ["verify", "bsort", "2", "--help"],
        ["verify", "bsort", "2", "--exh"],
        ["verify", "--", "bsort", "2"],
        ["gen", "bsort", "-1"],
        ["verify", "bsort", "9", "--oracle", "-1"],
        ["apply", "bsort", "1", "--input", "-5,3"],
        ["verify", "bsort", "2", "--seed", "1", "--seed", "2"],
        ["stats", "bsort", "1", "--bogus"],
        ["gen", "bsort", 1],
        ["gen", "bsort", "--flip", "1"],
        ["verify", "bsort", "--seed", "1", "2"],
        ["gen", "bfsort", "1", "--flip=1"],
        ["gen", "bsort", "1", "--out=--"],
        ["gen", "bsort", "1", "--out"],
        ["apply", "bsort", "1"],
        ["verify", "bsort", "2", "--exhaustive", "--oracle", "3"],
        ["gen", "nope", "1"],
        ["gen", "bsort", "x"],
        ["gen", "bsort", "1", "--format", "png"],
        ["gen", "bsort", "1", "2"],
    ],
)
def test_other_calls_are_left_to_argparse(argv):
    assert cli._read_call(argv[0], argv[1:]) is None


# Words of argument lists: generator names and other positionals,
# numbers that int() reads and files do not, a leading minus, every option
# in full, abbreviated and in "=" form, and the words argparse reads
# specially.
_CALL_NUMBERS = ["3", "-1", "\u0663", "1_0", " 2 "]
_CALL_POSITIONALS = [*cli.GENERATORS, *_CALL_NUMBERS[::2], "net.snet", "x", ""]
_CALL_WORDS = [
    *_CALL_POSITIONALS, *cli.COMMANDS, "-1", "-5,3", "2,1", "svg", "--", "-", "-h",
    "--help", "--bogus", "--flip", "--fl", "--flip=1", "--out", "--ou", "--out=o.svg",
    "--out=--", "--format", "--form", "--format=svg", "--exhaustive", "--exh",
    "--exhaustive=", "--oracle", "--or", "--oracle=5", "--oracle=-1", "--seed",
    "--se", "--seed=7", "--input", "--inp", "--input=2,1", "--input=-5,3",
]
# Each command's options with their values, as a plain call spells them
# and, in the last entries, as argparse reads them differently.
_CALL_OPTIONS = {
    "gen": [
        ["--flip"], ["--out", "o.svg"], ["--out="], ["--format", "svg"],
        ["--format=text"], ["--flip="], ["--out=--"], ["--out", "-1"],
    ],
    "verify": [
        ["--exhaustive"], ["--oracle", "5"], ["--oracle=-1"], ["--seed", "7"],
        ["--seed=\u0663"], ["--exhaustive=1"], ["--oracle", "-1"], ["--seed", "--"],
    ],
    "apply": [["--input", "2,1"], ["--input=-5,3"], ["--input", "-5,3"], ["--input=--"]],
    "stats": [],
}


def _joined(parts):
    return [word for part in parts for word in part]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(list(cli.COMMANDS)), st.data())
def test_the_reader_agrees_with_argparse(name, data):
    word = st.sampled_from(_CALL_WORDS)
    # Options and their values, two in three the command's own, around a
    # run of positionals: the shape of most calls.
    own = [st.sampled_from(_CALL_OPTIONS[name])] if _CALL_OPTIONS[name] else []
    options = st.lists(st.one_of(*own * 2, st.lists(word, max_size=1)), max_size=3)
    run = st.lists(st.sampled_from(_CALL_POSITIONALS), min_size=1, max_size=3)
    if name == "gen":
        algorithm_m = st.tuples(
            st.sampled_from(list(cli.GENERATORS)), st.sampled_from(_CALL_NUMBERS)
        )
        run = st.one_of(run, algorithm_m.map(list))
    words = data.draw(
        st.one_of(
            st.lists(word, max_size=6),
            st.tuples(options.map(_joined), run, options.map(_joined)).map(_joined),
        )
    )
    # Whatever the reader accepts, argparse reads alike, with nothing over.
    args = cli._read_call(name, words)
    if args is not None:
        assert (vars(args), []) == _argparse_reads([name, *words])


def test_build_parser_offers_every_command():
    assert "{gen,verify,apply,stats}" in cli.build_parser().format_usage()
    args = cli.build_parser().parse_args(["apply", "bsort", "1", "--input=2,1"])
    assert (args.command, args.source, args.input) == ("apply", ["bsort", "1"], "2,1")


def test_main_takes_any_iterable_of_strings(capsys):
    assert main(("apply", "bsort", "1", "--input=2,1")) == 0
    assert main(arg for arg in ["apply", "bsort", "1", "--input=2,1"]) == 0
    assert main(iter(["stats", "bsort", "1", "--bogus"])) == 2
    captured = capsys.readouterr()
    assert captured.out == "1,2\n1,2\n"
    assert "unrecognized arguments: --bogus" in captured.err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "sortnet.cli", "gen", "bsort", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "snet 1 2\nlayer: 0-1\n"


def test_importing_the_cli_loads_no_introspection_modules():
    # Compared before and after the import, so modules that ``site``
    # already loaded do not count.
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import sortnet.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "sortnet.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
