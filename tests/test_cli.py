"""Text format round-trips, SVG rendering, and command-line behaviour."""

import contextlib
import io
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    path = tmp_path / "huge.snet"
    path.write_text("snet 1 99999999999\nlayer: 0-1\n")
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


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "sortnet.cli", "gen", "bsort", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "snet 1 2\nlayer: 0-1\n"
