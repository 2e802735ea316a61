"""Byte-identical ``render_text`` (m = 0..11) and ``render_svg`` (m = 0..7)
output of every generator, byte-identical CLI transcripts, and the
reports of both sorting checks on fixed, seeded corpora.

The text digests pin the exact comparator layout of each construction, so
a rewrite of the combinators or the jump and swap connectors that changes
any line, flag or layer order fails here.  The SVG digests also pin the
drawing's layout, including the sideways offsets of overlapping links.
"""

import contextlib
import hashlib
import io
import random

import pytest
from hypothesis import given, settings

from conftest import networks
from sortnet import verify
from sortnet.batcher import batcher
from sortnet.bitonic import bfsort, bsort
from sortnet.cli import main, parse_text, render_svg, render_text
from sortnet.core import Connector, Network
from sortnet.knuth import knuth_exchange
from sortnet.verify import check_sorting_exhaustive, check_sorting_oracle
from spec import block_networks, drop_mutants, flip_mutants, random_network

GENERATORS = {
    "bsort": bsort,
    "bfsort": lambda m: bfsort(False, m),
    "bfsort-flip": lambda m: bfsort(True, m),
    "knuth": knuth_exchange,
    "batcher": batcher,
}

# sha256 of render_text(GENERATORS[name](m)) for m = 0, 1, ..., 11, the sizes
# that ``sortnet gen`` writes in the benchmark.
DIGESTS = {
    "bsort": (
        "5fb60af9ae7ac0182f112c692ab867480dbdf879b780dc2bad811d4130aa4eef",
        "0784e3982216a501536ce5aa15bb354944e50d23aafc36b57770c1b2f7d9b7cc",
        "14e2d4df37c6662065db1e6a36b3bde0bc3bb782936cbc1278682995d47dab7b",
        "aa38c6b65bba62ae4f5b20866e95a2b8760ef155e89d1d4f1a749da7574e8754",
        "1c96dd43a99fdcdcf76f35c8e77a4ce08d83b8596ed9c1f5df67113aa3314308",
        "b8f0b30b728e246cedddfdea23ea3af97e4020ffeab132565505b1ce5b149197",
        "c3827580f191774bfcf6bcb354587e2c46d9847719872da2167f4f9c11c89f58",
        "93492c8c56de4f549ec01355e866fffe462296dbc5f3eeafacd6c9f1751a6da6",
        "ae55d112ce8bdea6471f7f26de57b0671f36a848e5610cf6d1b95dca0da5e8c2",
        "4e353e28f7d9c7d24cd39cbe632cc860d7948c39872c4dddbb76f2dc0c8290f3",
        "47895b61d795bd8e5074bacc84bdc9cc91736bffcad1bd154abc03ed5a1b7d67",
        "cfd17c188abcf3b2380cd979e06c0d8fe7966232724b549730930bf636e7a909",
    ),
    "bfsort": (
        "5fb60af9ae7ac0182f112c692ab867480dbdf879b780dc2bad811d4130aa4eef",
        "0784e3982216a501536ce5aa15bb354944e50d23aafc36b57770c1b2f7d9b7cc",
        "d5127836e3c30cc3d2ed470926ab37dfda52f4f5b31809d0dd3834c0ecfa73a6",
        "d805313daf2cd889fe5e6afb980602decb68cb1b1018dd870bfdb66253ab9486",
        "7b1748c02f0f243530512ca7b55e3b44ec9c4769a11614a2b0ba1e2777d84bbd",
        "74fb1964a50a724e7de6261f16553720d1a02b5bceaa61585d4aa45decb929f7",
        "fc49285e328c657969814efe12258be7b54dbcfc31c9a55c0026ed6495486654",
        "1dd5b67650399b96332075b3061791f20061e4d957723c6e7f745f0926bdd77f",
        "cf8be09736940251dac265fc20a103c0eb1f31c81fabc109fec8b78cc58f7a58",
        "ee5397eb9e9cce1f4249a1d1e053abb538fd1622894a83d980748a2966d5d4d2",
        "8aad5e69061c8a0223b2893a1eb244132f3795b3fe6b0d48aedf990df7b7f8d3",
        "9e6a78af8e1e81a00cff59eba9b529d582de9248a37885e5c828b4ab1d174aee",
    ),
    "bfsort-flip": (
        "5fb60af9ae7ac0182f112c692ab867480dbdf879b780dc2bad811d4130aa4eef",
        "03f92a3296494b8a8e31c370f8fce9bc6178abdf4beb79c468c9ca2b0c5fda1f",
        "d25871fd1d9b7af620d50ed273d781a899744e3774e88c59c353f81c106c4dc9",
        "490772e849a0764b8880654d022aab455a8cff9b2e48e2a5d1e7be5ba4594ed5",
        "985b2d0b88ac564695b686d43d3ef6b589adda634c27aa291db56a5e4b209574",
        "d8700c69758d4beed60f3f07e48873c14b7118c2c99f5c76fd2b298b9012bddd",
        "e6df46bbe43637b1dc8ed63e134fd673462b7cc8fcfcc51403e4cc140331a109",
        "98b6ae3a9764c876cbc8c2a5928c61a5a02973d2a660962a661f733a9875edf5",
        "3c6184cf366e9e821f640a317b0959df24f641ea1a5de0c068c32df63b186d64",
        "b0a61a0eb80585da902b44832faa69e654b384232499d9440872c45bf0e585da",
        "8c2888143b112077ceb648f0f50a4524bf475ed64962211dc7d01bdb4530e360",
        "877ffda661f8870d59900783be311fda7bcd71aa8d31313d5d64df7a85067463",
    ),
    "knuth": (
        "5fb60af9ae7ac0182f112c692ab867480dbdf879b780dc2bad811d4130aa4eef",
        "0784e3982216a501536ce5aa15bb354944e50d23aafc36b57770c1b2f7d9b7cc",
        "6824bf78c5e744b9d19a766eea934a10c4712b62f5e2e18689fb874ef310a27e",
        "84434431b40e619e58dc81c0f11db2710d980f0d2d81bf473991fb5246cd41ed",
        "878fd67ff45cc276cd654c078733ca8d2a6af15c7f9f192f6834c685cee62dc6",
        "2efd72a8712dd0ba8d11ca6a9f0bbea37efc88c4d1fd901d35af8707aeb5420d",
        "a2ea68146540de39075e870cc9fce5a0b475e2fe1b44d6c8ca13a74dc3956ea4",
        "f4ba9ed2e437f47a39211930befa6c0cbcb04760e5148f413bd7ec13dc65fbb5",
        "87adc0eed685588e1ddc2ad1844e33402c5174ba35858723aef2dc2d00b62758",
        "6e9474f52f7e9070ff8f54066530dfb45be79d6935cc7735843eec0d6a32f421",
        "f035192475fe4527f75f12a1a197bbca6be2ea75cc98b0b9f7dd83a2d9cbd8df",
        "eca56011ce1fe27b5c8654a1ab6b9fd98074f9c7a0cdc72ae4da01bdf6298e16",
    ),
    "batcher": (
        "5fb60af9ae7ac0182f112c692ab867480dbdf879b780dc2bad811d4130aa4eef",
        "0784e3982216a501536ce5aa15bb354944e50d23aafc36b57770c1b2f7d9b7cc",
        "8980bf688b38eb6d69f96c7d4f261e2d8b3358c5a71b62ba587d49081de5f97c",
        "5cdcda9ed281be697a704fed189dfd75a7df5ac46c28cf178df9604abae6f2aa",
        "d33ad01aa568c8a9ceeda60d1fa78270868b9fe3200992ca1d3964c0a7d39392",
        "9664f57a99d33fa4da4019df770bd41a4f21046e1adaadef3ad77c00adced9ec",
        "c189857e8221a0d1494dc6fce708950a53c38b06f2a756318e74aa1713f5e841",
        "ee20b112ed03a590e855e42e81f516ad3948d8af5149b94c544385f8911d8bb8",
        "d47bcbfef3a8b59ec33569e901a97250a6e4d89a7df519bff6ddebe2cdb9a5a3",
        "ade929afba457b3d617868fea432273d1abab528bcb6c4bdab057866ad095b2c",
        "b6754818f4fc17fc37d56ad389572da75bd6037f1393162804a58bca7333d2c7",
        "f4aebe4cfdb03af409bdebe6172e5f1c3c800a89d5a10c305734f0919333f8c4",
    ),
}


# sha256 of render_svg(GENERATORS[name](m)) for m = 0, 1, ..., 7.
SVG_DIGESTS = {
    "bsort": (
        "a6c5c7ed26c6275164a06a1e85fb07b967a20738cfef1840c5eb9349b762c58b",
        "0fdf595a8c14c049c9a56ee3404c2a1585eb46b8a1f028d63f0f280baccf55aa",
        "2dbaf068a163fc8a90ac85d87d6af26aa348a01d9afb78911ab61ccebff18460",
        "b1d50eb251a7ff3b11bf7cdd58e4420c680d372cd83861e4acdf9a7d9ba2b6f1",
        "8506586fb48a9075fd09d0328ed6d7d7efdc7518d13ed34544743314ea7ade13",
        "5f1d8c64319fa5780e7d971553ce2609dd88333a66930de7a6677f3b68bd2a31",
        "303ecf290eb0d75d00a87fcbb14c3700abd5ea3b456b376de1314f34a6acd8a7",
        "9ca38ba4bc04d0ac58ae4eaeaa2e7d766e513435984b257ed6df6e78c692a2e9",
    ),
    "bfsort": (
        "a6c5c7ed26c6275164a06a1e85fb07b967a20738cfef1840c5eb9349b762c58b",
        "0fdf595a8c14c049c9a56ee3404c2a1585eb46b8a1f028d63f0f280baccf55aa",
        "93ead2549d67385274846995ea1ff26d239d24c708411d1e6356da152d3d22db",
        "20c408a3fb944ae7f39348319205dfe9462c2d92d932be576422ffc9be2525cc",
        "d9f3d3f353efe984885af38108963c00c8c823f8e97c541121af4f36107d1824",
        "0cacdc404eb83fe516d8bc47d221d7635591ebb161d45e4c96e59e4b4a92c2a3",
        "c1be89600a8cc71025d0238020e3cef1608dcb5aa6e451880af6765fc98a9587",
        "66f1e4eca950af8f527f9d3beed058fb6f16ce191891a99cd697890c57be207f",
    ),
    "bfsort-flip": (
        "a6c5c7ed26c6275164a06a1e85fb07b967a20738cfef1840c5eb9349b762c58b",
        "f6af891842b37c164086365816be4094b74a9ef02348daac1c6635ea1a22d393",
        "a75a096b6b50052f29f7ff31fa61e192a722d48a661ff09f1faecea1b6a7383b",
        "d7d99bffeebaf02d133361256dd73ef4737b3f0fe88c9a9a2de9a5e98505896d",
        "b847214e6a1dda852ad91248fbcd4346870a5db2c2171fdc8acb244a87714407",
        "d5c5af3c06163cd6dc2573f4ff2528432a132a029068463e6b304bab304aa486",
        "7bb2c0ec4c817c0265e9d63c7438e37c503bc1ddec3db20e2b6e5fec8ce0e263",
        "3eb21b7b0f9f9e6f73e297f953099feaae5bf3e014824f5e566e1b4f0690da99",
    ),
    "knuth": (
        "a6c5c7ed26c6275164a06a1e85fb07b967a20738cfef1840c5eb9349b762c58b",
        "0fdf595a8c14c049c9a56ee3404c2a1585eb46b8a1f028d63f0f280baccf55aa",
        "d64f7327b3af381ce2fa3b6a27eba07afeab63828e767cdecc1be687232ce470",
        "1a2b29513664e2b6fdd58fd897c6ea2d42f824f9f0c3c2a092ee12558e20da04",
        "0aa59014f02f0d4a1fb2b9f3727365220da2111d5d08cafcb031dae84fe2c31e",
        "0600b162318882fd740401b9b61335b53079d9f4d0e25b149a664cd761e03eac",
        "8f752413306c86a916bc7a4d88e2de62e665943d92fd48aff2b9ec0f67416302",
        "98c2b3918550c95b4a8bb5ba65338ded940901c201bccdd3cac1bc27bcb03908",
    ),
    "batcher": (
        "a6c5c7ed26c6275164a06a1e85fb07b967a20738cfef1840c5eb9349b762c58b",
        "0fdf595a8c14c049c9a56ee3404c2a1585eb46b8a1f028d63f0f280baccf55aa",
        "ad349f66fcae852aa32f232a681cb5ebfddb7f6dbc51aa65833b826057b99147",
        "7405c8a3fa38452159703fbc822c8c8f31456777dcf1818ecc34fddd589ce358",
        "eb582386e450a9dc04b42bf6b1d272dc20138dd8e577266a30f3a04cd2cf6f37",
        "4a2a63a6ebc59cdd48bf90b0455b161a034dbbb463e10bfa109e1af64c2503f2",
        "9f29591f36d47f869937105d392fca03fb699fbb557d63a015058d98f1174389",
        "17d92a3e8ad84be14b847a93e175896d765e7d1128a9950994c660fd5a5ac2ba",
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_render_text_is_byte_identical(name):
    build = GENERATORS[name]
    for m, expected in enumerate(DIGESTS[name]):
        text = render_text(build(m))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, (name, m)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_render_svg_is_byte_identical(name):
    build = GENERATORS[name]
    for m, expected in enumerate(SVG_DIGESTS[name]):
        svg = render_svg(build(m))
        assert hashlib.sha256(svg.encode()).hexdigest() == expected, (name, m)


def render_tokens(network):
    """The ``snet`` text built one comparator token at a time from ``pairs()``."""
    lines = [f"snet 1 {network.width}"]
    for layer in network.layers:
        tokens = ["layer:"]
        for low, high, flipped in layer.pairs():
            tokens.append(f"{low}-{high}" + ("!" if flipped else ""))
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(networks(max_width=24, max_depth=6))
def test_render_text_matches_a_token_by_token_renderer(net):
    # Partial matchings leave lines unconnected; widths above 10 give
    # two-digit line numbers on both ends of a comparator.
    text = render_text(net)
    assert text == render_tokens(net)
    assert parse_text(text) == net


# The malformed files of the benchmark's read-apply workload.
MALFORMED = (
    ("bad-header", b"snet 2 4\nlayer: 0-1\n"),
    ("out-of-range", b"snet 1 4\nlayer: 0-4\n"),
    ("reused-line", b"snet 1 4\nlayer: 0-1 1-2\n"),
    ("self-pair", b"snet 1 4\nlayer: 2-2\n"),
    ("superscript", "snet 1 4\nlayer: 0-\u00b2\n".encode("utf-8")),
    ("non-utf8", b"snet 1 4\nlayer: 0-1 \xff\xfe\n"),
)

# Files that take each branch of the record reader: a name with a leading
# zero, flips, a blank row and an empty record, and three faults.
READER = (
    ("leading-zero", b"snet 1 4\nlayer: 00-1 2-03\n"),
    ("flips-and-gaps", b"snet 1 4\nlayer: 0-1! 2-3\n\nlayer:\nlayer: 1-2!\n"),
    ("inner-flip", b"snet 1 4\nlayer: 0!-1\n"),
    ("two-dashes", b"snet 1 4\nlayer: 0-1-2 3\n"),
    ("comment", b"snet 1 4\n# note\n"),
)

# sha256 of cli_transcript: exit codes, stdout and stderr of every call.
TRANSCRIPT_DIGEST = (
    "0332f8cd418e7d65ac3c0d5bec357552ef6d2e018f0e4249e622fc352251768d"
)


def transcript_calls(workdir):
    """``main`` argument lists: every command on every generator at m =
    0..4, six usage errors (an ``--out`` path that cannot be opened and a
    negative ``--oracle`` among them), an ``m`` below 0 or above
    ``MAX_EXPONENT`` through ``gen``, ``stats``, ``apply`` and ``verify``
    (with ``--flip`` on ``bsort``, refused first, and with ``--oracle``),
    a sampled ``verify`` above the exhaustive width guard, argparse's help
    and errors (no arguments, an unknown command, a first word ``--`` that
    is no command, each command's ``--help``, an unrecognized argument
    to each command, a missing positional, a missing ``--input``, an
    invalid int, two exclusive options and an option value that looks
    like a negative number), two abbreviated options, ``verify`` on the
    malformed files and the reader's files, and ``apply`` and ``stats``
    on the file with a leading zero; the files are written to
    ``workdir``."""
    calls = []
    for m in range(5):
        for name, *flag in (["bsort"], ["bfsort"], ["bfsort", "--flip"],
                            ["knuth"], ["batcher"]):
            for form in ("text", "svg"):
                calls.append(["gen", name, str(m), *flag, "--format", form])
        width = 1 << m
        values = ",".join(map(str, range(width // 2, width // 2 - width, -1)))
        for name in ("bsort", "bfsort", "knuth", "batcher"):
            calls += [
                ["verify", name, str(m)],
                ["verify", name, str(m), "--oracle", "7", "--seed", "3"],
                ["stats", name, str(m)],
                ["apply", name, str(m), f"--input={values}"],
            ]
    calls += [
        ["gen", "quick", "2"],
        ["verify", "bsort", "5"],
        ["stats", "bsort", "x"],
        ["gen", "knuth", "2", "--flip"],
        ["--help"],
        [],
        ["frobnicate"],
        ["gen", "bsort", "2", "--bogus"],
        ["verify", "bsort", "2", "--bogus"],
        ["apply", "bsort", "1", "--input=2,1", "--bogus"],
        ["stats", "bsort", "2", "--bogus"],
        ["verify"],
        ["apply", "bsort", "1"],
        ["gen", "bsort", "x"],
        ["verify", "bsort", "2", "--exhaustive", "--oracle", "3"],
        ["apply", "bsort", "1", "--input", "-5,3"],
        ["verify", "bsort", "2", "--exh"],
        ["gen", "bsort", "1", "--form", "svg"],
        ["gen", "bsort", "2", "--out", str(workdir / "missing" / "x.snet")],
        ["verify", "bsort", "1", "--oracle", "-1"],
        ["--", "verify", "bsort", "1"],
        # m out of range through every command; --flip is refused first,
        # and the oracle builds past the exhaustive width guard.
        ["gen", "bsort", "-1"],
        ["gen", "bfsort", "17", "--flip"],
        ["gen", "knuth", "99999999999999999999"],
        ["gen", "batcher", "-1", "--format", "svg"],
        ["gen", "bsort", "-1", "--flip"],
        ["stats", "batcher", "-1"],
        ["stats", "bfsort", "17"],
        ["apply", "knuth", "17", "--input=0"],
        ["apply", "bsort", "-3", "--input=0"],
        ["verify", "bsort", "-1"],
        ["verify", "bfsort", "17"],
        ["verify", "knuth", "99999999999999999999"],
        ["verify", "batcher", "-1", "--oracle", "1"],
        ["verify", "bsort", "17", "--oracle", "1"],
        ["verify", "bsort", "6", "--oracle", "0"],
    ]
    calls += [[command, "--help"] for command in ("gen", "verify", "apply", "stats")]
    for name, data in MALFORMED:
        path = workdir / f"malformed-{name}.snet"
        path.write_bytes(data)
        calls.append(["verify", str(path)])
    for name, data in READER:
        path = workdir / f"reader-{name}.snet"
        path.write_bytes(data)
        calls.append(["verify", str(path)])
    leading_zero = str(workdir / "reader-leading-zero.snet")
    calls += [
        ["apply", leading_zero, "--input=3,2,1,0"],
        ["stats", leading_zero],
    ]
    return calls


def cli_transcript(workdir):
    """sha256 over the exit code, stdout and stderr of each call of
    :func:`transcript_calls`, with ``workdir`` named ``DIR``."""
    digest = hashlib.sha256()
    for argv in transcript_calls(workdir):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = repr((argv, code, out.getvalue(), err.getvalue()))
        digest.update(record.replace(str(workdir), "DIR").encode())
    return digest.hexdigest()


def test_cli_transcript_is_byte_identical(tmp_path, monkeypatch):
    # argparse wraps its usage lines to the terminal width it reads here.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_transcript(tmp_path) == TRANSCRIPT_DIGEST


def variants_and_mutants(top):
    """The generated networks at m = 0..``top``, each followed by its
    one-flip and then its one-drop mutants."""
    for m in range(top + 1):
        for build in GENERATORS.values():
            net = build(m)
            yield net
            yield from flip_mutants(net)
            yield from drop_mutants(net)


def report_digest(reports):
    """sha256 over the ``repr`` of each report in turn."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(repr(report).encode())
    return digest.hexdigest()


# sha256 of the oracle's reports on oracle_corpus() at (trials, seed) =
# (0, 0), then at (20, 7).
ORACLE_DIGEST = (
    "8f68294a4bff1d928336c32282d3a1f7af0a327d28c0c1aaf8f8d061fc30656a"
)


def oracle_corpus():
    """410 networks: the variants at m = 0..3 with their mutants, and 8
    seeded random networks of each width 0 to 12."""
    rng = random.Random(5)
    return [*variants_and_mutants(3)] + [
        random_network(width, rng.randint(0, 8), rng)
        for width in range(13) for _ in range(8)
    ]


def test_oracle_reports_are_pinned():
    corpus = oracle_corpus()
    reports = [
        check_sorting_oracle(net, trials, seed)
        for trials, seed in ((0, 0), (20, 7)) for net in corpus
    ]
    assert report_digest(reports) == ORACLE_DIGEST


# sha256 of the exhaustive reports on the networks of exhaustive_corpus()
# up to a width, at a ``_CHUNK_BITS``: all of them at the default, and
# those of width 12 or less at 3, where small chunks split one product
# into many, skipped or not.
EXHAUSTIVE_DIGESTS = (
    (verify._CHUNK_BITS, 20,
     "4a10095cfc25947a88207a3e09191d8f1a720e77ec82fe4660dfa033840d5ebe"),
    (3, 12, "2f9c237d9fc837fae9708a209490c556f5f8f0bc8a46da195d7d6dfbea1e0370"),
)


def exhaustive_corpus():
    """4773 networks: block networks of seeds 0 to 39, 10 seeded random
    networks of each width 0 to 20, and the variants at m = 0..4 with
    their mutants."""
    rng = random.Random(11)
    corpus = [net for seed in range(40) for net in block_networks(seed)]
    corpus += [
        random_network(width, rng.randint(0, 8), rng)
        for width in range(21) for _ in range(10)
    ]
    return corpus + [*variants_and_mutants(4)]


@pytest.mark.parametrize("chunk_bits, widest, expected", EXHAUSTIVE_DIGESTS)
def test_exhaustive_reports_are_pinned(monkeypatch, chunk_bits, widest, expected):
    monkeypatch.setattr(verify, "_CHUNK_BITS", chunk_bits)
    reports = [
        check_sorting_exhaustive(net)
        for net in exhaustive_corpus() if net.width <= widest
    ]
    assert report_digest(reports) == expected


# sha256 of ``_first_failure`` on first_failure_corpus(), above the guard
# that ``check_sorting_exhaustive`` puts at width 24.
FIRST_FAILURE_DIGEST = (
    "50e8a0b67f4f628196a8216afdfdbb954f5e108bb91b44df4d3f81d1b6f02244"
)


def suffix_flip_mutants(network, count=None, rng=None):
    """The one-flip mutants of ``network`` whose flipped comparator lies in
    a layer after the cut of ``verify._components``: every one, or ``count``
    of them drawn by ``rng``, in layer order."""
    width, layers = network.width, network.layers
    cut, _ = verify._components(width, [layer.pairs() for layer in layers])
    spots = [
        (t, k) for t in range(cut, len(layers))
        for k in range(len(layers[t].pairs()))
    ]
    if count is not None:
        spots = sorted(rng.sample(spots, count))
    for t, k in spots:
        pairs = layers[t].pairs()
        i, j, flipped = pairs[k]
        pairs[k] = (i, j, not flipped)
        changed = Connector.from_pairs(width, pairs)
        yield Network(width, layers[:t] + (changed,) + layers[t + 1:])


def first_failure_corpus():
    """1488 networks of widths 32 to 256: the variants at m = 5..8, each
    followed by its suffix flip mutants, all 1268 of them at m = 5 and 6
    and 20 seeded ones per variant at m = 7 and 8."""
    rng = random.Random(3)
    for m in range(5, 9):
        for build in GENERATORS.values():
            net = build(m)
            yield net
            yield from suffix_flip_mutants(net, *(() if m < 7 else (20, rng)))


def test_first_failures_above_the_guard_are_pinned():
    digest = hashlib.sha256()
    for net in first_failure_corpus():
        layers = [layer.pairs() for layer in net.layers]
        digest.update(repr(verify._first_failure(net.width, layers, {})).encode())
    assert digest.hexdigest() == FIRST_FAILURE_DIGEST
