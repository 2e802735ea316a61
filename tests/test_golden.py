"""Byte-identical ``render_text`` output of every generator, m = 0..9.

The digests pin the exact comparator layout of each construction, so a
rewrite of the combinators or the jump and swap connectors that changes
any line, flag or layer order fails here.
"""

import hashlib

import pytest

from sortnet.batcher import batcher
from sortnet.bitonic import bfsort, bsort
from sortnet.cli import render_text
from sortnet.knuth import knuth_exchange

GENERATORS = {
    "bsort": bsort,
    "bfsort": lambda m: bfsort(False, m),
    "bfsort-flip": lambda m: bfsort(True, m),
    "knuth": knuth_exchange,
    "batcher": batcher,
}

# sha256 of render_text(GENERATORS[name](m)) for m = 0, 1, ..., 9.
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
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_render_text_is_byte_identical(name):
    build = GENERATORS[name]
    for m, expected in enumerate(DIGESTS[name]):
        text = render_text(build(m))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, (name, m)
