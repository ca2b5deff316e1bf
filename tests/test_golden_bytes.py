"""Byte identity: every report's stdout matches the digests in perfbench/golden.json,
and every pseudo-Levi table's stdout matches PSEUDOLEVI_GOLDEN."""
import hashlib
import json
from pathlib import Path

import pytest

from unipcent.cli import EXIT_OK, main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["sha256"]

CASES = [(t, fmt) for t in sorted(GOLDEN) for fmt in sorted(GOLDEN[t])]


def test_golden_covers_every_type_and_format():
    assert len(GOLDEN) == 33
    assert len(CASES) == 99


@pytest.mark.parametrize("ctype,fmt", CASES)
def test_stdout_matches_golden_digest(ctype, fmt, capsys):
    assert main(["component-groups", ctype, "--format", fmt]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[ctype][fmt]


# sha256 of `unipcent pseudolevis T` stdout: each class's representative J,
# its factor types and d_J, in output order.
PSEUDOLEVI_GOLDEN = {
    "A1": "9640d8beeba8f505563fdf56d4aadacb7b5bcbc3b817789eb136b00cf8b690ab",
    "A2": "bc3872769eb02d14c1d17014c80e5a3b010c4fd2de32826ec152576d840010ee",
    "A3": "01f09bd9935526a39d5eb6cae9535cc2bea69b5f3384f135245cbcba452658f4",
    "A4": "4701e17e0245b37a50ea1a7a790bf748bdda98fde6c52f9cca12ce831ffc9fa4",
    "A5": "8d7949465c00f9f9d2f5bfd888fdb512306fe0df40b69b69723da6c84cb7704e",
    "A6": "ea5eb1d8afc56d904061e4f9e48f7a8e6f89f87aafad10a4de37a2978204162b",
    "A7": "53753549690ee5aa3d1749af6127bb46b3e4823f84c88c48460a52829348eb72",
    "A8": "b44a9642e73f846c1c81da53ebbd8c57207d8963ec5471d5275e9d517964b237",
    "B2": "4ef4fd10310ebf269d83a5149769aa4470db20691d5a33ee25b54ff44ddd4393",
    "B3": "e17034b0b06516d91416c618704f4ff5fa81f040310791b8734bd8020d882a82",
    "B4": "ba82344fa7567884931ba5b69ef98944bcebe5fb831ca831cf2539ff0f54be4f",
    "B5": "1707d30870c00f8d1afd5eca2bcb93d407a3930b3865f15f67813a3d3b73a90d",
    "B6": "22d69409ecf190422c9a5913859cc765092dd306146ed846bfacaa0140b629e9",
    "B7": "c2c55f361579de91ed50deea77676d0e14233181bdbfc1077fe20ff7c4610d15",
    "B8": "879575bb922f277bd8b91c0325ce3b5cb56c676da56f5d06bbe0a02b2408f4db",
    "C2": "6ecc136c7ca65eac62173bbcf5d57bf8519b38940e42d4f2b539fd1ccf99d5fd",
    "C3": "3bad3b79223e25a9c6f6a3e5c68faeecd322900f0fa1740d60e07ffcb9362e38",
    "C4": "fa092eb2eef8aa37be90ef080c1a4224f9590c62dea97cb43eec847a57f95dc3",
    "C5": "04a1357d82326462ea0108048ed126f6a916b28f4a5f1815bb1c6f9831da2fd5",
    "C6": "4363ecf2deab9f735b0f85e80d9c18d4e04e36455ce8ed3950a8062e929b803d",
    "C7": "435233068623faf573c9bbeadb55f054b70a027279511c2dca0c00bba93a05ee",
    "C8": "ef3220b431ee3d3158d8b6170fcf24568c21e4eb1d1ca5a222d10975f611b1ba",
    "D3": "5107ab3c45da1e9e6521a2aad73d2a5b803ad9a642cc348f3ce687066fa958a9",
    "D4": "31c0e8a2eb079f16ea1c3c9d72f6ebad4dbd5fdb0b5fae33b77d27ae8347c2c4",
    "D5": "f90ef791ea53456ea7e4ef5d977c21497056d97bf1afe0013ed74af7e39189a1",
    "D6": "422e01b077c1c0ca44ba6e3386d6adca4dee98cd0c18530fc2b394654c3d1c86",
    "D7": "c4850f6630ae3666c349e740319a6f09a12f662f6bae0b602935be55c86e367c",
    "D8": "53fcea36fb8c51d57c8136eec7879f2dea4477b55da5e53b8836cd186f36f796",
    "E6": "38d1fbd0bb6eea34638172a6a9f5858bee77377927653e20f9355e7037c63a70",
    "E7": "7c2cbdddc212e4c62a719437f57c29953eaa1e46ac257d5a6dffc78297b5b0fb",
    "E8": "66adc80f408bf4389fb56d11358feee85491b73505e7e8ee13a7618a2247e4b7",
    "F4": "dfa4e845ee37879331a739c8a9872adecc6ac380a4ce54e9302a23966f614a5b",
    "G2": "a1882e3ef5dca08281d9aab2bfd43355ba5e3591aa9fc870b6ef1989095de15b",
}


def test_pseudolevi_golden_covers_every_type():
    assert sorted(PSEUDOLEVI_GOLDEN) == sorted(GOLDEN)


@pytest.mark.parametrize("ctype", sorted(PSEUDOLEVI_GOLDEN))
def test_pseudolevi_table_matches_golden_digest(ctype, capsys):
    assert main(["pseudolevis", ctype]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PSEUDOLEVI_GOLDEN[ctype]
