"""Byte identity: every report's stdout matches the digests in perfbench/golden.json,
every pseudo-Levi table's stdout matches PSEUDOLEVI_GOLDEN and every witness
table's stdout matches WITNESS_GOLDEN."""
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


# sha256 of `unipcent pseudolevis T --witness 7` stdout: the same table with
# the order of each class's witness point at p = 7.
WITNESS_GOLDEN = {
    "A1": "2a9bee6180fbf5aecaadf805c80cac7857f47b24f52902f11b4044971686c331",
    "A2": "fee93a2fcd42c9e4d97f5580f56ca2736e37af2364c59278e946f1e77ace3b26",
    "A3": "763dc528fe9cd5bd74bf821db0b4020c2ad94f92af9bda720730dceb8d504fc4",
    "A4": "2f20ba2a628f0ecffbf9ec0f4bfbcb0ffad8d45193a9e8d564007742b27cfdeb",
    "A5": "970f59501adadee1ebd0d84b957c1740261bdb7634e33a1146c48d1317b8de08",
    "A6": "ee21bf0e8e8060b72c87cbd5450cfdc702e0aa3183e30f23892910cc5e2d498e",
    "A7": "105e3fe52dac18f624223585af43d96ec27e625867c481b9f2e50640caa5883c",
    "A8": "f9176efb9b225d1dd699b5c8070fd18fb77fb3f6a3965fb2bc87ff997a186f7d",
    "B2": "f2e4489c6be5e10961cc4f7400017bb52762045cd224170309850d4f1fb5e5c4",
    "B3": "a7331cd598ef79535a85766790cd8311a6a5b97e6632b675cb752d46735ea760",
    "B4": "68b3f2e3f366efa2246de85a1551b8fcfb5d6feaef12a1e2ea6904beaa1efcc4",
    "B5": "3a62ebf065bfb1cf87373aac93d41e9014e61a54bd627b9abe444ac356cac0f7",
    "B6": "e24fbc768e50d4597aea8a8ab16d3b2f09b759d6526aac3119e4a1c08d60e9ad",
    "B7": "47e12db308ca475bc1e4ea5053af6ab7bac7be4d26604f1656c27c9a27ca802b",
    "B8": "85d18695407b3d1484913f1f346755df8e46fb66dbc59dd5fb82b08ae511ac7b",
    "C2": "203350397a073ffb2fe7acd325ace2797ba4fd9cb35c6694c7b0d66e40582db2",
    "C3": "9a7908954a6955d99495c6c9a964854bc36291c7a608391783dd59172968fc3f",
    "C4": "d199df201232ce0ac5639d8d48567dd5743e9b48702976852ea9d039f4ed381b",
    "C5": "70ef9406c34881f81c82bc26b0ac25b1719db1bd8ecf87feb5a9811f45de9af9",
    "C6": "2e1c3d4028f45ee45454205496ab08ae9a9446d8563e0b9a2f980830ed15a3db",
    "C7": "2589ed324f937e9b8475e59ed96a181aca189261900cc14a6478f01778c94ca0",
    "C8": "7ba5b4262dea729eae75b64c203a4fd041c630a191b9e167d78836728760cdea",
    "D3": "e5700ef9f8fcdc4d7954118b4d25e70a57d9053c6ee9fb66312e1af52b75fc73",
    "D4": "1334a24183f339528fccc3a0a5fdd4efb59f4836bc2a085252bb46136887c768",
    "D5": "6e0cbe4de0f6aa4d030b169fe71d86892f4a17df24885e5528691791600702c9",
    "D6": "3252d04ceda00a11ccaf6957c6312f4ec03110141b7ace421c8b0beeb7aa7d9c",
    "D7": "4b7b3a10d8b98b8531c3b485efeee1b63f00c98d04f28148e1e7c79013986e6b",
    "D8": "cd589c4ee3f47739a53e5aee860e0aaca237bd5c94f0d3a161b1e9377dbefff9",
    "E6": "4b059a1998d90642340582eb797f334e72c992f84ef465bbd4831193dd7c2785",
    "E7": "085b3322d1f13281e8d61120762f3305428ce929014522c1b5a28b4097c6a1e8",
    "E8": "b48fed58c3d5d4b5f3e00c1e2b5e58d7f60baa34dd7c2d5f106eb4c091e2042b",
    "F4": "bccbe08e5339b49703c931d52d176b4c5594157414a515bd1b1070d48cc75f79",
    "G2": "12db17c618a3c0e025880e9c474358188e67bcd61069899ee824169ce30b54e7",
}


def test_pseudolevi_golden_covers_every_type():
    assert sorted(PSEUDOLEVI_GOLDEN) == sorted(GOLDEN)
    assert sorted(WITNESS_GOLDEN) == sorted(GOLDEN)


@pytest.mark.parametrize("ctype", sorted(PSEUDOLEVI_GOLDEN))
def test_pseudolevi_table_matches_golden_digest(ctype, capsys):
    assert main(["pseudolevis", ctype]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PSEUDOLEVI_GOLDEN[ctype]


@pytest.mark.parametrize("ctype", sorted(WITNESS_GOLDEN))
def test_witness_table_matches_golden_digest(ctype, capsys):
    assert main(["pseudolevis", ctype, "--witness", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WITNESS_GOLDEN[ctype]
