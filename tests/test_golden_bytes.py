"""Byte identity: every report's stdout matches the digests in perfbench/golden.json."""
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
