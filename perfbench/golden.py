"""Write the golden stdout digests the benchmark checks operations against.

    python3 perfbench/golden.py COMMIT > perfbench/golden.json

Runs `unipcent component-groups T --format F` cold, without a cache, for
every Cartan type of rank <= 8 and every format, and prints the sha256 of
each stdout.  COMMIT names the commit the digests were taken at.  Regenerate
only at a commit whose output bytes are meant to change.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time

from run import ALL_TYPES, FORMATS, ROOT, Op, child_env, launch, remove_workdir


def main() -> int:
    commit = sys.argv[1]
    workdir = ROOT / ".perfbench-work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    try:
        for t in ALL_TYPES:
            for fmt in FORMATS:
                op = Op(t, fmt, ["component-groups", t, "--format", fmt])
                raw = launch(op, workdir, f"{t}-{fmt}", "run", child_env(0), time.monotonic() + 600)
                if raw["exit"] != 0:
                    raise SystemExit(f"{op!r} exited {raw['exit']}")
                digests.setdefault(t, {})[fmt] = hashlib.sha256(raw["out"].read_bytes()).hexdigest()
                print(f"{op!r}: ok", file=sys.stderr)
    finally:
        remove_workdir(workdir)
    json.dump({"commit": commit, "sha256": digests}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
