"""Benchmark of the `unipcent component-groups` command line, cold runs only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives a closed loop: one
operation at a time, where an operation is one CLI invocation in a fresh
interpreter (started through perfbench/shim.py).  An iteration runs every
operation of the workload once; iterations repeat until the next one would
not fit in S seconds (the first always runs).  Every operation must exit 0,
print stdout bytes whose sha256 matches perfbench/golden.json, and, under
--verify, report "verify: all checks passed".  Between iterations, set-up
probes (launches that stop once set-up is done) add set-up samples.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced iterations and prints the per-layer metrics (see perfbench/NOTES.md).
Human-readable lines come first; the last line of stdout is one JSON object.
`--workload all` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from shim import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIM = HERE / "shim.py"
GOLDEN = HERE / "golden.json"

FORMATS = ("json", "csv", "md")
ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
WORKLOADS = ("e8-report", "sweep", "verify", "jobs2")
LAYERS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
# No run may take longer than this; an operation still running is killed.
RUN_CAP_S = 170.0
# Set-up samples per iteration, operations and probes together; one E8
# process set-up varies by a third between samples on the reference host.
SETUP_SAMPLES = 8


class Op:
    """One CLI invocation: the Cartan type, its output format and the argv."""

    def __init__(self, ctype: str, fmt: str, argv: list[str]):
        self.ctype, self.fmt, self.argv = ctype, fmt, argv
        self.verify = "--verify" in argv

    def __repr__(self) -> str:
        return " ".join(self.argv)


def make_ops(workload: str, seed: int, cache_dir: str) -> list[Op]:
    """The operations of one iteration; the seed fixes the sweep's order and formats."""
    if workload == "e8-report":
        return [Op("E8", "json", ["component-groups", "E8"])]
    if workload == "verify":
        types = ("E6", "E7", "F4", "B4")
        return [Op(t, "json", ["component-groups", t, "--verify"]) for t in types]
    if workload == "jobs2":
        return [
            Op("E7", "json", ["component-groups", "E7", "--verify", "--jobs", "2"]),
            Op("D8", "json", ["component-groups", "D8", "--jobs", "2"]),
        ]
    if workload == "sweep":
        rng = random.Random(seed)
        types = [t for t in ALL_TYPES if t != "E8"]
        rng.shuffle(types)
        ops = []
        for t in types:
            for _ in ("miss", "hit"):
                fmt = rng.choice(FORMATS)
                argv = ["component-groups", t, "--format", fmt, "--cache-dir", cache_dir]
                ops.append(Op(t, fmt, argv))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def child_env(seed: int) -> dict:
    """The launcher's environment without Python overrides; hash seed from --seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def launch(op: Op, workdir: Path, tag: str, mode: str, env: dict, deadline: float) -> dict:
    """Run one operation to completion in shim MODE run, trace or setup; return raw measurements."""
    out, err, rep = (workdir / f"{tag}.{ext}" for ext in ("out", "err", "json"))
    args = [sys.executable, str(SHIM), str(rep), mode, op.ctype, "--", *op.argv]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    end = time.monotonic()
    return {
        "start": start,
        "end": end,
        "exit": os.waitstatus_to_exitcode(status),
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_kib": ru.ru_maxrss,
        "out": out,
        "err": err,
        "report": rep,
    }


def check(op: Op, raw: dict, golden: dict) -> tuple[list[str], dict | None]:
    """Failure reasons for one finished operation, and the shim's report."""
    problems = []
    if raw["exit"] != 0:
        problems.append(f"exit {raw['exit']}")
    stdout = raw["out"].read_bytes()
    raw["out_bytes"] = len(stdout)
    if hashlib.sha256(stdout).hexdigest() != golden[op.ctype][op.fmt]:
        problems.append("stdout differs from the golden digest")
    if op.verify:
        lines = raw["err"].read_text(errors="replace").splitlines()
        if f"verify: all checks passed for {op.ctype}" not in lines:
            problems.append("no 'verify: all checks passed' line")
    report = read_report(raw)
    if report is None:
        problems.append("no shim report")
    return problems, report


def read_report(raw: dict) -> dict | None:
    try:
        return json.loads(raw["report"].read_text())
    except (OSError, ValueError):
        return None


def run_iteration(workload, seed, workdir, index, trace, golden, deadline) -> dict:
    """All operations of a workload once, in order; timings first, checks after."""
    cache_dir = workdir / f"cache-{index}"
    ops = make_ops(workload, seed, str(cache_dir))
    env = child_env(seed)
    mode = "trace" if trace else "run"
    raws = [launch(op, workdir, f"{index}-{k}", mode, env, deadline) for k, op in enumerate(ops)]
    it = {
        "wall_s": raws[-1]["end"] - raws[0]["start"],
        "cpu_s": sum(r["cpu_s"] for r in raws),
        "peak_rss_mib": max(r["maxrss_kib"] for r in raws) / 1024.0,
        "setups": [None] * len(ops),
        "attempted": len(ops),
        "failures": [],
        "out_bytes": 0,
        "layers": {},
        "records": 0,
        "classes": 0,
    }
    for k, (op, raw) in enumerate(zip(ops, raws)):
        problems, report = check(op, raw, golden)
        it["out_bytes"] += raw["out_bytes"]
        if problems:
            it["failures"].append(f"{op!r}: {'; '.join(problems)}")
        if report is None:
            continue
        it["setups"][k] = report["setup_end"] - raw["start"]
        if trace:
            it["records"] += report["records"]
            it["classes"] += report["classes"]
            for name, (calls, self_s, total_s) in report["layers"].items():
                row = it["layers"].setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += self_s
                row[2] += total_s
    shutil.rmtree(cache_dir, ignore_errors=True)
    return it


def layer_metrics(it: dict) -> dict[str, float]:
    """Per-layer values of one traced iteration, zero for layers not reached."""
    vals: dict[str, float] = {}
    for name in LAYERS:
        calls, self_s, total_s = it["layers"].get(name, (0, 0.0, 0.0))
        vals[f"{name}.calls"] = calls
        vals[f"{name}.self_s"] = self_s
        vals[f"{name}.total_s"] = total_s
    closures = vals["pseudolevi.subsystem_closure.calls"]
    vals["pseudolevi.classes_per_closure"] = it["classes"] / closures if closures else 0.0
    vals["compgroup.records"] = it["records"]
    vals["cli.out_bytes"] = it["out_bytes"]
    return vals


UNITS = {
    "calls": "count",
    "records": "count",
    "out_bytes": "bytes",
    "classes_per_closure": "ratio",
    "peak_rss_mib": "MiB",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "s")


def remove_workdir(workdir: Path) -> None:
    """Delete a work directory, and its parent once no other run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


def measure(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """Run a workload for `seconds` and summarize it (see the module docstring)."""
    workdir = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.monotonic()
    deadline = t0 + RUN_CAP_S
    ops = make_ops(workload, seed, "<cache>")
    env = child_env(seed)
    n_probes = 0 if trace else max(0, math.ceil(SETUP_SAMPLES / len(ops)) - 1)
    setups: list[list[float]] = [[] for _ in ops]  # per operation, over the run
    plain, traced, failures = [], [], []
    try:
        while True:
            for kind in (plain, traced) if trace else (plain,):
                index = len(plain) + len(traced)
                kind.append(
                    run_iteration(workload, seed, workdir, index, kind is traced, golden, deadline)
                )
            for k, op in enumerate(ops):
                if plain[-1]["setups"][k] is not None:
                    setups[k].append(plain[-1]["setups"][k])
                for _ in range(n_probes):
                    raw = launch(op, workdir, "probe", "setup", env, deadline)
                    report = read_report(raw)
                    if raw["exit"] != 0 or report is None:
                        failures.append(f"set-up probe for {op!r}: exit {raw['exit']}")
                    else:
                        setups[k].append(report["setup_end"] - raw["start"])
            per_round = (time.monotonic() - t0) / len(plain)
            if time.monotonic() - t0 + per_round > seconds:
                break
    finally:
        remove_workdir(workdir)
    its = plain + traced
    failures += [f for it in its for f in it["failures"]]
    result = {
        "workload": workload,
        "seed": seed,
        "samples": len(plain),
        "ops": [repr(op) for op in ops],
        "attempted": sum(it["attempted"] for it in its) + len(plain) * len(ops) * n_probes,
        "failed": len(failures),
        "failures": failures,
    }
    if not trace:
        result["metrics"] = {
            key: statistics.median(it[key] for it in plain)
            for key in ("wall_s", "cpu_s", "peak_rss_mib")
        }
        result["metrics"]["setup_s"] = sum(statistics.median(s) for s in setups if s)
        return result
    per_it = [layer_metrics(it) for it in traced]
    metrics = {k: statistics.median(v[k] for v in per_it) for k in per_it[0]}
    metrics["trace.overhead_s"] = statistics.median(
        it["wall_s"] for it in traced
    ) - statistics.median(it["wall_s"] for it in plain)
    result["metrics"] = metrics
    result["counts_repeat"] = all(
        v[k] == per_it[0][k] for v in per_it for k in v if unit_of(k) == "count"
    )
    return result


def print_summary(res: dict, trace: bool) -> None:
    print(f"workload: {res['workload']}  seed: {res['seed']}  samples: {res['samples']}"
          f"  trace: {int(trace)}")
    for op in res["ops"]:
        print(f"  op: {op}")
    for name, value in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    rate = res["failed"] / res["attempted"]
    print(f"  error_rate = {rate:.6g} ratio ({res['failed']} of {res['attempted']} launches)")
    if trace and res["workload"] == "jobs2":
        print("  note: spans inside --jobs pool workers are not collected; a parent-side"
              " self time under the pool is time spent waiting on the workers")
    if trace and not res["counts_repeat"]:
        print("  warning: call counts differ between traced iterations")
    for f in res["failures"]:
        print(f"  FAILED {f}")


def result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit_of(name)}
    return json.dumps(
        {
            "correct": all(not r["failures"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unipcent" / "cli.py").is_file():
        print(f"error: no unipcent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())["sha256"]
    # Byte-compile once here, so no operation pays for writing .pyc files.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        res = measure(w, args.seed, args.seconds, bool(args.trace), golden)
        print_summary(res, bool(args.trace))
        results.append(res)
    print(result_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
