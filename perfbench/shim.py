"""Run one unipcent CLI operation on behalf of the benchmark.

    python3 perfbench/shim.py REPORT MODE TYPE -- ARGV...

Imports unipcent from the checkout's ``src/``, builds the root system of
TYPE, notes that moment as the end of set-up, and then calls
``unipcent.cli.main(ARGV)``; the CLI sees ARGV and nothing else.  MODE is
``run``, ``trace`` (the same, traced) or ``setup`` (stop after set-up).
REPORT receives one JSON object: ``setup_end`` (``time.monotonic()``, a
system-wide clock the launcher also reads) and, when tracing, per-function
span aggregates.

When tracing, every function in ``TRACED`` is wrapped, in every
``unipcent.*`` namespace that binds it, by a wrapper that records a span
(name, start, end, parent).  Spans stay in memory until ``main`` returns.
Pool workers forked by ``--jobs`` inherit the wrappers, but their spans die
with them: only the parent process reports.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

TRACED = {
    "rootsys": (
        "build_root_system",
        "canonical_labeled_set",
        "to_dominant",
        "solve_cochar_for_base",
        "alcove_reduce",
    ),
    "pseudolevi": (
        "subsystem_closure",
        "base_components",
        "enumerate_pseudolevis",
        "witness_element",
    ),
    "balacarter": ("distinguished_classes", "distinguished_labelings_for_base"),
    "induce": ("cochar_for_labeled_base", "induced_diagram"),
    "compgroup": (
        "enumerate_triples",
        "component_group_report",
        "recognize_group_from_torsion",
        "count_pair_orbits",
    ),
    "oracle": ("alcove_pseudolevis", "classical_nilpotent_classes"),
    "cli": (
        "build_report_document",
        "serialize_document",
        "render_csv",
        "render_markdown",
        "cache_load",
        "cache_store",
        "_verify",
    ),
}


class Tracer:
    """Nested spans of the wrapped functions, plus two result counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.records = 0  # (J, D) records returned by component_group_report
        self.classes = 0  # pseudo-Levi classes returned by enumerate_pseudolevis

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "compgroup.component_group_report":
                self.records += sum(len(rep.classes) for rep in result.values())
            elif name == "pseudolevi.enumerate_pseudolevis":
                self.classes += len(result)
            return result

        return traced

    def install(self) -> None:
        import unipcent

        namespaces = [
            m for n, m in sys.modules.items() if n == "unipcent" or n.startswith("unipcent.")
        ]
        for module, names in TRACED.items():
            owner = getattr(unipcent, module)
            for fn_name in names:
                original = getattr(owner, fn_name)
                wrapper = self.wrap(f"{module}.{fn_name}", original)
                for ns in namespaces:
                    if getattr(ns, fn_name, None) is original:
                        setattr(ns, fn_name, wrapper)

    def summary(self) -> dict:
        """Per name: [calls, self seconds, total seconds].

        Self time is a span's duration minus the time its child spans cover.
        Total time counts only spans with no ancestor of the same name, so a
        recursive call is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row[2] += end - start
        return out


def main(argv: list[str]) -> int:
    report_path, mode, ctype = argv[0], argv[1], argv[2]
    if mode not in ("run", "trace", "setup") or argv[3] != "--":
        raise SystemExit("usage: shim.py REPORT run|trace|setup TYPE -- ARGV...")
    cli_argv = argv[4:]
    sys.path.insert(0, str(SRC))
    import unipcent.cli
    import unipcent.rootsys

    if not Path(unipcent.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported unipcent from {unipcent.__file__}, not {SRC}")
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    # Looked up on the module so that a traced run times the build as well.
    unipcent.rootsys.build_root_system(unipcent.rootsys.CartanType.parse(ctype))
    report = {"setup_end": time.monotonic()}
    pid = os.getpid()
    try:
        return 0 if mode == "setup" else unipcent.cli.main(cli_argv)
    finally:
        if os.getpid() == pid:
            if tracer:
                report.update(
                    layers=tracer.summary(), records=tracer.records, classes=tracer.classes
                )
            Path(report_path).write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
