"""Command-line front end: summaries, tables, reports, verification, caching.

Exit codes: 0 success, 1 usage error (a failed stdout write among them), 2
verification failure, unrecognized fingerprint or violated internal
invariant, 3 resource budget exceeded.
Output bytes are deterministic for identical inputs.  --cache-dir keeps, per
type and format, the bytes a report prints behind a CRC-32 line over the
file's name and bytes; an entry whose line does not match is reported and
recomputed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from math import prod
from pathlib import Path

from . import __version__
from .compgroup import component_group_report, count_pair_orbits
from .conjugacy import DEFAULT_BUDGET
from .errors import (
    BudgetExceeded,
    FingerprintError,
    InputError,
    InvariantViolation,
    WitnessSearchExhausted,
)
from .oracle import (
    alcove_pseudolevis_by_denominator,
    canonical_subsystem,
    classical_group_name,
    classical_nilpotent_classes,
    default_denominator_bound,
    span_quotient_torsion,
)
from .pseudolevi import (
    enumerate_pseudolevis,
    point_order,
    subsystem_closure,
    witness_element,
)
from .rootsys import CartanType, RootSystem, bad_primes, build_root_system

SCHEMA_VERSION = 1
FORMATS = ("json", "csv", "md")
DEFAULT_MAX_RANK = 8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise InputError(message)

    def _print_message(self, message, file=None):  # argparse drops a failed write
        if file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)


def _positive_int(text: str) -> int:
    """The type of --budget and --max-rank: an integer >= 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _path(text: str) -> str:
    """The type of --out, --cache-dir and --config: a path, which cannot be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def _parse_type(text: str, max_rank: int) -> CartanType:
    ct = CartanType.parse(text)
    if ct.rank > max_rank:
        raise InputError(
            f"rank {ct.rank} exceeds the configured maximum {max_rank}"
        )
    return ct


def _display_name(ctype: CartanType, diagram: tuple[int, ...]) -> str:
    """A report's cosmetic name: the trivial and regular classes, and G2(a1)."""
    if ctype == ("G", 2) and diagram == (0, 2):
        return "subregular class G2(a1)"
    if all(v == 0 for v in diagram):
        return "trivial class"
    if all(v == 2 for v in diagram):
        return "regular class"
    return ""


def _bad_primes_line(rs: RootSystem) -> str:
    """The bad-primes line of roots and of a report's good_primes_note."""
    bad = bad_primes(rs)
    return "bad primes: " + (", ".join(str(q) for q in bad) if bad else "none")


def _factors_cell(factor_types) -> str:
    """A factor column: the factor types joined by +, or T when there are none."""
    return "+".join(map(str, factor_types)) if factor_types else "T"


def build_report_document(
    ctype: CartanType, p: int = 0, budget: int = DEFAULT_BUDGET
) -> dict:
    """The canonical JSON-ready document for one Cartan type."""
    rs = build_root_system(ctype)
    reports = component_group_report(rs, p=p, budget=budget)
    doc_reports = []
    for diagram, rep in reports.items():
        doc_reports.append(
            {
                "diagram": list(diagram),
                "group_name": rep.group_name,
                "display_name": _display_name(ctype, diagram),
                "classes": [
                    {
                        "order": rec.order,
                        "factor_types": [str(t) for t in rec.factor_types],
                        "J": list(rec.J),
                        "labels": [[list(r), l] for r, l in rec.labels],
                    }
                    for rec in rep.classes
                ],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "cartan_type": str(ctype),
        "good_primes_note": _bad_primes_line(rs),
        "reports": doc_reports,
    }


def serialize_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def render_csv(doc: dict) -> str:
    # Field order is fixed; see README.
    lines = ["cartan_type,diagram,group_name,display_name,class_index,order,factor_types,J"]
    for rep in doc["reports"]:
        diagram = " ".join(str(v) for v in rep["diagram"])
        for idx, rec in enumerate(rep["classes"]):
            factors = _factors_cell(rec["factor_types"])
            j_txt = " ".join(str(v) for v in rec["J"])
            lines.append(
                f"{doc['cartan_type']},{diagram},{rep['group_name']},"
                f"{rep['display_name']},{idx},{rec['order']},{factors},{j_txt}"
            )
    return "\n".join(lines) + "\n"


def render_markdown(doc: dict) -> str:
    out = [
        f"# Component groups for {doc['cartan_type']}",
        "",
        doc["good_primes_note"],
        "",
        "| diagram | A(u) | class orders | pseudo-Levi factors |",
        "|---|---|---|---|",
    ]
    for rep in doc["reports"]:
        diagram = " ".join(str(v) for v in rep["diagram"])
        orders = ", ".join(str(rec["order"]) for rec in rep["classes"])
        factors = "; ".join(_factors_cell(rec["factor_types"]) for rec in rep["classes"])
        name = f" ({rep['display_name']})" if rep["display_name"] else ""
        out.append(f"| {diagram}{name} | {rep['group_name']} | {orders} | {factors} |")
    return "\n".join(out) + "\n"


def _render(doc: dict, fmt: str) -> str:
    """doc in one output format.

    The renderers are looked up in the module's globals on each call, not
    kept in a table, so a wrapper installed there sees every call.
    """
    if fmt == "json":
        return serialize_document(doc)
    if fmt == "csv":
        return render_csv(doc)
    return render_markdown(doc)


def _cache_path(cache_dir: str | Path, ctype: str, fmt: str) -> Path:
    return Path(cache_dir) / f"{ctype}-s{SCHEMA_VERSION}-v{__version__}.{fmt}"


def _cache_entry(name: str, body: str) -> str:
    """A cache file: the CRC-32 of its name and body in 8 hex digits, a newline, the body."""
    import zlib

    crc = zlib.crc32((name + "\n" + body).encode())
    return f"{crc:08x}\n{body}"


def _write_atomic(path: str | Path, text: str) -> None:
    """Write text to path so that a reader sees the old file or the new, never a part.

    The text goes to a sibling .<name>.<pid>.tmp file that then replaces
    path; a failed write removes it and leaves path as it was.  A symlink is
    followed, so its target is replaced and the link kept.  A path that
    exists but is not a regular file (a device, a pipe) is written in place.
    """
    path = Path(path).resolve()
    if path.exists() and not path.is_file():
        path.write_text(text)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cache_store(doc: dict, cache_dir: str | Path) -> dict[str, Path]:
    """Write doc's entry in each format, then remove its type's other entries.

    Those are the <type>-s*-v*.* siblings with another name, which
    cache_load never reads.  A sibling that cannot be removed is left in
    place.  Returns the entries' paths by format.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    ctype = doc["cartan_type"]
    paths = {fmt: _cache_path(cache_dir, ctype, fmt) for fmt in FORMATS}
    for fmt, path in paths.items():
        _write_atomic(path, _cache_entry(path.name, _render(doc, fmt)))
    names = {path.name for path in paths.values()}
    for stale in cache_dir.glob(f"{ctype}-s*-v*.*"):
        if stale.name not in names:
            try:
                stale.unlink()
            except OSError:
                pass
    return paths


def cache_load(ctype: str, fmt: str, cache_dir: str | Path) -> str | None:
    """The bytes cache_store wrote for ctype in fmt, or None on a miss.

    An entry whose checksum line does not match its name and body is
    reported on stderr and treated as a miss.
    """
    path = _cache_path(cache_dir, ctype, fmt)
    if not path.exists():
        return None
    try:
        text = path.read_bytes().decode()
    except (OSError, ValueError):  # ValueError: the entry is not UTF-8
        text = ""
    body = text.partition("\n")[2]
    if text != _cache_entry(path.name, body):
        print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
    return body


@contextmanager
def _write_failure(flag: str, path: str):
    """Turn an OSError of the block into an InputError naming flag and path.

    The message names the path as given, not the file that failed, which
    may be _write_atomic's hidden .tmp sibling.
    """
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {flag}: {path}: {exc.strerror or exc}") from None


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it; a failed write is an InputError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise InputError(f"cannot write stdout: {exc}") from None


def cmd_roots(args) -> int:
    ct = _parse_type(args.type, args.max_rank)
    rs = build_root_system(ct)
    lines = [
        f"type: {ct}",
        f"rank: {rs.rank}",
        f"positive roots: {len(rs.positive_roots)} (total {2 * len(rs.positive_roots)})",
        f"highest root marks: {' '.join(str(a) for a in rs.marks)}",
        _bad_primes_line(rs),
    ]
    _write_stdout("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_pseudolevis(args) -> int:
    ct = _parse_type(args.type, args.max_rank)
    rs = build_root_system(ct)
    pls = enumerate_pseudolevis(rs, args.budget)
    # Every row is built before the first is printed: a bad --witness prime
    # leaves stdout empty.
    rows = [
        f"{len(pls)} subsystem classes for {ct}  (node {rs.rank} is the affine node)",
        "J | factors | d_J" + (" | witness order" if args.witness is not None else ""),
    ]
    for pl in pls:
        row = f"{list(pl.J)} | {_factors_cell(pl.factor_types)} | {pl.dJ}"
        if args.witness is not None:
            row += f" | {point_order(witness_element(rs, pl.J, args.witness))}"
        rows.append(row)
    _write_stdout("\n".join(rows) + "\n")
    return EXIT_OK


def _verify(ct: CartanType, budget: int, fmt: str, served: str) -> list[str]:
    """Cross-checks for one type and the text it served in fmt; returns failures.

    served must equal, byte for byte, the documents rebuilt at p = 0, 7 and
    11 rendered in fmt.
    """
    failures: list[str] = []
    rs = build_root_system(ct)
    pls = enumerate_pseudolevis(rs, budget)
    reports = component_group_report(rs, p=0, budget=budget)

    n_records = sum(len(rep.classes) for rep in reports.values())
    recount = count_pair_orbits(rs, budget=budget)
    if n_records != recount:
        failures.append(f"pair-orbit recount {recount} != report classes {n_records}")

    # A J of simple nodes alone spans a standard Levi subsystem.  d_J, the
    # gcd of the marks off J, is the order of the torsion of the root
    # lattice over the span of J's roots.
    for rep in reports.values():
        ones = [rec for rec in rep.classes if rec.order == 1]
        if len(ones) != 1:
            failures.append(f"diagram {rep.diagram}: {len(ones)} order-1 classes")
        elif any(j >= rs.rank for j in ones[0].J):
            failures.append(f"diagram {rep.diagram}: order-1 datum is not a Levi")
        for rec in rep.classes:
            torsion, _ = span_quotient_torsion([r for r, _ in rec.labels], rs.rank)
            d = prod(f for _, f in torsion)
            if d != rec.order:
                failures.append(
                    f"diagram {rep.diagram}: J={list(rec.J)} has d_J {rec.order},"
                    f" span quotient torsion {d}"
                )

    # The alcove check stops at rank 4: its canonical forms take seconds at E8.
    if ct.rank <= 4:
        bound = default_denominator_bound(rs)
        ext = rs.extended_diagram
        subset_side = {
            canonical_subsystem(rs, subsystem_closure(ext, pl.J), budget=budget)
            for pl in pls
        }
        *levels, beyond = alcove_pseudolevis_by_denominator(rs, bound + 1, budget)
        point_side = frozenset().union(*levels)
        if subset_side != point_side:
            failures.append("alcove-point oracle disagrees with subset enumeration")
        if not beyond <= point_side:
            failures.append("alcove-point enumeration not stabilized at the bound")

    if ct.family in "ABCD":
        classes = classical_nilpotent_classes(ct.family, ct.rank)
        if sorted(d for _, d in classes) != list(reports):
            failures.append("partition oracle diagrams disagree with report keys")
        else:
            for part, d in classes:
                expected = classical_group_name(ct.family, part)
                if reports[d].group_name != expected:
                    failures.append(
                        f"diagram {d}: group {reports[d].group_name},"
                        f" partition {list(part.parts)} gives {expected}"
                    )

    differ = [
        p for p in (0, 7, 11)
        if _render(build_report_document(ct, p=p, budget=budget), fmt) != served
    ]
    if differ:
        failures.append(f"served document differs from the ones rebuilt at p in {differ}")

    for p in (0, 7):
        for pl in pls:
            vec = witness_element(rs, pl.J, p)
            if p > 0 and point_order(vec) % p == 0:
                failures.append(f"witness order not prime to p for J={pl.J} at p={p}")
    return failures


def cmd_component_groups(args) -> int:
    ct = _parse_type(args.type, args.max_rank)
    text = None
    if args.cache_dir is not None:
        text = cache_load(str(ct), args.format, args.cache_dir)
    if text is None:
        doc = build_report_document(ct, p=0, budget=args.budget)
        if args.cache_dir is not None:
            with _write_failure("--cache-dir", args.cache_dir):
                cache_store(doc, args.cache_dir)
        text = _render(doc, args.format)
    if args.out is not None:
        with _write_failure("--out", args.out):
            _write_atomic(args.out, text)
    else:
        _write_stdout(text)
    if args.verify:
        failures = _verify(ct, args.budget, args.format, text)
        if failures:
            for msg in failures:
                print(f"verify: {msg}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"verify: all checks passed for {ct}", file=sys.stderr)
    return EXIT_OK


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: the file is not UTF-8
        raise InputError(f"bad --config: {exc}") from None
    out = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(
                f"bad --config line {number}: expected key=value, got {line!r}"
            )
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def make_parser(defaults: dict | None = None) -> _Parser:
    parser = _Parser(prog="unipcent", description=__doc__)
    parser.add_argument(
        "--config", type=_path, help="key=value file setting flag defaults"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("type", help="Cartan type, e.g. E8 or B4")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect",
        )
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
        p.add_argument("--max-rank", type=_positive_int, default=DEFAULT_MAX_RANK)

    p_roots = sub.add_parser("roots", help="root counts, marks, bad primes")
    common(p_roots)
    p_roots.set_defaults(func=cmd_roots)

    p_pl = sub.add_parser("pseudolevis", help="subsystem classes with d_J")
    common(p_pl)
    p_pl.add_argument(
        "--witness",
        type=int,
        default=None,
        metavar="P",
        help="also construct witness points valid at characteristic P",
    )
    p_pl.set_defaults(func=cmd_pseudolevis)

    p_cg = sub.add_parser("component-groups", help="full A(u) report table")
    common(p_cg)
    p_cg.add_argument("--format", choices=FORMATS, default="json")
    p_cg.add_argument("--out", type=_path, default=None)
    p_cg.add_argument("--cache-dir", type=_path, default=None)
    p_cg.add_argument("--verify", action="store_true")
    p_cg.set_defaults(func=cmd_component_groups)

    if defaults:
        # A config key is the dest of an option that takes a value; its value
        # is cast and checked as that option's command-line value would be.
        options = {
            a.dest: a
            for p in (p_roots, p_pl, p_cg)
            for a in p._actions
            if a.option_strings and a.nargs != 0
        }
        casted = {}
        for key, value in defaults.items():
            key = key.replace("-", "_")
            if key not in options:
                raise InputError(f"unknown --config key {key!r}")
            action = options[key]
            try:
                casted[key] = action.type(value) if action.type else value
            except (ValueError, argparse.ArgumentTypeError):
                raise InputError(f"bad --config value {key}={value!r}") from None
            if action.choices is not None and casted[key] not in action.choices:
                raise InputError(
                    f"bad --config value {key}={value!r}"
                    f" (choose from {', '.join(action.choices)})"
                )
        for p in (p_roots, p_pl, p_cg):
            p.set_defaults(**{k: v for k, v in casted.items()
                              if any(a.dest == k for a in p._actions)})
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = make_parser().parse_args(argv)
        if args.config is not None:  # a second parse applies the file's defaults
            args = make_parser(_load_config(args.config)).parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FingerprintError, WitnessSearchExhausted) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main has reported it; keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
