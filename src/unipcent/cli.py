"""Command-line front end: summaries, tables, reports, verification, caching.

Exit codes: 0 success, 1 usage error, 2 verification failure or unrecognized
fingerprint, 3 resource budget exceeded.  Output bytes are deterministic for
identical inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .compgroup import component_group_report, count_pair_orbits
from .errors import (
    BudgetExceeded,
    FingerprintError,
    InputError,
    InvariantViolation,
    WitnessSearchExhausted,
)
from .oracle import (
    alcove_pseudolevis,
    classical_nilpotent_classes,
    default_denominator_bound,
)
from .pseudolevi import (
    alcove_reduce,
    canonical_subsystem,
    enumerate_pseudolevis,
    extended_diagram,
    point_order,
    subsystem_closure,
    witness_element,
)
from .rootsys import (
    DEFAULT_BUDGET,
    CartanType,
    bad_primes,
    build_root_system,
)

SCHEMA_VERSION = 1
DEFAULT_MAX_RANK = 8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _parse_type(text: str, max_rank: int) -> CartanType:
    try:
        ct = CartanType.parse(text)
    except InputError as exc:
        raise UsageError(str(exc)) from exc
    if ct.rank > max_rank:
        raise UsageError(
            f"rank {ct.rank} exceeds the configured maximum {max_rank}"
        )
    return ct


def _display_names() -> dict:
    with resources.files("unipcent").joinpath("data/display_names.json").open() as fh:
        return json.load(fh)


def _display_name(names: dict, ctype: str, diagram: tuple[int, ...]) -> str:
    key = ",".join(str(v) for v in diagram)
    by_type = names.get("by_type", {}).get(ctype, {})
    if key in by_type:
        return by_type[key]
    patterns = names.get("patterns", {})
    if diagram and all(v == 0 for v in diagram):
        return patterns.get("all_zero", "")
    if diagram and all(v == 2 for v in diagram):
        return patterns.get("all_two", "")
    return ""


def build_report_document(
    ctype: CartanType, p: int = 0, budget: int = DEFAULT_BUDGET
) -> dict:
    """The canonical JSON-ready document for one Cartan type."""
    rs = build_root_system(ctype)
    reports = component_group_report(rs, p=p, budget=budget)
    names = _display_names()
    bad = bad_primes(rs)
    doc_reports = []
    for diagram in sorted(reports):
        rep = reports[diagram]
        doc_reports.append(
            {
                "diagram": list(diagram),
                "group_name": rep.group_name,
                "display_name": _display_name(names, str(ctype), diagram),
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
        "good_primes_note": (
            "bad primes: " + (", ".join(str(q) for q in bad) if bad else "none")
        ),
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
            factors = "+".join(rec["factor_types"]) if rec["factor_types"] else "T"
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
        factors = "; ".join(
            "+".join(rec["factor_types"]) if rec["factor_types"] else "T"
            for rec in rep["classes"]
        )
        name = f" ({rep['display_name']})" if rep["display_name"] else ""
        out.append(f"| {diagram}{name} | {rep['group_name']} | {orders} | {factors} |")
    return "\n".join(out) + "\n"


def _cache_key(ctype: str) -> str:
    blob = f"{SCHEMA_VERSION}|{__version__}|{ctype}".encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def cache_store(doc: dict, cache_dir: str | Path) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{_cache_key(doc['cartan_type'])}.json"
    path.write_text(serialize_document(doc))
    return path


def cache_load(ctype: str, cache_dir: str | Path) -> dict | None:
    path = Path(cache_dir) / f"{_cache_key(ctype)}.json"
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
        doc = None
    if not isinstance(doc, dict):
        print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
    if (
        doc.get("schema_version") != SCHEMA_VERSION
        or doc.get("code_version") != __version__
        or doc.get("cartan_type") != ctype
    ):
        print(f"warning: ignoring mismatched cache entry {path}", file=sys.stderr)
        return None
    return doc


def cmd_roots(args) -> int:
    ct = _parse_type(args.type, args.max_rank)
    rs = build_root_system(ct)
    bad = bad_primes(rs)
    print(f"type: {ct}")
    print(f"rank: {rs.rank}")
    print(f"positive roots: {len(rs.positive_roots)} (total {2 * len(rs.positive_roots)})")
    print(f"highest root marks: {' '.join(str(a) for a in rs.marks)}")
    print("bad primes: " + (", ".join(str(q) for q in bad) if bad else "none"))
    return EXIT_OK


def cmd_pseudolevis(args) -> int:
    ct = _parse_type(args.type, args.max_rank)
    rs = build_root_system(ct)
    pls = enumerate_pseudolevis(rs, args.budget)
    print(f"{len(pls)} subsystem classes for {ct}  (node {rs.rank} is the affine node)")
    print("J | factors | d_J" + (" | witness order" if args.witness is not None else ""))
    for pl in pls:
        factors = "+".join(str(t) for t in pl.factor_types) if pl.factor_types else "T"
        row = f"{list(pl.J)} | {factors} | {pl.dJ}"
        if args.witness is not None:
            vec = witness_element(rs, pl.J, args.witness)
            _, walls = alcove_reduce(rs, vec)
            if walls != frozenset(pl.J):
                raise InvariantViolation(f"witness for {pl.J} failed its round trip")
            row += f" | {point_order(vec)}"
        print(row)
    return EXIT_OK


def _verify(ct: CartanType, budget: int) -> list[str]:
    """Cross-checks for one type; returns a list of failure messages."""
    failures: list[str] = []
    rs = build_root_system(ct)
    pls = enumerate_pseudolevis(rs, budget)
    reports = component_group_report(rs, p=0, budget=budget)

    n_records = sum(len(rep.classes) for rep in reports.values())
    recount = count_pair_orbits(rs, budget=budget)
    if n_records != recount:
        failures.append(f"pair-orbit recount {recount} != report classes {n_records}")

    levi_canons = set()
    ext = extended_diagram(rs)
    for size in range(rs.rank + 1):
        for K in itertools.combinations(range(rs.rank), size):
            levi_canons.add(canonical_subsystem(rs, subsystem_closure(ext, K)))
    for rep in reports.values():
        ones = [rec for rec in rep.classes if rec.order == 1]
        if len(ones) != 1:
            failures.append(f"diagram {rep.diagram}: {len(ones)} order-1 classes")
            continue
        sub = subsystem_closure(ext, ones[0].J)
        if canonical_subsystem(rs, sub) not in levi_canons:
            failures.append(f"diagram {rep.diagram}: order-1 datum is not a Levi")

    if ct.rank <= 4:
        bound = default_denominator_bound(rs)
        subset_side = {canonical_subsystem(rs, pl.subsystem) for pl in pls}
        point_side = alcove_pseudolevis(rs, bound)
        if subset_side != point_side:
            failures.append("alcove-point oracle disagrees with subset enumeration")
        if alcove_pseudolevis(rs, bound + 1) != point_side:
            failures.append("alcove-point enumeration not stabilized at the bound")
        if ct.family in "ABCD":
            if (ct.family, ct.rank) == ("D", 3):
                # D3 is A3 with its path center at node 0: remap the oracle
                oracle_diagrams = sorted(
                    (d[1], d[0], d[2])
                    for _, d in classical_nilpotent_classes("A", 3)
                )
            else:
                oracle_diagrams = sorted(
                    d for _, d in classical_nilpotent_classes(ct.family, ct.rank)
                )
            if oracle_diagrams != sorted(reports):
                failures.append("partition oracle diagrams disagree with report keys")

    docs = {
        p: serialize_document(build_report_document(ct, p=p, budget=budget))
        for p in (0, 7, 11)
    }
    if len(set(docs.values())) != 1:
        failures.append("reports differ across characteristics 0, 7, 11")

    for p in (0, 7):
        for pl in pls:
            vec = witness_element(rs, pl.J, p)
            _, walls = alcove_reduce(rs, vec)
            if walls != frozenset(pl.J):
                failures.append(f"witness round trip failed for J={pl.J} at p={p}")
            if p > 0 and point_order(vec) % p == 0:
                failures.append(f"witness order not prime to p for J={pl.J} at p={p}")
    return failures


def cmd_component_groups(args) -> int:
    ct = _parse_type(args.type, args.max_rank)
    doc = None
    if args.cache_dir:
        doc = cache_load(str(ct), args.cache_dir)
    if doc is None:
        doc = build_report_document(ct, p=0, budget=args.budget)
        if args.cache_dir:
            cache_store(doc, args.cache_dir)
    if args.format == "json":
        text = serialize_document(doc)
    elif args.format == "csv":
        text = render_csv(doc)
    else:
        text = render_markdown(doc)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    if args.verify:
        failures = _verify(ct, args.budget)
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
        raise UsageError(f"bad --config: {exc}") from None
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def make_parser(defaults: dict | None = None) -> _Parser:
    parser = _Parser(prog="unipcent", description=__doc__)
    parser.add_argument("--config", help="key=value file setting flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("type", help="Cartan type, e.g. E8 or B4")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect",
        )
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--max-rank", type=int, default=DEFAULT_MAX_RANK)

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
    p_cg.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p_cg.add_argument("--out", default=None)
    p_cg.add_argument("--cache-dir", default=None)
    p_cg.add_argument("--verify", action="store_true")
    p_cg.set_defaults(func=cmd_component_groups)

    if defaults:
        known = {"jobs": int, "budget": int, "max_rank": int, "format": str,
                 "out": str, "cache_dir": str}
        casted = {}
        for key, value in defaults.items():
            key = key.replace("-", "_")
            if key in known:
                try:
                    casted[key] = known[key](value)
                except ValueError:
                    raise UsageError(f"bad --config value {key}={value!r}") from None
        parser.set_defaults(**casted)
        for p in (p_roots, p_pl, p_cg):
            p.set_defaults(**{k: v for k, v in casted.items()
                              if any(a.dest == k for a in p._actions)})
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = make_parser().parse_args(argv)
        if args.config:  # a second parse applies the file's defaults
            args = make_parser(_load_config(args.config)).parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded,) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FingerprintError, WitnessSearchExhausted) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
