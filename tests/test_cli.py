"""Command-line behavior: exit codes, formats, determinism, cache, verify."""
import hashlib
import json
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from unipcent.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    FORMATS,
    SCHEMA_VERSION,
    build_report_document,
    cache_load,
    cache_store,
    main,
    render_csv,
    render_markdown,
    serialize_document,
)
from unipcent.errors import FingerprintError, InvariantViolation
from unipcent.rootsys import CartanType, build_root_system


def test_roots_command(capsys):
    assert main(["roots", "A1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "positive roots: 1" in out
    assert "bad primes: none" in out

    assert main(["roots", "E8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "positive roots: 120" in out
    assert "bad primes: 2, 3, 5" in out


def test_usage_errors(capsys):
    assert main(["roots", "Q9"]) == EXIT_USAGE
    assert main(["roots", "A11"]) == EXIT_USAGE  # beyond the default max rank
    assert main(["component-groups", "G2", "--format", "yaml"]) == EXIT_USAGE
    capsys.readouterr()
    for text in ("A\u00b2", "A\u0663"):  # Unicode digits that are not ASCII
        assert main(["roots", text]) == EXIT_USAGE, text
        assert _one_usage_line(capsys), text


def _one_usage_line(capsys):
    captured = capsys.readouterr()
    return (
        captured.out == ""
        and captured.err.startswith("usage error:")
        and captured.err.count("\n") == 1
    )


def test_budget_and_max_rank_below_one(capsys):
    for argv in (
        ["component-groups", "G2", "--budget", "0"],
        ["component-groups", "E6", "--budget", "-3"],
        ["component-groups", "G2", "--max-rank", "0"],
        ["pseudolevis", "G2", "--budget", "0"],
        ["roots", "G2", "--max-rank", "-1"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        assert _one_usage_line(capsys), argv


def test_witness_prime_checked_before_any_output(capsys):
    for p in ("3", "2", "4"):
        assert main(["pseudolevis", "G2", "--witness", p]) == EXIT_USAGE, p
        assert _one_usage_line(capsys), p


def _witness_run(p):
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "unipcent.cli", "pseudolevis", "G2", "--witness", str(p)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=10,
    )


def test_witness_at_a_large_prime_is_fast():
    run = _witness_run(2**61 - 1)
    assert run.returncode == EXIT_OK
    assert run.stdout.splitlines()[1].endswith("| witness order")


def test_witness_rejects_strong_pseudoprimes_and_primes_past_the_bound():
    # strong pseudoprimes to the bases 2-23 and 2-7; 2**64 + 13 is prime, but
    # the primality test decides only p < 2**64
    for p in (3825123056546413051, 3215031751, 2**64 + 13):
        run = _witness_run(p)
        assert run.returncode == EXIT_USAGE, p
        assert run.stdout == ""
        assert run.stderr == f"usage error: characteristic must be 0 or a prime, got {p}\n"


def test_pseudolevis_command(capsys):
    assert main(["pseudolevis", "A1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2 subsystem classes" in out

    assert main(["pseudolevis", "G2", "--witness", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "A2 | 3 | 3" in out.replace("  ", " ")


def test_pseudolevis_keeps_no_table_of_its_own(capsys):
    """A run builds the pseudo-Levi table once, so only the triples stage is kept."""
    assert main(["pseudolevis", "E8"]) == EXIT_OK
    rs = build_root_system(CartanType.parse("E8"))
    assert {stage for stage, _ in rs.results} == {"triples"}


def test_component_groups_json(capsys):
    assert main(["component-groups", "A3", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["cartan_type"] == "A3"
    assert doc["schema_version"] == SCHEMA_VERSION
    assert len(doc["reports"]) == 5  # partitions of 4
    assert all(rep["group_name"] == "trivial" for rep in doc["reports"])


def test_component_groups_markdown_and_csv(capsys):
    assert main(["component-groups", "G2", "--format", "md"]) == EXIT_OK
    md = capsys.readouterr().out
    assert "Sym(3)" in md
    assert md.count("|") > 10

    assert main(["component-groups", "G2", "--format", "csv"]) == EXIT_OK
    csv = capsys.readouterr().out
    lines = csv.strip().splitlines()
    assert lines[0].startswith("cartan_type,diagram,group_name")
    assert len(lines) == 1 + 7  # one row per class


def test_byte_determinism_across_jobs(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main(["component-groups", "B3", "--out", str(one)]) == EXIT_OK
    assert main(["component-groups", "B3", "--out", str(two), "--jobs", "2"]) == EXIT_OK
    assert one.read_bytes() == two.read_bytes()


RENDERERS = {"json": serialize_document, "csv": render_csv, "md": render_markdown}
ROOT = Path(__file__).resolve().parent.parent


def _entry_name(ctype, fmt):
    from unipcent import __version__

    return f"{ctype}-s{SCHEMA_VERSION}-v{__version__}.{fmt}"


def _write_forged(path, body):
    """Write body to a cache entry under the checksum line that matches it."""
    crc = zlib.crc32((path.name + "\n" + body).encode())
    path.write_text(f"{crc:08x}\n{body}")


def test_cache_round_trip(tmp_path, capsys):
    doc = build_report_document(CartanType.parse("A2"))
    paths = cache_store(doc, tmp_path)
    assert sorted(paths) == sorted(FORMATS)
    for fmt, path in paths.items():
        assert path.exists()
        assert cache_load("A2", fmt, tmp_path) == RENDERERS[fmt](doc)
    # two stores of the same computation are byte-identical
    before = {fmt: path.read_bytes() for fmt, path in paths.items()}
    cache_store(build_report_document(CartanType.parse("A2")), tmp_path)
    assert {fmt: path.read_bytes() for fmt, path in paths.items()} == before
    assert capsys.readouterr().err == ""


def test_cache_entry_is_named_by_type_schema_and_version(tmp_path, capsys):
    from unipcent import __version__

    paths = cache_store(build_report_document(CartanType.parse("A2")), tmp_path)
    assert {fmt: path.name for fmt, path in paths.items()} == {
        "json": f"A2-s{SCHEMA_VERSION}-v{__version__}.json",
        "csv": f"A2-s{SCHEMA_VERSION}-v{__version__}.csv",
        "md": f"A2-s{SCHEMA_VERSION}-v{__version__}.md",
    }
    # An entry an older version wrote is under another name: a miss.
    for fmt, path in paths.items():
        path.rename(tmp_path / f"A2-s{SCHEMA_VERSION}-v0.0.1.{fmt}")
        assert cache_load("A2", fmt, tmp_path) is None
    assert capsys.readouterr().err == ""


def test_cache_store_removes_its_types_entries_from_other_versions(tmp_path):
    from unipcent import __version__

    stale = [
        f"A2-s{SCHEMA_VERSION}-v0.0.1.json",
        f"A2-s{SCHEMA_VERSION}-v0.0.1.md",
        f"A2-s{SCHEMA_VERSION + 1}-v{__version__}.json",
    ]
    kept = [
        f"A20-s{SCHEMA_VERSION}-v0.0.1.json",  # another type
        f"B2-s{SCHEMA_VERSION}-v0.0.1.json",
        "2afc957ca56472a6fa80f0b6.json",  # not a <type>-s*-v*.json name
        "A2-notes.txt",
    ]
    for name in stale + kept:
        (tmp_path / name).write_text("{}")
    (tmp_path / f"A2-s{SCHEMA_VERSION}-v0.0.2.json").mkdir()  # not a file: kept
    paths = cache_store(build_report_document(CartanType.parse("A2")), tmp_path)
    current = [path.name for path in paths.values()]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        kept + current + [f"A2-s{SCHEMA_VERSION}-v0.0.2.json"]
    )
    for fmt in FORMATS:
        assert cache_load("A2", fmt, tmp_path) is not None


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    """Every run imports the CLI first, so its import path stays light.

    zlib, which only the cache needs, is imported when the cache is used.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, unipcent.cli;"
        " print(sorted({'dataclasses', 'inspect', 'hashlib', 'zlib'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_cache_misses(tmp_path, capsys):
    assert cache_load("A2", "json", tmp_path) is None
    doc = build_report_document(CartanType.parse("A2"))
    path = cache_store(doc, tmp_path)["json"]
    # a schema bump's body under this version's name: no checksum line, so corrupt
    mutated = dict(doc, schema_version=SCHEMA_VERSION + 1)
    path.write_text(serialize_document(mutated))
    assert cache_load("A2", "json", tmp_path) is None
    err = capsys.readouterr().err
    assert "corrupt" in err
    for corrupt in (b"{ not json", b"\xff\xfe{}", b"[1, 2]"):
        path.write_bytes(corrupt)
        assert cache_load("A2", "json", tmp_path) is None
        err = capsys.readouterr().err
        assert "corrupt" in err
    assert main(["component-groups", "A2", "--cache-dir", str(tmp_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == doc


def _stub_bodies(doc):
    """Entries with the right versions and type but a body not of the writer's shape.

    The renderers cannot read the first five; they would print the last
    three wrong (True in the class orders, "x None" and "True 7" in a CSV
    row, an extra key and garbage labels in the JSON).
    """
    head = {k: doc[k] for k in ("schema_version", "code_version", "cartan_type")}
    rep = doc["reports"][0]
    rec = rep["classes"][0]
    no_j = {k: v for k, v in rec.items() if k != "J"}
    order_true = [
        dict(r, classes=[dict(c, order=True) if c["order"] == 1 else c for c in r["classes"]])
        for r in doc["reports"]
    ]  # int(True) == 1, so the groups are still recognized
    return [
        head,
        dict(head, good_primes_note=doc["good_primes_note"], reports={}),
        dict(doc, reports=[{k: v for k, v in rep.items() if k != "group_name"}]),
        dict(doc, reports=[dict(rep, classes=[no_j])]),
        dict(doc, reports=[dict(rep, classes=[dict(rec, factor_types=[1])])]),
        dict(doc, reports=order_true),
        dict(doc, reports=[dict(rep, diagram=["x", None], classes=[dict(rec, J=[True, "7"])])]),
        dict(doc, comment="edited by hand", reports=[dict(rep, classes=[dict(rec, labels="garbage")])]),
    ]


@pytest.mark.parametrize("fmt", ["json", "md", "csv"])
def test_cache_entry_without_a_readable_body(tmp_path, capsys, fmt):
    assert main(["component-groups", "A2", "--format", fmt]) == EXIT_OK
    uncached = capsys.readouterr().out
    doc = build_report_document(CartanType.parse("A2"))
    for stub in _stub_bodies(doc):
        path = cache_store(doc, tmp_path)[fmt]
        path.write_text(json.dumps(stub))
        argv = ["component-groups", "A2", "--format", fmt, "--cache-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == uncached
        assert "corrupt" in captured.err
        assert cache_load("A2", fmt, tmp_path) == uncached  # the recompute replaced the stub


def test_cache_entry_whose_groups_do_not_match_its_orders(tmp_path, capsys):
    assert main(["component-groups", "G2", "--format", "md"]) == EXIT_OK
    uncached = capsys.readouterr().out
    doc = build_report_document(CartanType.parse("G2"))
    trivial = next(k for k, rep in enumerate(doc["reports"]) if rep["diagram"] == [0, 0])
    assert doc["reports"][trivial]["group_name"] == "trivial"
    renamed = json.loads(serialize_document(doc))
    renamed["reports"][trivial]["group_name"] = "Sym(5)"
    no_identity = json.loads(serialize_document(doc))
    no_identity["reports"][trivial]["classes"][0]["order"] = 2  # InputError
    negative = json.loads(serialize_document(doc))
    subregular = next(k for k, rep in enumerate(doc["reports"]) if len(rep["classes"]) == 3)
    for rec in negative["reports"][subregular]["classes"]:
        if rec["order"] == 2:
            rec["order"] = -2  # InputError: a coset order below 1
    for tampered in (renamed, no_identity, negative):
        path = cache_store(doc, tmp_path)["md"]
        path.write_text(render_markdown(tampered))
        argv = ["component-groups", "G2", "--format", "md", "--cache-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == uncached and "Sym(5)" not in captured.out
        assert "corrupt" in captured.err
        assert cache_load("G2", "md", tmp_path) == uncached  # the recompute replaced the entry


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_cache_hit_prints_its_bytes_without_parsing_or_rebuilding(tmp_path, monkeypatch, capsys, fmt):
    """A hit reads one file: no JSON parse, no document, no group recognition."""
    import unipcent.cli as cli

    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["sha256"]
    argv = ["component-groups", "G2", "--format", fmt, "--cache-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK  # the miss fills the cache
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("called on a cache hit")

    monkeypatch.setattr(cli.json, "loads", refuse)
    monkeypatch.setattr(cli, "build_report_document", refuse)
    monkeypatch.setattr(cli, "recognize_group_from_torsion", refuse, raising=False)
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == golden["G2"][fmt]
    assert captured.err == ""


def test_cache_entry_that_lost_its_last_report_is_not_served(tmp_path, capsys):
    """Without --verify, an entry cut short is recomputed, not printed with exit 0."""
    doc = build_report_document(CartanType.parse("G2"))
    short = serialize_document(dict(doc, reports=doc["reports"][:-1]))

    def drop_last_row(text):
        return text[: text.rstrip("\n").rindex("\n") + 1]

    cases = [
        ("json", lambda text: short),  # as earlier versions wrote an entry
        ("json", lambda text: text.partition("\n")[0] + "\n" + short),  # checksum line kept
        ("csv", drop_last_row),
        ("md", drop_last_row),
    ]
    for fmt, doctor in cases:
        assert main(["component-groups", "G2", "--format", fmt]) == EXIT_OK
        uncached = capsys.readouterr().out
        argv = ["component-groups", "G2", "--format", fmt, "--cache-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        path = tmp_path / _entry_name("G2", fmt)
        path.write_text(doctor(path.read_text()))
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == uncached, fmt
        assert captured.err == f"warning: ignoring corrupt cache entry {path}\n"


def test_cache_entry_not_written_under_its_name_is_replaced(tmp_path, capsys):
    """Each is warned corrupt once, recomputed, and overwritten with the right entry."""
    a2 = cache_store(build_report_document(CartanType.parse("A2")), tmp_path)
    entries = {fmt: path.read_text() for fmt, path in a2.items()}
    a3 = cache_store(build_report_document(CartanType.parse("A3")), tmp_path)
    cases = []
    for fmt, other in zip(FORMATS, FORMATS[1:] + FORMATS[:1]):
        line, _, body = entries[fmt].partition("\n")
        flipped = body[:-2] + chr(ord(body[-2]) ^ 1) + body[-1:]
        cases += [
            (fmt, a3[fmt].read_text()),  # another type's entry
            (fmt, entries[other]),  # another format's entry
            (fmt, line + "\n"),  # the checksum line alone
            (fmt, line + "\n" + flipped),  # one body byte flipped
            (fmt, body),  # no checksum line: for json, the entry earlier versions wrote
        ]
    for fmt, text in cases:
        assert main(["component-groups", "A2", "--format", fmt]) == EXIT_OK
        uncached = capsys.readouterr().out
        a2[fmt].write_text(text)
        argv = ["component-groups", "A2", "--format", fmt, "--cache-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == uncached
        assert captured.err == f"warning: ignoring corrupt cache entry {a2[fmt]}\n"
        assert a2[fmt].read_text() == entries[fmt]


@pytest.mark.parametrize("target", ["--out", "--cache-dir"])
def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch, capsys, target):
    if target == "--out":
        old = tmp_path / "g2.json"
        argv = ["component-groups", "G2", "--out", str(old)]
        names = [old.name]
    else:
        paths = cache_store(build_report_document(CartanType.parse("G2")), tmp_path)
        old = paths["json"]
        argv = ["component-groups", "G2", "--cache-dir", str(tmp_path)]
        names = [path.name for path in paths.values()]
    old.write_text("{ an entry the run will replace\n")
    before = old.read_bytes()
    write_text = Path.write_text

    def half_then_fail(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    assert main(argv) == EXIT_USAGE
    monkeypatch.undo()
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)  # no .tmp file
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("usage error: cannot write")


def test_cache_dir_not_a_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    argv = ["component-groups", "A2", "--cache-dir", str(blocker)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


def test_verify_passes_the_budget_to_every_canonical_search(monkeypatch, capsys):
    import unipcent.cli as cli

    seen = []
    original = cli.canonical_subsystem

    def recording(rs, subsystem, budget=None):
        seen.append(budget)
        return original(rs, subsystem, budget=budget)

    monkeypatch.setattr(cli, "canonical_subsystem", recording)
    budget = 10**6 + 7
    assert main(["component-groups", "B3", "--verify", "--budget", str(budget)]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().err
    assert len(seen) > 8  # the subset side: one canon per subsystem class of B3
    assert set(seen) == {budget}


def test_verify_passes_the_budget_to_the_alcove_oracle(monkeypatch, capsys):
    import unipcent.oracle as oracle

    seen = []
    original = oracle.canonical_subsystem

    def recording(rs, subsystem, budget=None):
        seen.append(budget)
        return original(rs, subsystem, budget=budget)

    monkeypatch.setattr(oracle, "canonical_subsystem", recording)
    budget = 10**6 + 7
    assert main(["component-groups", "B3", "--verify", "--budget", str(budget)]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().err
    assert seen  # the alcove-point side of the rank <= 4 oracle
    assert set(seen) == {budget}


def test_verify_rejects_an_order_one_datum_on_the_affine_node(monkeypatch, capsys):
    """J = (affine node,) spans a Levi up to conjugacy in B3, but is not standard."""
    import unipcent.cli as cli

    original = cli.component_group_report

    def doctored(rs, p=0, budget=None):
        reports = original(rs, p=p, budget=budget)
        for diagram, rep in reports.items():
            if any(rec.order == 1 and rec.J == (0,) for rec in rep.classes):
                classes = tuple(
                    rec._replace(J=(rs.rank,)) if rec.order == 1 else rec
                    for rec in rep.classes
                )
                return {**reports, diagram: rep._replace(classes=classes)}
        raise AssertionError("no order-1 record with J = (0,)")

    monkeypatch.setattr(cli, "component_group_report", doctored)
    assert main(["component-groups", "B3", "--verify"]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "order-1 datum is not a Levi" in err
    assert "order-1 classes" not in err


def test_verify_rejects_a_pair_orbit_recount_that_differs(monkeypatch, capsys):
    import unipcent.cli as cli

    original = cli.count_pair_orbits
    monkeypatch.setattr(cli, "count_pair_orbits", lambda rs, budget: original(rs, budget) + 1)
    assert main(["component-groups", "G2", "--verify"]) == EXIT_VERIFY
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["verify: pair-orbit recount 8 != report classes 7"]


@pytest.mark.parametrize(
    "doctor, message",
    [
        (
            lambda levels, beyond: [levels[0] | {"bogus"}, *levels[1:], beyond],
            "alcove-point oracle disagrees with subset enumeration",
        ),
        (
            lambda levels, beyond: [*levels, beyond | {"bogus"}],
            "alcove-point enumeration not stabilized at the bound",
        ),
    ],
)
def test_verify_rejects_a_doctored_alcove_oracle(doctor, message, monkeypatch, capsys):
    """A subsystem class only the points give, below the bound or beyond it."""
    import unipcent.cli as cli

    original = cli.alcove_pseudolevis_by_denominator

    def doctored(rs, max_denominator, budget):
        *levels, beyond = original(rs, max_denominator, budget)
        return doctor(levels, beyond)

    monkeypatch.setattr(cli, "alcove_pseudolevis_by_denominator", doctored)
    assert main(["component-groups", "B3", "--verify"]) == EXIT_VERIFY
    assert capsys.readouterr().err.splitlines() == [f"verify: {message}"]


def test_verify_rejects_a_witness_order_divisible_by_p(monkeypatch, capsys):
    import unipcent.cli as cli
    from unipcent import enumerate_pseudolevis

    monkeypatch.setattr(cli, "point_order", lambda vec: 7)
    assert main(["component-groups", "G2", "--verify"]) == EXIT_VERIFY
    lines = capsys.readouterr().err.splitlines()
    pls = enumerate_pseudolevis(build_root_system(CartanType.parse("G2")))
    assert lines == [f"verify: witness order not prime to p for J={pl.J} at p=7" for pl in pls]


def test_verify_rejects_a_classical_group_its_partition_does_not_give(monkeypatch, capsys):
    """B4's rows are checked against the partition formula, not only its diagrams."""
    import unipcent.cli as cli

    original = cli.component_group_report

    def doctored(rs, p=0, budget=None):
        reports = original(rs, p=p, budget=budget)
        diagram, rep = next((d, r) for d, r in reports.items() if r.group_name == "ElemAb2(1)")
        return {**reports, diagram: rep._replace(group_name="trivial")}

    monkeypatch.setattr(cli, "component_group_report", doctored)
    assert main(["component-groups", "B4", "--verify"]) == EXIT_VERIFY
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verify: diagram (")
    assert "group trivial, partition [" in lines[0] and lines[0].endswith("gives ElemAb2(1)")


@pytest.mark.parametrize("name", ["D6", "C8"])
def test_verify_rejects_a_diagram_no_partition_gives(name, monkeypatch, capsys):
    """The partition oracle runs above rank 4: a rewritten report key is caught."""
    import unipcent.cli as cli

    original = cli.component_group_report

    def doctored(rs, p=0, budget=None):
        reports = original(rs, p=p, budget=budget)
        *kept, last = reports.items()
        bad = (3,) * rs.rank  # weighted-diagram labels lie in {0, 1, 2}
        return {**dict(kept), bad: last[1]._replace(diagram=bad)}

    monkeypatch.setattr(cli, "component_group_report", doctored)
    assert main(["component-groups", name, "--verify"]) == EXIT_VERIFY
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["verify: partition oracle diagrams disagree with report keys"]


@pytest.mark.parametrize("name", ["B2", "D3", "F4"])
def test_verify_small_type(name, capsys):
    assert main(["component-groups", name, "--verify"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "all checks passed" in err


def test_verify_checks_the_served_cache_entry(tmp_path, capsys):
    """An entry that lost a report and had one J rewritten, under a forged checksum, is caught."""
    doc = build_report_document(CartanType.parse("G2"))
    doctored = json.loads(serialize_document(doc))
    del doctored["reports"][-1]
    doctored["reports"][0]["classes"][0]["J"] = [2]
    _write_forged(cache_store(doc, tmp_path)["json"], serialize_document(doctored))
    argv = ["component-groups", "G2", "--cache-dir", str(tmp_path), "--verify"]
    assert main(argv) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert json.loads(captured.out) == doctored  # the entry was served
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verify: served document differs")


def test_verify_failure_exit_code(monkeypatch, capsys):
    import unipcent.cli as cli

    monkeypatch.setattr(cli, "_verify", lambda ct, budget, fmt, served: ["forced failure"])
    assert main(["component-groups", "A1", "--verify"]) == 2
    assert "forced failure" in capsys.readouterr().err


def test_unrecognized_fingerprint_exit_code(monkeypatch, capsys):
    import unipcent.cli as cli

    def unrecognized(rs, p=0, budget=None):
        raise FingerprintError("no candidate group has 6 classes")

    monkeypatch.setattr(cli, "component_group_report", unrecognized)
    assert main(["component-groups", "G2"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: no candidate group has 6 classes\n"


def test_invariant_violation_exit_code(monkeypatch, capsys):
    import unipcent.cli as cli

    def broken(rs, p=0, budget=None):
        raise InvariantViolation("dominant reduction failed to terminate")

    monkeypatch.setattr(cli, "component_group_report", broken)
    assert main(["component-groups", "G2"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violated: dominant reduction failed to terminate\n"


def test_budget_exit_code(capsys):
    for name in ("C6", "E6", "G2"):
        rc = main(["component-groups", name, "--budget", "1"])
        assert rc == EXIT_BUDGET, name
        assert "budget exceeded" in capsys.readouterr().err
    assert main(["component-groups", "G2", "--budget", "2"]) == EXIT_OK


def test_budget_holds_after_an_unbudgeted_run(capsys):
    assert main(["component-groups", "E6"]) == EXIT_OK
    assert main(["component-groups", "E6", "--budget", "1"]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("format=md\nmax_rank=8\n")
    assert main(["--config", str(cfg), "component-groups", "G2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# Component groups for G2")
    assert main([f"--config={cfg}", "component-groups", "G2"]) == EXIT_OK
    assert capsys.readouterr().out == out


def test_config_value_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("jobs=abc\n")
    assert main(["--config", str(cfg), "component-groups", "G2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "jobs" in err
    assert err.count("\n") == 1


def test_config_keys_and_choices_follow_the_options(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    for text in ("format=xml\n", "bogus_key=1\n", "budget=0\n", "max_rank=-2\n",
                 "verify=1\n", "config=other\n"):
        cfg.write_text(text)
        assert main(["--config", str(cfg), "component-groups", "G2"]) == EXIT_USAGE, text
        assert _one_usage_line(capsys), text
    cfg.write_text("jobs=2\nformat=csv\nbudget=1000\n")
    assert main(["--config", str(cfg), "component-groups", "G2"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("cartan_type,diagram")
    # a key another subcommand takes is accepted and left to that subcommand
    assert main(["--config", str(cfg), "roots", "G2"]) == EXIT_OK
    assert "positive roots: 6" in capsys.readouterr().out


def test_config_file_that_cannot_be_read(tmp_path, capsys):
    argv = ["--config", str(tmp_path / "missing.cfg"), "roots", "A2"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: bad --config:")
    assert captured.err.count("\n") == 1


def test_config_line_without_an_equals_sign_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    for text in ("budget 1\n", "# comment\n\nformat: md\n"):
        cfg.write_text(text)
        assert main(["--config", str(cfg), "component-groups", "E6"]) == EXIT_USAGE, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--config line" in err, text
    assert "line 3" in err
    cfg.write_text("# comment\n\nbudget=1\n")
    assert main(["--config", str(cfg), "component-groups", "E6"]) == EXIT_BUDGET


def test_out_not_writable(tmp_path, capsys):
    assert main(["component-groups", "G2", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    # A missing directory: the one line names the path given, not a .tmp file.
    out = str(tmp_path / "missing" / "x.json")
    assert main(["component-groups", "G2", "--format", "md", "--out", out]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"usage error: cannot write --out: {out}:")
    assert ".tmp" not in captured.err


def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    assert main(["component-groups", "A2"]) == EXIT_OK
    expected = capsys.readouterr().out
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["component-groups", "A2", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_text() == expected


def test_out_to_a_pipe_is_written_in_place(tmp_path, capsys):
    assert main(["component-groups", "A2"]) == EXIT_OK
    expected = capsys.readouterr().out
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    assert main(["component-groups", "A2", "--out", str(pipe)]) == EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [expected]
    assert pipe.is_fifo()  # not replaced by a regular file


def _unwritable_stdout(kind: str):
    """A file object for a child's stdout that every write fails on."""
    if kind == "/dev/full":
        return open("/dev/full", "wb")
    read_end, write_end = os.pipe()
    os.close(read_end)  # a write now fails with EPIPE
    return open(write_end, "wb")


@pytest.mark.parametrize("kind", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize(
    "command",
    [
        "roots E8",
        "pseudolevis E8",
        "component-groups E8",
        "--help",
        "component-groups -h",
        "pseudolevis --help",
    ],
)
def test_a_failed_stdout_write_is_one_usage_line(command, kind):
    """Buffered or not, the child exits 1 with one stderr line and no traceback.

    Help text is printed by argparse, which would drop the failed write and
    exit 0.
    """
    if kind == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    children = []
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with _unwritable_stdout(kind) as out:
            children.append(subprocess.Popen(
                [sys.executable, "-m", "unipcent.cli", *command.split()],
                stdout=out, stderr=subprocess.PIPE, env={**env, **unbuffered}, text=True,
            ))
    for child in children:
        _, err = child.communicate(timeout=60)
        assert child.returncode == EXIT_USAGE, err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("usage error: cannot write stdout: "), err


@pytest.mark.parametrize("command", ["--help", "component-groups -h", "pseudolevis --help"])
def test_help_to_a_healthy_stdout_exits_0(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main(command.split())
    assert stop.value.code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: unipcent") and captured.err == ""


def test_display_names_attached(capsys):
    assert main(["component-groups", "G2", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    by_diagram = {tuple(rep["diagram"]): rep for rep in doc["reports"]}
    assert by_diagram[(0, 0)]["display_name"] == "trivial class"
    assert by_diagram[(2, 2)]["display_name"] == "regular class"
    named = by_diagram[(0, 2)]
    assert named["group_name"] == "Sym(3)"
    assert "G2(a1)" in named["display_name"]
