"""Command-line behavior: exit codes, formats, determinism, cache, verify."""
import json

import pytest

from unipcent.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    build_report_document,
    cache_load,
    cache_store,
    main,
    serialize_document,
)
from unipcent.rootsys import CartanType


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


def test_pseudolevis_command(capsys):
    assert main(["pseudolevis", "A1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2 subsystem classes" in out

    assert main(["pseudolevis", "G2", "--witness", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "A2 | 3 | 3" in out.replace("  ", " ")


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


def test_cache_round_trip(tmp_path, capsys):
    doc = build_report_document(CartanType.parse("A2"))
    path = cache_store(doc, tmp_path)
    assert path.exists()
    loaded = cache_load("A2", tmp_path)
    assert loaded == doc
    assert serialize_document(loaded) == serialize_document(doc)
    # two stores of the same computation are byte-identical
    before = path.read_bytes()
    cache_store(build_report_document(CartanType.parse("A2")), tmp_path)
    assert path.read_bytes() == before


def test_cache_misses(tmp_path, capsys):
    assert cache_load("A2", tmp_path) is None
    doc = build_report_document(CartanType.parse("A2"))
    path = cache_store(doc, tmp_path)
    # version bump: stored under another key, so a miss
    mutated = dict(doc, schema_version=SCHEMA_VERSION + 1)
    path.write_text(serialize_document(mutated))
    assert cache_load("A2", tmp_path) is None
    err = capsys.readouterr().err
    assert "mismatched" in err
    for corrupt in (b"{ not json", b"\xff\xfe{}", b"[1, 2]"):
        path.write_bytes(corrupt)
        assert cache_load("A2", tmp_path) is None
        err = capsys.readouterr().err
        assert "corrupt" in err
    assert main(["component-groups", "A2", "--cache-dir", str(tmp_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == doc


@pytest.mark.parametrize("name", ["B2", "D3", "F4"])
def test_verify_small_type(name, capsys):
    assert main(["component-groups", name, "--verify"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "all checks passed" in err


def test_verify_failure_exit_code(monkeypatch, capsys):
    import unipcent.cli as cli

    monkeypatch.setattr(cli, "_verify", lambda ct, budget: ["forced failure"])
    assert main(["component-groups", "A1", "--verify"]) == 2
    assert "forced failure" in capsys.readouterr().err


def test_budget_exit_code(capsys):
    for name in ("C6", "E6"):
        rc = main(["component-groups", name, "--budget", "1"])
        assert rc == EXIT_BUDGET, name
        assert "budget exceeded" in capsys.readouterr().err


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


def test_out_not_writable(tmp_path, capsys):
    assert main(["component-groups", "G2", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_display_names_attached(capsys):
    assert main(["component-groups", "G2", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    by_diagram = {tuple(rep["diagram"]): rep for rep in doc["reports"]}
    assert by_diagram[(0, 0)]["display_name"] == "trivial class"
    assert by_diagram[(2, 2)]["display_name"] == "regular class"
    named = by_diagram[(0, 2)]
    assert named["group_name"] == "Sym(3)"
    assert "G2(a1)" in named["display_name"]
