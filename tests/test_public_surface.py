"""Every exported name has a use outside its own definition and the test suite."""
import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import unipcent
from unipcent import CartanType, build_root_system, distinguished_classes
from unipcent.rootsys import coroot_coefficients

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "unipcent").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names read in a module, skipping the body of each top-level definition of that name."""
    out = set()

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != owner:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            owner = next((t.id for t in targets if isinstance(t, ast.Name)), None)
        visit(stmt, owner)
    return out


def test_every_exported_name_is_used():
    used = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            used |= _loaded_names(ast.parse(path.read_text(), str(path)))
    exported = {
        name
        for name in unipcent.__all__
        if not isinstance(getattr(unipcent, name), types.ModuleType)
    }
    assert sorted(exported - used) == []


# Caches of whole results per (root system, budget); per-type tables and
# stage results belong to the RootSystem itself.
RESULT_CACHES = set()


def _is_lru_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target).split(".")[-1] == "lru_cache"


def _first_parameter_type(node: ast.FunctionDef) -> str:
    args = node.args.args
    return ast.unparse(args[0].annotation) if args and args[0].annotation else ""


def test_no_lru_cache_is_keyed_on_a_root_system():
    keyed = set()
    for path in (ROOT / "src" / "unipcent").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.FunctionDef)
                and any(_is_lru_cache(d) for d in node.decorator_list)
                and "RootSystem" in _first_parameter_type(node)
            ):
                keyed.add(node.name)
    assert keyed == RESULT_CACHES


def test_build_root_system_is_the_only_lru_cache():
    """One cache, owned by rootsys, with one entry per Cartan type built;
    every other per-type table is a cached_property of its RootSystem."""
    cached, loads = set(), 0
    for path in (ROOT / "src" / "unipcent").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(map(_is_lru_cache, node.decorator_list)):
                cached.add(f"{path.stem}.{node.name}")
            loaded = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            loads += loaded == "lru_cache"
    assert cached == {"rootsys.build_root_system"} and loads == 1


def test_factor_tables_are_read_off_the_factor_root_system():
    """distinguished_classes and coroot_coefficients read the one table of
    each factor type that its RootSystem holds."""
    e8 = build_root_system(CartanType("E", 8))
    factor_types = {ct for comps in e8.subset_components.values() for ct, _ in comps}
    assert len(factor_types) > 10
    for ct in factor_types:
        rs = build_root_system(ct)
        assert distinguished_classes(ct) is rs.distinguished_labelings
        vars(rs).pop("cartan_inverse", None)  # rebuilt, equal, on the next read
        coroot_coefficients(ct, (2,) * ct.rank)
        assert "cartan_inverse" in vars(rs)


PIPELINE_MODULES = ("conjugacy", "rootsys", "pseudolevi", "balacarter", "induce", "compgroup")


def _imported_names(tree: ast.Module) -> set[str]:
    """The last dotted part of every module and name an import statement names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {alias.name.split(".")[-1] for alias in node.names}
        if isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[-1])
    return out


def test_no_pipeline_module_imports_the_oracle():
    """Reference code checks the pipeline, so the pipeline must not lean on it."""
    importers = []
    for name in PIPELINE_MODULES:
        path = ROOT / "src" / "unipcent" / f"{name}.py"
        if "oracle" in _imported_names(ast.parse(path.read_text(), str(path))):
            importers.append(name)
    assert importers == []


# The reference functions perfbench/shim.py traces by module name, with the
# helpers only they call: the root-base split base_components (the reference
# for RootSystem.subset_components) and its _component_split.  They stay in
# the pipeline modules until the trace list moves with them; every other
# reference lives in oracle.py.
TRACED_REFERENCES = {
    "rootsys": {
        "canonical_labeled_set",
        "to_dominant",
        "solve_cochar_for_base",
    },
    "induce": {"cochar_for_labeled_base", "induced_diagram"},
    "pseudolevi": {"base_components", "_component_split"},
}


def test_every_traced_name_resolves():
    """perfbench/shim.py's TRACED, read without importing it, names only
    functions that exist: Tracer.install raises on a missing one."""
    shim = ROOT / "perfbench" / "shim.py"
    (traced,) = [
        ast.literal_eval(stmt.value)
        for stmt in ast.parse(shim.read_text(), str(shim)).body
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "TRACED"
    ]
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"unipcent.{module}"), name, None))
    ]
    assert len(traced) >= 7 and missing == []


def test_the_report_path_calls_no_reference_code():
    """Outside the traced stack, no pipeline or cli code loads a name of it."""
    stack = set().union(*TRACED_REFERENCES.values())
    leaks = []
    for name in PIPELINE_MODULES + ("cli",):
        path = ROOT / "src" / "unipcent" / f"{name}.py"
        body = ast.parse(path.read_text(), str(path)).body
        defined_here = {getattr(stmt, "name", None) for stmt in body}
        assert TRACED_REFERENCES.get(name, set()) <= defined_here
        for stmt in body:
            owner = getattr(stmt, "name", "<module>")
            if owner in TRACED_REFERENCES.get(name, ()):
                continue
            for node in ast.walk(stmt):
                loaded = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if loaded in stack and isinstance(getattr(node, "ctx", None), ast.Load):
                    leaks.append(f"{name}.{owner} loads {loaded}")
    assert leaks == []


def test_the_package_root_loads_no_reference_module():
    """A fresh interpreter's import unipcent loads no unipcent.oracle; import
    unipcent.cli, which --verify needs, binds unipcent.oracle and
    unipcent.induce, the package attributes perfbench/shim.py traces."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import unipcent;"
        " print(unipcent.__file__, 'unipcent.oracle' in sys.modules);"
        " import unipcent.cli; print(*sorted({'induce', 'oracle'} & vars(unipcent).keys()))"
    )
    src = ROOT / "src"
    run = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src)], capture_output=True, text=True
    )
    assert run.stdout.splitlines() == [
        f"{src / 'unipcent' / '__init__.py'} False",
        "induce oracle",
    ], run.stderr


# The walks that decide Weyl conjugacy, and their budget.
CONJUGACY_NAMES = (
    "DEFAULT_BUDGET",
    "_check_budget",
    "_closure",
    "_reflect_to_dominant",
    "_stabilizer_orbit",
    "_zero_nodes",
    "partition_orbits",
    "transport_start",
)


def _imports_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "unipcent"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "unipcent" for alias in node.names
    )


def test_conjugacy_imports_only_errors():
    """A fresh interpreter that imports conjugacy, without running the
    package's __init__, loads no package module but errors, so rootsys
    imports it one way; and no module in src imports a package module
    inside a function (fractions and zlib are loaded late on purpose)."""
    probe = (
        "import sys, types; pkg = types.ModuleType('unipcent'); pkg.__path__ = [sys.argv[1]];"
        " sys.modules['unipcent'] = pkg; import unipcent.conjugacy;"
        " print(*sorted(m for m in sys.modules if m.startswith('unipcent.')))"
    )
    src = str(ROOT / "src" / "unipcent")
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, src], capture_output=True, text=True
    )
    assert run.stdout.split() == ["unipcent.conjugacy", "unipcent.errors"], run.stderr
    nested = []
    for path in (ROOT / "src" / "unipcent").glob("*.py"):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                nested += [
                    f"{path.stem}.{stmt.name}"
                    for node in ast.walk(stmt)
                    if _imports_the_package(node)
                ]
    assert nested == []


def test_the_walks_are_defined_once_in_conjugacy():
    """Each walk name has one definition in src, in conjugacy; the transport
    reference dominant_transport has one, in oracle."""
    owners: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "unipcent").glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt]
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", None))
                owners.setdefault(name, []).append(path.stem)
    expected = dict.fromkeys(CONJUGACY_NAMES, ["conjugacy"]) | {"dominant_transport": ["oracle"]}
    assert {name: owners.get(name) for name in expected} == expected
