"""Every exported name has a use outside its own definition and the test suite."""
import ast
import importlib
import types
from pathlib import Path

import unipcent

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "unipcent").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

# Reference implementations that tests compare pipeline output against.
REFERENCE_ONLY = {
    "is_distinguished",
    "pairing",
    "apply_word",
    "alcove_reduce_map",
    "lattice_root_closure",
    "cochar_for_labeled_base",
}


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
    assert REFERENCE_ONLY <= exported
    assert sorted(REFERENCE_ONLY & used) == []  # a used name leaves the list
    assert sorted(exported - used - REFERENCE_ONLY) == []


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


PIPELINE_MODULES = ("rootsys", "pseudolevi", "balacarter", "induce", "compgroup")


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
        "dominant_transport",
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
    """Outside the traced stack, no pipeline or cli code loads a name of it,
    and every other reference-only name is defined in oracle.py."""
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
    oracle = ROOT / "src" / "unipcent" / "oracle.py"
    defined = {
        stmt.name
        for stmt in ast.parse(oracle.read_text(), str(oracle)).body
        if isinstance(stmt, ast.FunctionDef)
    }
    assert sorted(REFERENCE_ONLY - {"cochar_for_labeled_base"} - defined) == []
