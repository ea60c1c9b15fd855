"""The package's public surface."""

import ast
from pathlib import Path

import pathgibbs


def test_every_exported_name_resolves():
    # a star import raises AttributeError for any name in __all__ the package lacks
    exec("from pathgibbs import *", {})


def test_modules_import_no_private_names_from_siblings():
    offenders = []
    for path in sorted(Path(pathgibbs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("pathgibbs")):
                offenders += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


# Kept although no command, perfbench workload or other module calls them:
# tests compare the package against them or build their inputs with them.
TEST_REFERENCES = {
    "apply_shift": "per-path reference of the batched shift gaps; the check of the shift map",
    "bridge_marginal": "exact bridge law the pinned sampler test compares with",
    "bridge_conditional": "exact one-step bridge law behind the bridge sampler tests",
    "single_move_distribution": "exact one-site transition law for the detailed-balance test",
    "transition_density": "Ornstein-Uhlenbeck transition law of acceptance criterion 04",
    "verify_fkf": "Feynman-Kac residual of acceptance criterion 03",
    "fkf_convergence": "Feynman-Kac convergence order of acceptance criterion 03",
    "pair_from_table": "the tabulated W with W(0, 0) != 0 of the quadrature tests",
    "site_from_table": "the tabulated V of the site-table test, the catalog's table kind",
}


def _top_level_definitions(tree):
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _names_in(nodes):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_is_reached_from_a_command_or_the_benchmark():
    # live roots: the cli entry point, every module's top-level statements
    # outside its definitions, everything perfbench/ uses and the test
    # references; then every definition that live code names is live too
    package = Path(pathgibbs.__file__).parent
    definitions = {}
    roots = {"main"}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        definitions.update(_top_level_definitions(tree))
        roots |= _names_in(node for node in tree.body
                           if not isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    roots |= _names_in(ast.parse(p.read_text()) for p in sorted(bench.glob("*.py")))
    live, todo = set(), [name for name in roots | set(TEST_REFERENCES) if name in definitions]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += [n for n in _names_in([definitions[name]]) if n in definitions]
    assert sorted(set(definitions) - live) == []
    assert sorted(set(TEST_REFERENCES) - set(definitions)) == []
