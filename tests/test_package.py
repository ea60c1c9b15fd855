"""The package's public surface."""

import ast
from pathlib import Path

import pathgibbs


def test_package_root_defines_nothing():
    # the modules are the API: the package root holds its docstring and no
    # re-export, so each public name is stated once, where it is defined
    tree = ast.parse(Path(pathgibbs.__file__).read_text())
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None


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
# A member is named "Class.member".
TEST_REFERENCES = {
    "apply_shift": "per-path reference of the batched shift gaps; the check of the shift map",
    "bridge_marginal": "exact bridge law the pinned sampler test compares with",
    "bridge_conditional": "exact one-step bridge law behind the bridge sampler tests",
    "move_distribution": "exact law of one site or block move for the detailed-balance tests",
    "PairPotential.envelope": "pointwise bound the domination tests check |W| against",
    "transition_density": "Ornstein-Uhlenbeck transition law of acceptance criterion 04",
    "verify_fkf": "Feynman-Kac residual of acceptance criterion 03",
    "fkf_convergence": "Feynman-Kac convergence order of acceptance criterion 03",
}


def _definitions(tree):
    """Top-level functions and classes, and the methods and properties of
    those classes as "Class.member"."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        if isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{member.name}": member for member in node.body
                          if isinstance(member, ast.FunctionDef)})
    return found


def _own_parts(node):
    """What a definition runs or declares itself: a class without its methods."""
    if isinstance(node, ast.ClassDef):
        return [*node.bases, *node.keywords, *node.decorator_list,
                *(n for n in node.body if not isinstance(n, ast.FunctionDef))]
    return [node]


def _names_in(nodes):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_reached(key, live, used):
    cls, _, member = key.rpartition(".")
    if not cls:
        return key in used
    dunder = member.startswith("__") and member.endswith("__")
    return cls in live and (dunder or member in used)


def test_every_definition_is_reached_from_a_command_or_the_benchmark():
    # live roots: the cli entry point, every module's top-level statements
    # outside its definitions, everything perfbench/ uses and the test
    # references; a definition is live once live code names it, and a
    # method or property once its class is live and live code names the
    # member (any attribute of that name counts; dunders always do)
    package = Path(pathgibbs.__file__).parent
    definitions = {}
    used = {"main"} | {key.rpartition(".")[2] for key in TEST_REFERENCES}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        definitions.update(_definitions(tree))
        used |= _names_in(node for node in tree.body
                          if not isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    used |= _names_in(ast.parse(p.read_text()) for p in sorted(bench.glob("*.py")))
    live = set()
    while reached := [key for key in definitions.keys() - live
                      if _is_reached(key, live, used)]:
        live.update(reached)
        used |= _names_in(part for key in reached for part in _own_parts(definitions[key]))
    assert sorted(definitions.keys() - live) == []
    assert sorted(set(TEST_REFERENCES) - set(definitions)) == []


# Parameters with defaults that no command, perfbench workload or other
# module passes: tests set them to read or build what no live caller needs.
# An entry is "function.parameter", a method's without its class.
TEST_INPUTS = {
    "check_shift_inequality.C": "tests read every per-path gap through `violations`",
    "check_shift_inequality.D": "tests read every per-path gap through `violations`",
    "check_shift_inequality.tol": "tests read every per-path gap through `violations`",
    "harmonic.shift": "the spectral shift tests build their inputs with it",
    "main.argv": "tests drive the entry point through it",
}


def _defaulted_parameters(node):
    """(name, position) of each parameter of a def that has a default; the
    position counts the call's positional arguments, so a method's skips self,
    and is None for keyword-only parameters."""
    args = node.args
    positional = args.posonlyargs + args.args
    offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _calls(trees):
    """Callee name -> list of (positional count, keyword names) over every call;
    a function handed to a wrapper counts as called with the arguments after it."""
    found = {}
    for tree in trees:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            keywords = {k.arg for k in call.keywords}
            targets = [(call.func, call.args)] + [(a, call.args[j + 1:])
                                                   for j, a in enumerate(call.args)]
            for func, args in targets:
                if isinstance(func, (ast.Name, ast.Attribute)):
                    name = func.id if isinstance(func, ast.Name) else func.attr
                    found.setdefault(name, []).append((len(args), keywords))
    return found


def test_every_optional_parameter_is_passed_by_live_code():
    # a parameter with a default is live once some call in the package or in
    # perfbench/ passes it, by keyword or by position; calls are matched by
    # the callee's name, as the orphan scan matches definitions
    package = Path(pathgibbs.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))]
    calls = _calls(trees + [ast.parse(p.read_text()) for p in sorted(bench.glob("*.py"))])
    unpassed = []
    for tree in trees:
        for key, node in _definitions(tree).items():
            if isinstance(node, ast.ClassDef):
                continue
            name = key.rpartition(".")[2]
            for param, position in _defaulted_parameters(node):
                if not any(param in keywords or (position is not None and position < count)
                           for count, keywords in calls.get(name, [])):
                    unpassed.append(f"{name}.{param}")
    assert sorted(set(unpassed) - set(TEST_INPUTS)) == []
    assert sorted(set(TEST_INPUTS) - set(unpassed)) == []
