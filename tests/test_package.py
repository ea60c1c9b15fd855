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
