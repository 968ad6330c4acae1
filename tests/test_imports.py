"""No module of the package imports another module's private name: a rule
that two modules share belongs to one of them, under a public name."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wssda

MODULES = sorted(Path(wssda.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_is_imported_from_another_module(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "wssda")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
