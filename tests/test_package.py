"""Package hygiene: no dead module-level imports, and the README example runs.

The import walk covers the package modules (but __init__, whose imports are
its exports) and the test modules.
"""

import ast
import doctest
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path for path in (ROOT / "src" / "ekrperm").glob("*.py") if path.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that no expression in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import pi as p\n"
    assert unused_imports(source + "print(sys.argv)\n") == ["os", "p"]
    assert unused_imports(source + "x: p = os.sep\nsys\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_readme_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for k, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README[{k}]", "README.md", 0))
    failed, attempted = runner.summarize(verbose=False)
    assert attempted and not failed


def test_every_exported_name_resolves_and_is_listed():
    import ekrperm

    listing = dir(ekrperm)
    for name in ekrperm.__all__:
        value = getattr(ekrperm, name)
        owner = importlib.import_module(f"ekrperm.{ekrperm._OWNER[name]}")
        assert value is getattr(owner, name)
        assert name in listing
    with pytest.raises(AttributeError, match="no_such_name"):
        ekrperm.no_such_name
    namespace = {}
    exec("from ekrperm import *", namespace)
    assert set(ekrperm.__all__) <= set(namespace)
