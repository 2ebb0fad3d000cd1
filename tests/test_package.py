"""Package hygiene: no dead module-level imports, no assert statement in the
package, and the README example runs.

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


# The modules a spectrum, chartab or derangements run compiles.
NUMPY_FREE = ("cli", "chartab", "permgroup", "errors")


def numpy_imports(source: str) -> list[int]:
    """Lines of every import of numpy, at module level or inside a function."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return lines


def test_numpy_imports_are_found():
    source = "import os\ndef f():\n    import numpy.linalg\n    from numpy import sort\n"
    assert numpy_imports(source) == [3, 4]
    assert numpy_imports("from . import numpyish\nimport numpyish\n") == []


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_the_numpy_free_modules_import_numpy_nowhere(name):
    path = ROOT / "src" / "ekrperm" / f"{name}.py"
    assert numpy_imports(path.read_text(encoding="utf-8")) == []


def test_need_degree_is_the_only_degree_raise():
    """Every DegreeRangeError of the package is raised by permgroup.need_degree."""
    raises = []
    for path in sorted((ROOT / "src" / "ekrperm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> its innermost function: ast.walk goes outer first
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, function.name) for node in ast.walk(function))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            called = exc.func if isinstance(exc, ast.Call) else exc
            name = getattr(called, "id", None) or getattr(called, "attr", None)
            if name == "DegreeRangeError":
                raises.append(f"{path.stem}.{owner.get(node, '<module>')}")
    assert raises == ["permgroup.need_degree"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "ekrperm").glob("*.py")), ids=lambda path: path.stem
)
def test_no_check_is_an_assert_statement(path):
    """python -O strips assert statements, so every internal check raises."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _degree_guards():
    """(what, call of the degree, lo, hi, what the call does at lo) per guard.

    hi is None where the function has no top.  At lo the call returns, but
    where lo admits the function yet the function refuses the input on other
    grounds: cycle_decomposition_clique(2) tabulates no even degree but 8,
    and depth_conjecture_dims needs t + 1 < n for every t it takes.
    """
    import numpy as np

    from ekrperm import chartab, ekrverify, graphs, permgroup, scheme
    from ekrperm.errors import UnsupportedConstructionError

    return [
        ("derangement_count", permgroup.derangement_count, 1, None, None),
        ("partitions_of", permgroup.partitions_of, 1, None, None),
        # rows of no images rank the one permutation of degree 0
        ("rank_images", lambda n: scheme.rank_images(np.zeros((2, n), np.int8)),
         0, scheme.MAX_RANK_DEGREE, None),
        ("character_table", chartab.character_table, 1, chartab.MAX_TABLE_DEGREE, None),
        ("GroupData", scheme.GroupData, 1, scheme.MAX_GROUP_DEGREE, None),
        ("GroupData.mult", lambda n: scheme.GroupData(n).mult,
         1, permgroup.MAX_DENSE_DEGREE, None),
        ("ratio_bound", scheme.ratio_bound, 2, None, None),
        ("latin_clique", graphs.latin_clique, 2, None, None),
        ("cycle_decomposition_clique", graphs.cycle_decomposition_clique,
         2, None, UnsupportedConstructionError),
        ("equitable_quotient", graphs.equitable_quotient,
         2, permgroup.MAX_QUOTIENT_DEGREE, None),
        ("max_independent_sets", graphs.max_independent_sets,
         2, permgroup.MAX_DENSE_DEGREE, None),
        ("incidence", ekrverify.incidence, 1, permgroup.MAX_INCIDENCE_DEGREE, None),
        ("gram_check", ekrverify.gram_check, 2, None, None),
        ("pi_ab_submatrix", ekrverify.pi_ab_submatrix, 3, None, None),
        ("bordered_kernel_check", ekrverify.bordered_kernel_check, 3, None, None),
        ("basis_check", ekrverify.basis_check, 1, permgroup.MAX_DENSE_DEGREE, None),
        ("depth_conjecture_dims", ekrverify.depth_conjecture_dims,
         1, permgroup.MAX_DENSE_DEGREE, ValueError),
    ]


# the walk over the 1,334,961 derangements of 10 takes most of a second
COSTLY_TOPS = {("equitable_quotient", 10)}
# no row has -1 images, and GroupData(0) raises before its mult is read
NO_DEGREE_BELOW = {"rank_images", "GroupData.mult"}


@pytest.mark.parametrize("row", _degree_guards(), ids=lambda row: row[0])
def test_each_degree_guard_states_its_range(row):
    from ekrperm.errors import DegreeRangeError

    what, call, lo, hi, at_lo = row
    span = f"of at least {lo}" if hi is None else f"from {lo} to {hi}"
    outside = [] if what in NO_DEGREE_BELOW else [lo - 1]
    outside += [] if hi is None else [hi + 1]
    for n in outside:
        with pytest.raises(DegreeRangeError) as info:
            call(n)
        assert str(info.value) == f"{what} takes n {span}, got {n}"
    if at_lo is None:
        call(lo)
    else:
        with pytest.raises(at_lo) as info:
            call(lo)
        assert not isinstance(info.value, DegreeRangeError)
    if hi is not None and (what, hi) not in COSTLY_TOPS:
        call(hi)


def test_a_failing_hypothesis_test_fails_and_the_run_goes_on(tmp_path):
    """Under the project's warning filters a Hypothesis failure is one failed test."""
    import subprocess
    import sys

    path = tmp_path / "test_fails_on_purpose.py"
    path.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT)]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *config, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
