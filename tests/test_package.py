"""Static checks of the package source: what it imports, and that nothing it
defines goes unnamed; and of the pytest settings in pyproject.toml."""

import ast
import re
import subprocess
import sys
from collections import Counter

from helpers import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "hakan"


def _trees(root):
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(root.rglob("*.py"))}


def test_the_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "hakan"}
    outside = []
    for path, tree in _trees(PACKAGE).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert not outside


def test_every_name_the_package_defines_is_named_elsewhere():
    # a definition names itself once; a name no other line holds is dead code
    defined = Counter(
        node.name
        for tree in _trees(PACKAGE).values() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))
    words = Counter()
    for root in (PACKAGE, REPO_ROOT / "tests", REPO_ROOT / "perfbench"):
        for path in root.rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []


def test_an_unregistered_marker_fails_the_run(tmp_path):
    # pyproject.toml's "error" warning filter is what fails it
    test = tmp_path / "test_typo.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_marked():\n    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode != 0
    assert "PytestUnknownMarkWarning" in run.stdout + run.stderr
