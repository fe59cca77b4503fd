"""Every third-party package ``repro`` imports at module level is declared.

An undeclared import works in a development checkout that happens to
have the package installed, then fails on a clean ``pip install``.  This
walks every module under ``src/repro`` and compares the module-level
imports (those outside function bodies, which run on import) against the
``[project] dependencies`` list in ``pyproject.toml``.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def declared_dependencies():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                      flags=re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no [project] dependencies list"
    return {re.split(r"[<>=!~;\[\s]", req, maxsplit=1)[0].lower()
            for req in re.findall(r"\"([^\"]+)\"", block.group(1))}


def module_level_imports(tree):
    """Top-level package names imported outside function bodies."""
    found = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_third_party_imports_are_declared_dependencies():
    declared = declared_dependencies()
    undeclared = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in module_level_imports(tree):
            if (name in sys.stdlib_module_names or name == "repro"
                    or name.lower() in declared):
                continue
            undeclared.setdefault(name, []).append(
                str(path.relative_to(REPO)))
    assert not undeclared, (
        f"imported but not in pyproject.toml dependencies: {undeclared}")
