"""Every script in ``examples/`` still imports.

Each example trains only under its ``__main__`` guard, so loading it by
path checks every public name it imports from ``repro`` without running
it.  A renamed or deleted export fails here instead of in a user's shell.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples")
                  .glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path, monkeypatch):
    name = f"_example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
