"""Every name a library module imports is used in that module.

No linter runs in CI, so this check stands in for one: a refactor that
moves code between modules tends to leave an import behind.
``__init__.py`` is exempt, since its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spinbath"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in ``source`` that no other
    expression reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom .errors import ValidationError, CapacityError\n"
    assert unused_imports(source + "np.sqrt(math.pi)\nraise CapacityError\n") == ["ValidationError"]
