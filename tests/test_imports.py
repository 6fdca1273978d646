"""Every name a library module imports is used in that module, the
scalar checks, count bounds among them, live in ``model.py`` alone, and
no library module takes a product through BLAS.

No linter runs in CI, so these checks stand in for one: a refactor that
moves code between modules tends to leave an import behind, or a second
copy of a ``_checked_*`` helper whose rule drifts from the first, or a
count bound written by hand beside ``_checked_int`` instead of passed to it.
A BLAS product's bits depend on the OpenBLAS kernel that the CPU selects,
so one would tie an artifact to the machine that wrote it.
``__init__.py`` is exempt from the import check, since its imports are
the public API.
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


def checked_helpers(source: str) -> list[str]:
    """The names of the ``_checked_*`` functions defined in ``source``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_checked_")
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "model.py"))
def test_only_model_defines_checks(module):
    assert checked_helpers((SRC / module).read_text(encoding="utf-8")) == []


def test_check_finds_a_checked_helper():
    source = "def _checked_type(value, kind, what):\n    return value\n\nclass A:\n"
    assert checked_helpers(source + "    def _checked_x(self):\n        pass\n") == [
        "_checked_type",
        "_checked_x",
    ]


def hand_written_bounds(source: str) -> list[int]:
    """The lines of ``source`` holding an ``if <name or attribute> < <int>:``
    whose body is a single ``raise``: a bound ``_checked_int`` should hold."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, (ast.Name, ast.Attribute))
        and [type(op) for op in node.test.ops] == [ast.Lt]
        and isinstance(node.test.comparators[0], ast.Constant)
        and type(node.test.comparators[0].value) is int
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
    ]


@pytest.mark.parametrize("module", MODULES)
def test_counts_are_bounded_by_checked_int(module):
    assert hand_written_bounds((SRC / module).read_text(encoding="utf-8")) == []


def test_check_finds_a_hand_written_bound():
    source = "if n < 1:\n    raise ValueError\nif self.m < 2:\n    raise ValueError('m')\n"
    kept = "if n < x:\n    raise ValueError\nif n < 1:\n    n = 1\nif n < 1.5:\n    raise ValueError\n"
    assert hand_written_bounds(source + kept) == [1, 3]


#: numpy functions and array methods that take their products through BLAS.
BLAS_CALLS = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum"}


def blas_products(source: str) -> list[int]:
    """The lines of ``source`` that use the ``@`` operator or name one of
    ``BLAS_CALLS`` as an attribute, such as ``np.dot`` or ``a.dot``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS)
    )


@pytest.mark.parametrize("module", MODULES)
def test_no_module_multiplies_through_blas(module):
    assert blas_products((SRC / module).read_text(encoding="utf-8")) == []


def test_check_finds_a_blas_product():
    source = "m = w @ e\nx = np.dot(a, b)\nm @= a\ny = np.einsum('i,i', a, b)\nz = a.vdot(b)\n"
    kept = "s = np.sum(a * b)\ninner = 3\nq = a * b\n"
    assert blas_products(source + kept) == [1, 2, 3, 4, 5]
