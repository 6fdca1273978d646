"""Every name a library module imports is used in that module, the
scalar checks, their bounds among them, live in ``model.py`` alone, and
no library module takes a product through BLAS.

No linter runs in CI, so these checks stand in for one: a refactor that
moves code between modules tends to leave an import behind, or a second
copy of a ``_checked_*`` helper whose rule drifts from the first, or a
bound written by hand beside ``_checked_int`` or ``_checked_float``
instead of passed to it, with a message of its own.
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
#: The modules that must leave scalar checks to ``model.py``.
OUTSIDE_MODEL = sorted(p.name for p in SRC.glob("*.py") if p.name != "model.py")


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


@pytest.mark.parametrize("module", OUTSIDE_MODEL)
def test_only_model_defines_checks(module):
    assert checked_helpers((SRC / module).read_text(encoding="utf-8")) == []


def test_check_finds_a_checked_helper():
    source = "def _checked_type(value, kind, what):\n    return value\n\nclass A:\n"
    assert checked_helpers(source + "    def _checked_x(self):\n        pass\n") == [
        "_checked_type",
        "_checked_x",
    ]


#: The errors a bad argument raises: a bound on one belongs to a ``_checked_*`` call.
ARGUMENT_ERRORS = {"ValidationError", "ConfigError"}


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _compares_a_number(test) -> bool:
    """Whether ``test`` compares with a numeric constant: plainly, under
    ``not``, chained, or as one operand of ``and``."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _compares_a_number(test.operand)
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_compares_a_number(value) for value in test.values)
    return isinstance(test, ast.Compare) and any(map(_is_number, (test.left, *test.comparators)))


def _raises_argument_error(body) -> bool:
    for statement in body:
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) in ARGUMENT_ERRORS:
                return True
    return False


def hand_written_bounds(source: str) -> list[int]:
    """The lines of ``source`` holding an ``if`` that compares with a
    numeric constant and whose body raises one of ``ARGUMENT_ERRORS``:
    a bound that ``_checked_int`` or ``_checked_float`` should hold."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and _compares_a_number(node.test) and _raises_argument_error(node.body)
    ]


@pytest.mark.parametrize("module", OUTSIDE_MODEL)
def test_scalar_bounds_are_held_by_checkers(module):
    assert hand_written_bounds((SRC / module).read_text(encoding="utf-8")) == []


def test_check_finds_a_hand_written_bound():
    source = (
        "if n < 1:\n    raise ValidationError\n"
        "if self.m < 2:\n    raise ValidationError('m')\n"
        "if x <= 0.0:\n    raise ConfigError(f'{x}')\n"
        "if not 0.0 <= w <= 1.0:\n    raise errors.ValidationError('w')\n"
        "if h is not None and h < -1e-3:\n    raise ConfigError('h')\n"
        "if ok:\n    pass\nelif 0 > i:\n    x = 1\n    raise ValidationError('i')\n"
    )
    kept = (
        "if n < x:\n    raise ValidationError\n"
        "if n < 1:\n    n = 1\n"
        "if not 0.0 < w < 1.0:\n    raise DegenerateDistributionError('w')\n"
        "if n < 1 or m:\n    raise ValidationError('n')\n"
        "if kind == 'fixed':\n    raise ValidationError('kind')\n"
        "if n > True:\n    raise ValidationError('n')\n"
    )
    assert hand_written_bounds(source + kept) == [1, 3, 5, 7, 9, 13]


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
