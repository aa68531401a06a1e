"""No floating point in the package: a syntax walk over src/fmethod/*.py,
and no inexact scalar through its entry points.

The walk flags a float (or complex) literal, a call of `float`, any `math`
name outside the exact integer functions below, and every `/` (or `/=`)
that has no `Fraction(...)` call as an operand: polynomial coefficients
are ints wherever they are integral, and true division of two ints gives
a float.  Every constructor that takes a scalar from a caller, and every
linear-algebra entry point that takes rows, raises TypeError on a float,
a complex or a Decimal, all floating point (`Fraction(0.1)` is not 1/10).
"""

import ast
import pathlib
from decimal import Decimal
from fractions import Fraction

import pytest

from fmethod.algebra import (
    Matrix,
    Polynomial,
    exact,
    rref_basis,
    same_span,
    sparse_nullspace,
    sparse_rref,
)
from fmethod.liealg import LieElement
from fmethod.rep import ScalarRepParams, TargetRepParams
from fmethod.verma import VermaModule

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fmethod"

# math functions that are exact on ints (floor and ceil also on Fractions)
EXACT_MATH = {"comb", "perm", "factorial", "gcd", "lcm", "prod", "isqrt", "floor", "ceil"}


def _is_fraction_call(node):
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"
    )


def float_uses(source: str) -> list:
    """(line, what) for every floating-point construct in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((line, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((line, "float() call"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            found.append((line, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                (line, f"from math import {a.name}") for a in node.names if a.name not in EXACT_MATH
            )
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and not (_is_fraction_call(node.left) or _is_fraction_call(node.right))
        ):
            found.append((line, "/ without a Fraction(...) operand"))
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Div)
            and not _is_fraction_call(node.value)
        ):
            found.append((line, "/= without a Fraction(...) operand"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_floating_point(path):
    assert float_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "x = float(y)",
        "x = math.sqrt(2)",
        "x = math.pi",
        "x = math.inf",
        "x = math.exp(y) + math.log(y)",
        "from math import sqrt",
        "x = 1 / 2",
        "x = a / b",
        "x = Fraction(a) * b / c",
        "x /= b",
    ],
)
def test_guard_flags_each_float_construct(snippet):
    assert len(float_uses(snippet)) >= 1


def test_guard_passes_exact_code():
    clean = (
        "import math\n"
        "from fractions import Fraction\n"
        "x = Fraction(1, 2) / 3 + math.comb(5, 2) * math.factorial(3)\n"
        "y = x / Fraction(2) + 7 // 2 + math.floor(x)\n"
        "z = a / Fraction(b) + Fraction(a) / b\n"
        "z /= Fraction(3)\n"
    )
    assert float_uses(clean) == []


# each entry point with a scalar argument, and the exact value it keeps of 1/10
ENTRY_POINTS = {
    "exact": (exact, lambda got: got),
    "Polynomial": (lambda x: Polynomial(1, {(1,): x}), lambda got: got.terms[(1,)]),
    "ScalarRepParams.sl": (lambda x: ScalarRepParams.sl(3, x), lambda got: got.lam[0]),
    "ScalarRepParams.gl": (lambda x: ScalarRepParams.gl(3, 1, x), lambda got: got.lam[1]),
    "TargetRepParams.sl": (lambda x: TargetRepParams.sl(3, x, ell=1), lambda got: got.nu[0]),
    "TargetRepParams.gl": (lambda x: TargetRepParams.gl(3, x, 0), lambda got: got.nu[0]),
    "VermaModule.of": (lambda x: VermaModule.of(3, False, 1, x), lambda got: -got.nu_ind[0]),
    "LieElement.from_units": (
        lambda x: LieElement.from_units(2, "sl", [((0, 1), x)]), lambda got: got[0, 1]
    ),
    "LieElement.scale": (
        lambda x: LieElement.from_units(2, "sl", [((0, 1), 1)]).scale(x), lambda got: got[0, 1]
    ),
    "Matrix": (lambda x: Matrix([[1, x]]), lambda got: got.rows[0][1]),
    # the sparse kernels at a row whose lead is 1, which needs no rescaling:
    # only the entry check sees the scalar after it
    "sparse_rref": (lambda x: sparse_rref([{0: 1, 1: x}]), lambda got: got[0][1]),
    "rref_basis": (lambda x: rref_basis([{0: 1, 1: x}]), lambda got: got[0][1]),
    "sparse_nullspace": (
        lambda x: sparse_nullspace([{0: 1, 1: x}], 2), lambda got: Fraction(-1, got[0][1])
    ),
    # the span of (1, x) is that of (10, 1) exactly when x is 1/10
    "same_span": (
        lambda x: same_span([{0: 1, 1: x}], [{0: 10, 1: 1}]),
        lambda got: Fraction(1, 10) if got is True else got,
    ),
}


@pytest.mark.parametrize("inexact", [0.1, 0.5, 1 + 0j, Decimal("0.1")], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_an_inexact_scalar(entry, inexact):
    build, _ = ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match="not an exact scalar"):
        build(inexact)


@pytest.mark.parametrize("tenth", [Fraction(1, 10), "1/10"], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_keeps_an_exact_scalar(entry, tenth):
    build, read = ENTRY_POINTS[entry]
    assert read(build(tenth)) == Fraction(1, 10)
