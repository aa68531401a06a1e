"""No floating point in the package: a syntax walk over src/fmethod/*.py.

Flags a float (or complex) literal, a call of `float`, any `math` name
outside the exact integer functions below, and every `/` (or `/=`) that
has no `Fraction(...)` call as an operand: polynomial coefficients are
ints wherever they are integral, and true division of two ints gives a
float.
"""

import ast
import pathlib

import pytest

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
