import ast
import pathlib

import pytest

import linkwitt
from test_immutable_matrices import MUTATORS, _targets

# `integer_poly` keeps the integer model of a QPoly on the polynomial, so a
# write to its `coeffs` after construction would leave that model stale
CONSTRUCTORS = {("QPoly", "__init__"), ("QPoly", "_of")}


def _is_coeffs(node) -> bool:
    """`<expr>.coeffs` or `<expr>.coeffs[i]`."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "coeffs"


def _writes_to_coeffs(source: str) -> list:
    """Line numbers of the writes to `coeffs` outside the QPoly
    constructors."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if tuple(scope[-2:]) not in CONSTRUCTORS:
            if any(_is_coeffs(t) for t in _targets(node)):
                found.append(node.lineno)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and _is_coeffs(node.func.value)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_write_to_polynomial_coeffs_outside_the_constructors():
    found = []
    for path in sorted(pathlib.Path(linkwitt.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in
                  _writes_to_coeffs(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("statement", [
    "p.coeffs = []", "p.coeffs[0] = c", "p.coeffs[i] += c",
    "p.coeffs[-1] -= 1", "a, p.coeffs = 1, []", "del p.coeffs[0]",
    "p.coeffs.append(c)", "p.coeffs.insert(0, c)", "p.coeffs.pop()",
    "p.coeffs.extend(cs)", "f().coeffs[0] = c", "p.coeffs[:] = cs",
    "nf.minpoly.coeffs.reverse()"])
def test_the_guard_sees_each_kind_of_write(statement):
    assert _writes_to_coeffs(f"def f(p):\n    {statement}\n") == [2]


def test_the_guard_allows_reads_and_the_constructors():
    assert _writes_to_coeffs(
        "class QPoly:\n"
        "    def __init__(self, coeffs):\n"
        "        self.coeffs = list(coeffs)\n"
        "    def _of(coeffs):\n"
        "        coeffs.pop()\n"
        "        p.coeffs, p._ints = coeffs, None\n"
        "def f(p, out):\n"
        "    c = p.coeffs[-1]\n"
        "    out.append(p.coeffs)\n"
        "    cs = list(p.coeffs)\n"
        "    cs.append(c)\n") == []
