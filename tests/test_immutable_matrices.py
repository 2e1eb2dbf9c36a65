import ast
import pathlib

import pytest

import linkwitt

# `integer_matrix` keeps the integer form of a QMatrix on the matrix, so a
# write to its `data` after construction would leave that form stale
MUTATORS = {"append", "insert", "pop", "extend", "remove", "clear", "sort",
            "reverse"}
CONSTRUCTORS = {("QMatrix", "__init__"), ("QMatrix", "_of")}


def _is_data(node, depth=2) -> bool:
    """`<expr>.data`, `<expr>.data[i]` or `<expr>.data[i][j]`."""
    while isinstance(node, ast.Subscript) and depth:
        node, depth = node.value, depth - 1
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _targets(node) -> list:
    if isinstance(node, ast.Assign):
        out = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        out = [node.target]
    elif isinstance(node, ast.Delete):
        out = list(node.targets)
    else:
        return []
    flat = []
    while out:
        t = out.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            out.extend(t.elts)
        elif isinstance(t, ast.Starred):
            out.append(t.value)
        else:
            flat.append(t)
    return flat


def _writes_to_data(source: str) -> list:
    """Line numbers of the writes to `data` outside the QMatrix
    constructors."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if tuple(scope[-2:]) not in CONSTRUCTORS:
            if any(_is_data(t) for t in _targets(node)):
                found.append(node.lineno)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and _is_data(node.func.value)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_write_to_matrix_data_outside_the_constructors():
    found = []
    for path in sorted(pathlib.Path(linkwitt.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in
                  _writes_to_data(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("statement", [
    "m.data = []", "m.data[0] = row", "m.data[0][1] = x", "m.data[i] += r",
    "m.data[i][j] -= 1", "a, m.data = 1, []", "del m.data[0]",
    "m.data.append(r)", "m.data[0].insert(0, x)", "m.data.pop()",
    "m.data[1].extend(r)", "f().data[0][0] = x", "m.data[0][:] = r"])
def test_the_guard_sees_each_kind_of_write(statement):
    assert _writes_to_data(f"def f(m):\n    {statement}\n") == [2]


def test_the_guard_allows_reads_and_the_constructors():
    assert _writes_to_data(
        "class QMatrix:\n"
        "    def __init__(self, data):\n"
        "        self.data = data\n"
        "    def _of(r, c, data):\n"
        "        M.data = data\n"
        "def f(m, rows):\n"
        "    x = m.data[0][1]\n"
        "    rows.append(m.data[0])\n"
        "    row = list(m.data[0])\n"
        "    row.append(x)\n") == []


# `validate()` marks a SeifertForm that passed it, and the mark is carried
# to negations, promotions and sums; a write to the form's phi, module or
# zeta, or to its module's structure maps, would leave the mark stale
FORM_PARTS = {"phi", "module", "zeta", "s", "projections"}
FORM_CONSTRUCTORS = {("SeifertForm", "__init__"),
                     ("SeifertModule", "__init__")}


def _is_form_part(node) -> bool:
    """`<expr>.phi`, `<expr>.projections[i]` and the like."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in FORM_PARTS


def _writes_to_forms(source: str) -> list:
    """Line numbers of the writes to the parts of a form or its module
    outside their constructors."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if tuple(scope[-2:]) not in FORM_CONSTRUCTORS:
            if any(_is_form_part(t) for t in _targets(node)):
                found.append(node.lineno)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and _is_form_part(node.func.value)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_write_to_a_form_outside_the_constructors():
    found = []
    for path in sorted(pathlib.Path(linkwitt.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in
                  _writes_to_forms(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("statement", [
    "f.phi = m", "f.module = V", "f.zeta = -1", "f.zeta *= -1",
    "a, f.phi = 1, m", "del f.module", "V.s = m", "V.projections[0] = e",
    "V.projections.append(e)", "f.module.projections = []"])
def test_the_form_guard_sees_each_kind_of_write(statement):
    assert _writes_to_forms(f"def f(f, V):\n    {statement}\n") == [2]


def test_the_form_guard_allows_reads_and_the_constructors():
    assert _writes_to_forms(
        "class SeifertForm:\n"
        "    def __init__(self, module, zeta, phi):\n"
        "        self.module, self.zeta, self.phi = module, zeta, phi\n"
        "class SeifertModule:\n"
        "    def __init__(self, s, projections):\n"
        "        self.s = s\n"
        "        self.projections = list(projections)\n"
        "def f(g, out):\n"
        "    phi = g.phi\n"
        "    out._validated = g._validated\n"
        "    gens = [g.module.s] + g.module.projections\n"
        "    gens.append(phi)\n") == []


# a TruncatedSeries is its integer model and `terms` a Fraction view of it,
# so a write to the view would leave the model, which every series
# operation reads, stale; GroupRingElem's `terms` is its state, built in
# its constructor
DICT_MUTATORS = MUTATORS | {"update", "popitem", "setdefault"}
TERMS_CONSTRUCTORS = {("GroupRingElem", "__init__")}


def _is_terms(node) -> bool:
    """`<expr>.terms` or `<expr>.terms[w]`."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _writes_to_terms(source: str) -> list:
    """Line numbers of the writes to `terms` outside GroupRingElem's
    constructor."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if tuple(scope[-2:]) not in TERMS_CONSTRUCTORS:
            if any(_is_terms(t) for t in _targets(node)):
                found.append(node.lineno)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DICT_MUTATORS
                    and _is_terms(node.func.value)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_write_to_series_terms_outside_the_group_ring_constructor():
    found = []
    for path in sorted(pathlib.Path(linkwitt.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in
                  _writes_to_terms(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("statement", [
    "t.terms = {}", "t.terms[w] = c", "t.terms[w] += c", "del t.terms[w]",
    "a, t.terms = 1, {}", "t.terms.update(d)", "t.terms.pop(w)",
    "t.terms.setdefault(w, c)", "t.terms.clear()", "t.terms.popitem()",
    "f().terms[w] = c"])
def test_the_terms_guard_sees_each_kind_of_write(statement):
    assert _writes_to_terms(f"def f(t):\n    {statement}\n") == [2]


def test_the_terms_guard_allows_reads_and_the_group_ring_constructor():
    assert _writes_to_terms(
        "class GroupRingElem:\n"
        "    def __init__(self, terms):\n"
        "        self.terms = {}\n"
        "        self.terms[w] = self.terms.get(w, 0) + c\n"
        "class TruncatedSeries:\n"
        "    def __init__(self, degree, terms):\n"
        "        self._terms = dict(terms)\n"
        "def f(t, out):\n"
        "    c = t.terms.get(w)\n"
        "    out.update(t.terms)\n"
        "    d = dict(t.terms)\n"
        "    d[w] = c\n") == []
