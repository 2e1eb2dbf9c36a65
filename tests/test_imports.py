import ast
import pathlib

import linkwitt


def test_no_import_inside_a_function():
    # every module imports at the top: the import graph is acyclic,
    # rational <- seifert <- endofield <- devissage <- wittinv <- cli
    found = []
    for path in sorted(pathlib.Path(linkwitt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found += [f"{path.name}:{node.lineno}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
