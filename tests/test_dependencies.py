import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ballsgd"


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the only declared runtime dependency; scipy and others may be
    # installed locally, so an import of them would pass everywhere else
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", \
                    f"{path.name} imports {name}"
