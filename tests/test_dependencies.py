import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ballsgd"


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


def test_cli_import_loads_no_pool_module():
    # the Monte-Carlo checks split their chunks over plain threads: an
    # executor or a process pool would add its import time to every command
    code = ("import sys, ballsgd.cli; "
            "print(sorted(m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ,
                              "PYTHONPATH": str(PACKAGE.parent)}).stdout
    assert out.strip() == "[]"


def _unread_imports(tree: ast.Module) -> list:
    """Names the module's imports bind and no expression of it reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # a package __init__ imports names to re-export them
    paths = [path for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) > 20
    unread = {str(path.relative_to(ROOT)): names for path in paths
              if (names := _unread_imports(ast.parse(path.read_text())))}
    assert unread == {}
