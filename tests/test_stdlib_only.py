"""The package imports nothing but the standard library and itself, and its CLI
starts without the slow-to-import modules that dataclasses would bring."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bwcycles"


def _foreign_imports(tree: ast.AST) -> list[str]:
    """Modules a parsed file imports whose top level is neither bwcycles nor stdlib."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] != "bwcycles"
            and name.split(".")[0] not in sys.stdlib_module_names]


def test_checker_flags_third_party_imports():
    tree = ast.parse("import numpy.linalg\nfrom os import path\nfrom . import words\n"
                     "from bwcycles.words import Word\nfrom hypothesis import given\n")
    assert _foreign_imports(tree) == ["numpy.linalg", "hypothesis"]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    foreign = {path.name: _foreign_imports(ast.parse(path.read_text(), filename=str(path)))
               for path in files}
    assert {name: found for name, found in foreign.items() if found} == {}


def test_cli_starts_without_dataclasses_or_inspect():
    # -S: no site hooks, so the modules counted are the ones importing the CLI loads
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import bwcycles.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"
