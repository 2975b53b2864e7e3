"""The package's public names are the library's surface: each name that
``beamtrack/__init__.py`` exports is used by library code outside its own
definition, by a demo or by the benchmark.  A name only tests use belongs
in ``tests/reference.py``.  The engine runs serially, so importing the
package loads no process pool."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "beamtrack"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(tree, skip_definition_of=None):
    """Names a module refers to: imported names, names and attribute
    names, leaving out the body of any definition named
    ``skip_definition_of``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) \
                and node.name == skip_definition_of:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.split(".")[-1] for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unused_exports():
    library = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    outside = set()
    for directory in ("demos", "bench"):
        for path in sorted((ROOT / directory).glob("*.py")):
            outside |= _references(ast.parse(path.read_text()))
    return sorted(name for name in _exports() - {"__version__"}
                  if name not in outside
                  and not any(name in _references(tree, name)
                              for tree in library))


def test_every_export_has_a_non_test_caller():
    assert _unused_exports() == []


def test_import_loads_no_process_pool():
    """A fresh ``import beamtrack, beamtrack.cli`` loads neither
    ``multiprocessing`` nor ``concurrent.futures``."""
    code = ("import sys, beamtrack, beamtrack.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
