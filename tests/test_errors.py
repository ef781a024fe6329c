"""One error hierarchy, and exactness checks that hold under python -O."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import boxlab
from boxlab.core import BoxlabError

PACKAGE = Path(boxlab.__file__).parent
MODULES = [
    importlib.import_module(f"boxlab.{info.name}") for info in pkgutil.iter_modules(boxlab.__path__)
]


def test_no_assert_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exception_is_one_boxlab_error():
    classes = [
        obj
        for mod in MODULES
        for obj in vars(mod).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == mod.__name__
    ]
    assert BoxlabError in classes
    assert [c for c in classes if not issubclass(c, BoxlabError)] == []
    # one class per name: no module keeps its own BadParams
    names = [c.__name__ for c in classes]
    assert len(names) == len(set(names))


def test_solve_checks_its_certificate_under_python_O():
    child = textwrap.dedent(
        """
        import sys
        from boxlab import lp
        from boxlab.core import InternalError

        if __debug__:
            sys.exit("not running under -O")
        lp.verify_certificate = lambda prog, outcome: False
        prog = lp.LinearProgram(1, [1])
        prog.set_bounds(0, 0, 1)
        try:
            lp.solve(prog)
        except InternalError:
            sys.exit(0)
        sys.exit("lp.solve returned an unverified outcome")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
