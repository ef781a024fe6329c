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
    # tests/oracles.py is imported as a plain helper module, so pytest
    # does not rewrite its asserts and python -O would strip them
    oracles = Path(__file__).with_name("oracles.py")
    found = [
        f"{path.name}:{node.lineno}"
        for path in [*sorted(PACKAGE.glob("*.py")), oracles]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree):
    """Names a module imports at top level and never reads; names listed
    in its __all__ count as read, since they are re-exported."""
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported.items() if name not in read]


def test_no_unused_import_in_package():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


# paper-facing functions with no caller yet besides the tests: the
# equivalence cross-oracle on the roadmap is to call them
AWAITING_CALLERS = {"eve_extension", "unique_violator_decoupling", "local_model_from_extension"}


def test_every_package_definition_has_a_caller_outside_tests():
    # a top-level function or class that only tests reach belongs in
    # tests/oracles.py; a name counts as used when package or benchmark
    # code reads or imports it anywhere but inside its own definition
    perfbench = PACKAGE.parents[1] / "perfbench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(PACKAGE.glob("*.py")), *sorted(perfbench.glob("*.py"))]}
    defined = [
        node
        for path, tree in trees.items() if path.parent == PACKAGE
        for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    uses: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            for name in names:
                uses.setdefault(name, []).append(node)
    unused = set()
    for node in defined:
        inside = set(ast.walk(node))
        if all(use in inside for use in uses.get(node.name, [])):
            unused.add(node.name)
    assert unused == AWAITING_CALLERS


def test_no_environment_read_in_package():
    # every limit is a module constant, which no environment variable moves
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)
    ]
    assert found == []


def test_no_dataclasses_import_in_package():
    # records subclass core.Frozen: importing dataclasses loads inspect and
    # its chain, and every decorated class compiles its methods through exec
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_cli_solves_no_lp():
    # each question is solved by one function of the analysis module that
    # owns it, and the command line calls that function
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "solve"
        or isinstance(node, ast.ImportFrom) and any(a.name == "solve" for a in node.names)
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
        prog = lp.LinearProgram(1, enumerate([1]))
        prog.add_ineq([(0, 1)], 1)
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
