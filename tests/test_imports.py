import ast
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import winfree

# __init__.py imports to re-export, so only the other modules are checked
MODULES = sorted(p for p in pathlib.Path(winfree.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_module_level_private_functions_are_referenced():
    # a private helper that nothing names any more (one a refactor left behind) is dead code
    root = pathlib.Path(__file__).resolve().parents[1]
    private = {(path.name, node.name) for path in pathlib.Path(winfree.__file__).parent.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    named = set()
    for path in (p for d in ("src", "tests") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert len(private) > 50
    assert sorted(f"{module}:{name}" for module, name in private if name not in named) == []


def test_module_level_names_are_read():
    # a module-level constant that no code reads (a tableau row the step loop never uses) is dead code
    root = pathlib.Path(__file__).resolve().parents[1]
    assigned = {(path.name, target.id) for path in pathlib.Path(winfree.__file__).parent.glob("*.py")
                for node in ast.parse(path.read_text()).body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in ast.walk(node) if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)}
    read = set()
    for path in (p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(assigned) > 50
    assert sorted(f"{module}:{name}" for module, name in assigned if name not in read) == []


# each module imports at module level only modules before it
LAYERS = ("errors", "model", "thresholds", "equilibria", "integrate", "montecarlo", "cli")


def _package_imports(path: pathlib.Path) -> set:
    """The package modules path imports at module level (from . import m, from .m import x)."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
    return names


def test_module_level_imports_follow_the_layers():
    # no module imports a later one, and montecarlo reads the contraction ball
    # from integrate rather than building it from equilibria's private names
    imports = {path.stem: _package_imports(path) for path in MODULES}
    assert sorted(imports) == sorted(LAYERS)
    later = {name: sorted(m for m in imported if LAYERS.index(m) >= LAYERS.index(name))
             for name, imported in imports.items()}
    assert {name: modules for name, modules in later.items() if modules} == {}
    assert "equilibria" not in imports["montecarlo"]


EXPORTED_FUNCTIONS = sorted(name for name, obj in vars(winfree).items() if inspect.isfunction(obj))


@pytest.mark.parametrize("name", EXPORTED_FUNCTIONS)
def test_exported_functions_read_every_parameter(name):
    # a public parameter that nothing reads asks callers for a value it ignores
    node = ast.parse(textwrap.dedent(inspect.getsource(getattr(winfree, name)))).body[0]
    args = node.args
    params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
    read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert [p for p in params if p not in read] == []


def _calls(root: pathlib.Path) -> dict:
    """Function name -> the ast.Call nodes that call it by that name, in src/, tests/ and perfbench/."""
    calls: dict = {}
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def test_exported_functions_set_every_default():
    # a default that no caller overrides is a constant that asks to be set
    calls = _calls(pathlib.Path(__file__).resolve().parents[1])
    unset = []
    for name in EXPORTED_FUNCTIONS:
        args = ast.parse(textwrap.dedent(inspect.getsource(getattr(winfree, name)))).body[0].args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(param in {k.arg for k in call.keywords}
                       or (index is not None and len(call.args) > index)
                       for call in calls.get(name, [])):
                unset.append(f"{name}.{param}")
    assert unset == []


def test_import_winfree_leaves_multiprocessing_unloaded():
    # the process pool is imported only by a Monte Carlo run with workers > 1
    src = str(pathlib.Path(winfree.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, winfree; print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
