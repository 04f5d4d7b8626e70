"""Where the package's names live: each in one home module, imported only
where it is used (no linter runs on the sources, so these checks stand in)."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import interferolab

SRC = Path(interferolab.__file__).resolve().parent

# (module, name) pairs that import a name without using it, with the reason
UNUSED_IMPORTS = {
    ("estimation", "baselines"):
        "bench/layers.py traces it there and bench/verify.py imports it from there",
}

# (module, name) pairs of private top-level names that nothing in src/ refers to
UNREFERENCED = {
    ("sweep", "_worker_count"): "bench/traced_cli.py records it with each traced run",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_name_imported_from_engine_is_used(module):
    # and every other imported name: each import and from-import, at module and
    # function level, so that a moved definition leaves no stale import behind
    tree = _tree(module)
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    allowed = {name for mod, name in UNUSED_IMPORTS if mod == module}
    assert imported - used == allowed


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    # every value type is a named tuple, so that no run loads dataclasses
    imported = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "dataclasses" not in imported


@pytest.mark.parametrize("home", sorted(interferolab._EXPORTS))
def test_every_public_name_is_defined_in_its_home(home):
    mod = importlib.import_module(f"interferolab.{home}")
    assigned = {
        target.id
        for node in _tree(home).body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    for name in interferolab._EXPORTS[home]:
        obj = getattr(mod, name)
        assert getattr(interferolab, name) is obj
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == f"interferolab.{home}", name
        else:  # a constant: assigned at the top level of its home
            assert name in assigned, name


def test_engine_names_resolve_without_loading_other_modules(tmp_path):
    # the package loads a name's home on first use, and the engine's public
    # names have the engine as their home, not a module that imports them
    probe = (
        "import sys\n"
        "import interferolab\n"
        "interferolab.MmStateSpec, interferolab.baselines\n"
        "print(*sorted(m for m in sys.modules if m.startswith('interferolab.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["interferolab.engine"]


def test_every_private_top_level_name_is_referenced():
    # a private function, class or constant that no module reads is dead code:
    # a reference is a loaded name, an attribute or a from-import of it
    defined, referenced = set(), set()
    for path in SRC.glob("*.py"):
        tree = _tree(path.stem)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((path.stem, name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert {(mod, name) for mod, name in defined if name not in referenced} == set(UNREFERENCED)


# the rules that every count and every phase share live in one helper each,
# engine._check_top and engine._check_phase; sweep checks the CLI settings
# itself, since it must not load the engine to do so
RULE_HOMES = {"engine", "sweep"}
RULE_WORDINGS = ("must be >= ", "must be an integer", "must be positive")


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem not in RULE_HOMES))
def test_every_count_and_phase_rule_is_stated_in_the_engine(module):
    tree = _tree(module)
    finite_calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "isfinite"
        and isinstance(node.value, ast.Name) and node.value.id == "math"
    ]
    assert finite_calls == [], "math.isfinite outside the engine: use engine._check_phase"
    worded = [
        (node.lineno, text.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
        for text in ast.walk(node.exc)
        if isinstance(text, ast.Constant) and isinstance(text.value, str)
        and any(w in text.value for w in RULE_WORDINGS)
    ]
    assert worded == [], "a count rule outside the engine: use engine._check_top"
