"""The package as a whole: its public names and methods, its imports, its
README examples, its runtime dependencies, the exceptions it raises, and
the independence of the test oracles."""

import ast
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import riskpool
from riskpool.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskpool"
ORACLES = ROOT / "tests" / "oracles.py"


def _modules():
    return sorted(SRC.glob("*.py"))


def _references() -> set[str]:
    """Every name loaded or attribute read by package code outside
    `__init__.py`, leaving out a top-level definition's references to itself."""
    refs = set()
    for path in _modules():
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    refs.add(name)
    return refs


def _methods(cls) -> list[str]:
    """The non-dunder methods and properties a class defines itself."""
    kinds = (classmethod, staticmethod, property, types.FunctionType)
    return [name for name, v in vars(cls).items() if not name.startswith("__") and isinstance(v, kinds)]


def test_public_names_are_used_by_the_package():
    names = riskpool.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(riskpool, name), name
    refs = _references()
    unused = [name for name in names if name not in refs]
    assert unused == []
    # The same for the methods of the public classes.  A check by name
    # cannot tell a method from another object's attribute of the same
    # name: a method called `uniform` would pass because of `rng.uniform`.
    classes = [getattr(riskpool, name) for name in names if inspect.isclass(getattr(riskpool, name))]
    unused = [f"{cls.__name__}.{m}" for cls in classes for m in _methods(cls) if m not in refs]
    assert unused == []


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in a string annotation such as `other: "SetFunction | Value"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def test_no_unused_imports():
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
                used |= _annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
                used |= _annotation_names(node.returns)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def _readme_blocks(language: str) -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.S | re.M)


def test_readme_examples_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for block in _readme_blocks("python"):
        run = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs) == 2
    assert outputs[0].split() == ["49/16", "4", "15/16"]
    # the all-coarse profile is among the printed equilibria
    coarse = "[('h1', (('oil', 'gas'),)), ('h2', (('oil',),))]"
    assert coarse in outputs[1].splitlines()


def test_readme_configs_run(tmp_path, capsys):
    commands = {"convolution": ["convolve"], "game": ["game", "analyze"]}
    blocks = _readme_blocks("json")
    assert len(blocks) == 2
    for idx, block in enumerate(blocks):
        path = tmp_path / f"readme{idx}.json"
        path.write_text(block)
        command = commands.get(json.loads(block)["kind"], ["scenario"])
        assert main([*command, "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def _imported_tops(path: pathlib.Path) -> set[str]:
    """The top-level package of every absolute import in the module."""
    tops = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            tops |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops


def test_runtime_imports_are_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "riskpool"}
    found = [(path.name, top) for path in _modules() for top in sorted(_imported_tops(path) - allowed)]
    assert found == []


def test_oracles_import_nothing_from_the_package():
    # An oracle that shared code with the package would agree with it for
    # the same reason, and so check nothing.
    assert "riskpool" not in _imported_tops(ORACLES)


def test_package_raises_no_key_error():
    # cli.main refuses a ValueError with exit 2 and lets anything else
    # through, so an unknown name must be a ValueError.
    raised = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "KeyError":
                    raised.append(f"{path.name}:{node.lineno}")
    assert raised == []
