"""The package as a whole: its public names, its README examples, and its
runtime dependencies."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import riskpool
from riskpool.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskpool"

# Public names that no other package code calls, kept because each is a
# result of the paper in its own right.  One line per name, with its claim.
PAPER_OBJECTS = {
    "partition_expectation": "coarsening: merging blocks of increasing functions never lowers "
    "the product of the block expectations",
}


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


def test_public_names_are_used_by_the_package():
    names = riskpool.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(riskpool, name), name
    assert set(PAPER_OBJECTS) <= set(names)
    refs = _references()
    unused = [name for name in names if name not in refs and name not in PAPER_OBJECTS]
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


def test_runtime_imports_are_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "riskpool"}
    found = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [(path.name, top) for top in tops if top not in allowed]
    assert found == []
