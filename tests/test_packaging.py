import ast
import importlib
import os
import re
import shlex
import sys

import pytest

import starwalk
from starwalk.cli import main

PACKAGE = os.path.dirname(os.path.abspath(starwalk.__file__))
ROOT = os.path.dirname(os.path.dirname(PACKAGE))


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level third-party modules imported anywhere in the package -> files."""
    found: dict[str, set[str]] = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top != "starwalk":
                    found.setdefault(top, set()).add(name)
    return found


def test_runtime_imports_are_the_declared_dependencies():
    # every third-party import of the package is a runtime dependency, and
    # every runtime dependency is imported: test-only packages stay in extras
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_")
                for d in deps}
    imported = _third_party_imports()
    assert set(imported) == declared, imported


def test_traced_functions_exist():
    # the benchmark's span tracer wraps functions by name; a renamed or removed
    # one would break every traced run, so check the names without importing it
    with open(os.path.join(ROOT, "perfbench", "spans.py")) as fh:
        tree = ast.parse(fh.read())
    (layers,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
    missing = [f"starwalk.{module}.{func}" for module, func in ast.literal_eval(layers)
               if not callable(getattr(importlib.import_module(f"starwalk.{module}"), func, None))]
    assert not missing


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # every "starwalk ..." line of the README's CLI quick start, run as written,
    # oracle-check at the advertised N = 1e6 included
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Quick start (CLI)", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "starwalk"]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
