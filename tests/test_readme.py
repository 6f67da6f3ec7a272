"""The README's library tour and CLI examples run as written.

The tour is the public API, so every name it or its list of extras uses
must be exported, every exported name must be named there, and both code
blocks must run on a small design.  Every module-level function and class
of the package is exported or used inside it.
"""

import ast
import re
import shlex
from pathlib import Path

import numpy as np

import bayonet as bn
from bayonet import cli

import helpers

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block_after(heading, lang):
    """The first ```lang block after the line ``heading``."""
    start = README.index(f"\n{heading}\n")
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def design(n=60, p=5, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    y = a @ np.array([1.0, -0.6, 0.0, 0.3, 0.0]) + 0.5 * rng.standard_normal(n)
    return a, y


def test_every_readme_name_is_exported():
    names = set(re.findall(r"\bbn\.(\w+)", README))
    assert names
    assert sorted(names - set(bn.__all__)) == []


def test_every_export_is_named_in_readme():
    # the other direction: nothing is exported that README does not name,
    # no name is listed twice, and every exported name resolves
    names = set(re.findall(r"\bbn\.(\w+)", README))
    assert set(bn.__all__) == names
    assert len(bn.__all__) == len(names)
    assert [n for n in bn.__all__ if not hasattr(bn, n)] == []


def _names_used(tree):
    # every Name, Attribute and import alias in tree
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_library_definition_is_exported_or_used():
    # a module-level function or class of the package is public, or some
    # statement of the package other than its own definition names it; a
    # method is out of scope (argparse calls cli._Parser.error)
    statements = [
        (path.stem, stmt)
        for path in sorted(Path(bn.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    used = [_names_used(stmt) for _, stmt in statements]
    defs = (ast.FunctionDef, ast.ClassDef)
    unused = [
        f"{module}.{stmt.name}"
        for k, (module, stmt) in enumerate(statements)
        if isinstance(stmt, defs) and stmt.name not in bn.__all__
        and not any(stmt.name in names for i, names in enumerate(used) if i != k)
    ]
    assert unused == []


def test_library_tour_runs():
    a, y = design()
    scope = {"A": a, "y": y}
    exec(compile(block_after("## Library tour", "python"), "README tour", "exec"), scope)
    assert scope["sad"].converged
    assert np.isfinite(scope["lp"].log_z)
    assert scope["chain"].samples.shape == (9_900, 5)


def test_cli_examples_exit_0(tmp_path, monkeypatch):
    a, y = design()
    helpers.write_csv(tmp_path / "data.csv", [f"x{j}" for j in range(a.shape[1])], a, y)
    monkeypatch.chdir(tmp_path)
    text = block_after("## CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "bayonet"]
    assert len(commands) == 6
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
