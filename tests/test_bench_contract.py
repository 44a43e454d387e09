"""The benchmark's calls into orbitlab, at its small sizes.

perfbench/workloads.py checks every result it times against values computed
outside orbitlab's census routes, and its CLI commands against expected
stdout.  Running its steps, probe bundles and commands here keeps a change to
the public API (a report field, a summary field, an output line) from
surfacing only when the benchmark runs.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path
from random import Random

import pytest

import orbitlab
from orbitlab import cli

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run_steps(steps) -> dict:
    results = {}
    for step in steps:
        _, out, error = workloads.attempt(step)
        assert error is None, f"{step.label}: {error}"
        results[step.label] = out
    return results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_steps_and_commands(name, capsys):
    wl = workloads.build(name, seed=1, small=True)
    workloads.warm_up(wl, lambda label, fn: fn())
    results = _run_steps(wl.steps())
    capsys.readouterr()
    for cmd in wl.commands(results):
        code = cli.main(cmd.args)
        out = capsys.readouterr().out
        assert code == 0 and cmd.check(out), "orbitlab " + " ".join(cmd.args)


def test_probe_bundles():
    for bundle in workloads.probes(Random(1)):
        _run_steps(bundle)


def test_package_exports_what_the_benchmark_reads():
    # perfbench/workloads.py is the one importer of the package namespace;
    # everything else imports the submodules
    read = set(re.findall(r"\bol\.(\w+)", WORKLOADS_PY.read_text()))
    assert read == set(orbitlab.__all__)


def _defined(tree) -> set[str]:
    """The public names a module binds at top level (imports aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _read(tree) -> set[str]:
    """Every name the module loads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def test_every_public_name_in_src_has_a_reader():
    # tests read src, but a name only tests read is an oracle: it belongs
    # in tests/oracles.py, so the package holds one copy of each job
    src = sorted((ROOT / "src" / "orbitlab").glob("*.py"))
    readers = [*src, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*(_read(ast.parse(path.read_text())) for path in readers))
    unread = {f"{path.stem}.{name}" for path in src
              for name in _defined(ast.parse(path.read_text())) - read}
    assert not unread
