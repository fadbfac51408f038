"""The benchmark in perfbench/ runs against this tree's program: its input
set-up calls the library, and every CLI step it builds parses."""

import importlib
import pathlib
import sys

import pytest

from vrf_sentinel import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's `inputs` and `workloads` modules, imported as its child
    process imports them: from perfbench/ on the path."""
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("inputs"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        for name in ("inputs", "workloads"):
            sys.modules.pop(name, None)


def test_benchmark_set_up_and_steps_run_against_the_program(bench, tmp_path):
    """Each workload's set-up writes its inputs (a generator in `inputs`, or
    a CLI argv), and each step of a pass is an argv the CLI accepts."""
    inputs, workloads = bench
    parser = cli._build_parser()
    for name, workload in workloads.WORKLOADS.items():
        inp = tmp_path / name / "inputs"
        mode, args = workload.setup(0, str(inp))
        if mode == "cli":
            assert parser.parse_args(args).command == args[0]
        else:
            assert args[0] == name
            inputs.WRITERS[name](0, str(inp))
            assert any(inp.iterdir())
        steps = workload.steps(0, str(inp), str(tmp_path / name / "out"))
        assert steps
        for step in steps:
            assert parser.parse_args(step.args).command == step.name
