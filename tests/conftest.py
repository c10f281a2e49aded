"""The seeded reference runs, defined once in tools/make_reference_trajectories.py.

The tool that writes tests/reference/ is loaded by file path, as the benchmark
tests reach perfbench/, and the 100-step demo run trains once per session for
every test that reads it.
"""

import importlib.util
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_reference_trajectories.py"


@pytest.fixture(scope="session")
def reference_tool():
    spec = importlib.util.spec_from_file_location("make_reference_trajectories", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def seeded_demo_run(reference_tool):
    """The tool's trained demo run and the seconds it took."""
    started = time.perf_counter()
    run = reference_tool.training_demo_run()
    return run, time.perf_counter() - started
