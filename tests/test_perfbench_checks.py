"""The benchmark's own correctness checks, run as tests, so a change that
breaks them fails here and not only when the benchmark runs.  Each
workload's inputs come from one seed, as a benchmark run makes them."""
import importlib.util
import sys
from pathlib import Path

import pytest

SEED = 0


@pytest.fixture(scope="module")
def workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through sys.modules
    spec.loader.exec_module(module)
    return module


def test_long_small_cycle_passes_its_checks(workloads):
    # the four backends agree pairwise to 1e-8 and chunked prefill
    # reproduces the forward to 1e-10; no call fails
    calls = workloads.Calls()
    assert workloads.LongSmall(SEED).cycle(calls)
    assert calls.attempted > 0 and calls.failed == 0


@pytest.mark.parametrize("name", ["decode_1p3b", "train_1p3b"])
def test_1p3b_workload_check_passes(workloads, name):
    # decode against forward to 1e-10; backward against a directional
    # central difference to 1e-4
    assert workloads.WORKLOADS[name](SEED).check()
