"""The benchmark's own correctness checks, run as tests, so a change that
breaks them fails here and not only when the benchmark runs.  Each
workload's inputs come from one seed, as a benchmark run makes them."""
import importlib.util
import sys
from pathlib import Path

import pytest

SEED = 0


def load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through sys.modules
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_perfbench("workloads")


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


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


@pytest.mark.parametrize("name", ["decode_1p3b", "long_small"])
def test_traced_decode_probe_makes_one_scan_per_group(workloads, tracing, name):
    # the decode probe of a traced run: it matches the forward, every
    # decode_step root holds one sequential run_scan span per group, and
    # the state does not grow
    wl = workloads.WORKLOADS[name](SEED)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        ok, _, sizes = workloads.decode_check(wl.params, wl.config, wl.probe_tokens)
    assert ok
    assert sizes == [sizes[0]] * len(sizes)
    roots = [i for i, s in enumerate(tracer.spans)
             if s.parent is None and s.name == "layer.decode_step"]
    assert len(roots) == len(wl.probe_tokens)
    for i in roots:
        scans = [s for s in tracer.spans if s.op == tracer.spans[i].op and s.name == "ssm.run_scan"]
        assert [(s.parent, s.backend) for s in scans] == [(i, "sequential")] * wl.config.n_kv
