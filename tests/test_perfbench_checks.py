"""The benchmark's own correctness checks, run as tests, so a change that
breaks them fails here and not only when the benchmark runs.  Each
workload's inputs come from one seed, as a benchmark run makes them."""
import dataclasses
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


def assert_decode_probe_makes_one_scan_per_group(workloads, tracing, params, config, tokens):
    """The decode probe of a traced run: it matches the forward, every
    decode_step root holds one sequential run_scan span per group, and the
    state does not grow."""
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        ok, _, sizes = workloads.decode_check(params, config, tokens)
    assert ok
    assert sizes == [sizes[0]] * len(sizes)
    roots = [i for i, s in enumerate(tracer.spans)
             if s.parent is None and s.name == "layer.decode_step"]
    assert len(roots) == len(tokens)
    for i in roots:
        scans = [s for s in tracer.spans if s.op == tracer.spans[i].op and s.name == "ssm.run_scan"]
        assert [(s.parent, s.backend) for s in scans] == [(i, "sequential")] * config.n_kv


@pytest.mark.parametrize("name", ["decode_1p3b", "long_small"])
def test_traced_decode_probe_makes_one_scan_per_group(workloads, tracing, name):
    wl = workloads.WORKLOADS[name](SEED)
    assert_decode_probe_makes_one_scan_per_group(workloads, tracing, wl.params, wl.config,
                                                 wl.probe_tokens)


@pytest.mark.parametrize("variant", ["dual_kv_linear", "s4d_only"])
def test_traced_no_query_decode_probe_makes_one_scan_per_group(workloads, tracing, variant):
    # no workload runs the variants without a query path; their probe at
    # long_small's width, n_kv = heads, with a nonzero contraction so the
    # outputs it compares are not all zero
    from interdomain.config import load_config, make_rng
    from interdomain.layer import init_layer_params

    config = dataclasses.replace(
        load_config(workloads.ROOT / "perfbench" / "long_small.json", seed_override=SEED),
        variant=variant)
    assert config.n_kv == config.heads
    rng = make_rng(SEED)
    params = init_layer_params(config, rng, contraction_scale=0.1)
    tokens = rng.standard_normal((workloads.Workload.decode_probe_tokens, config.model_dim))
    assert_decode_probe_makes_one_scan_per_group(workloads, tracing, params, config, tokens)


@pytest.mark.parametrize("name", ["train_1p3b", "long_small"])
def test_traced_cycle_has_one_root_span_per_timed_call(workloads, tracing, name):
    # a traced run rebinds every entry point and callee in the layer
    # namespace, so each must resolve there; each timed call of a cycle is
    # then one root span of its entry point, and every span is one the
    # totals know.  Structure only: no timing bound
    from interdomain import layer

    for attr in (*tracing.ENTRY_POINTS, *tracing.CALLEES):
        assert callable(getattr(layer, attr, None)), attr
    wl = workloads.WORKLOADS[name](SEED)
    calls = workloads.Calls()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert wl.cycle(calls)
    assert calls.attempted > 0 and calls.failed == 0
    roots = [s.name for s in tracer.spans if s.parent is None]
    assert roots == [f"layer.{kind.split('.')[0]}" for kind, _ in calls.log]
    assert {s.name for s in tracer.spans} <= set(tracer.totals())
