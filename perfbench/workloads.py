"""The benchmark's workloads: inputs from a seed, one closed-loop caller
driving the public API of ``interdomain.layer``, and correctness checks.

Every workload repeats a fixed *cycle* of calls.  Each call is issued only
when the previous one has returned and is timed on its own; the checks run
outside the timed calls.  Decode feeds pre-generated tokens, never its own
outputs: a single mixer layer has no vocabulary to sample from.
"""
from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from interdomain import layer
from interdomain.config import BACKENDS, load_config, make_rng

ROOT = Path(__file__).resolve().parents[1]


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute deviation over the largest reference magnitude."""
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale


def all_finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if dataclasses.is_dataclass(value):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


def state_bytes(state: layer.LayerState) -> int:
    arrays = [*state.ssm_states, state.conv_q_tail, state.conv_k_tail, state.conv_v_tail]
    return sum(a.nbytes for a in arrays if a is not None)


class Calls:
    """Times closed-loop calls and counts the ones that fail.

    A call fails when it raises, returns a non-finite value, or belongs to a
    batch of calls that a correctness check rejects (``reject``).
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.log: list[tuple[str, float]] = []  # every call's (kind, seconds), in order
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0

    def time(self, kind: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            raise
        elapsed = time.perf_counter() - start
        self.samples[kind].append(elapsed)
        self.log.append((kind, elapsed))
        self.busy_s += elapsed
        if not all_finite(out):
            self.failed += 1
        return out

    def reject(self, n_calls: int) -> None:
        self.failed = min(self.attempted, self.failed + n_calls)


def decode_check(params, config, tokens: np.ndarray) -> tuple[bool, list[float], list[int]]:
    """``forward`` over the tokens against ``decode_step`` from a fresh state
    (1e-10 relative, as acceptance 6 asks).  Also returns each step's wall
    time and the state's size in bytes after each step."""
    want = layer.forward(params, tokens, config)
    state = layer.init_decode_state(config)
    rows, gaps, sizes = [], [], []
    for token in tokens:
        start = time.perf_counter()
        y, state = layer.decode_step(params, state, token, config)
        gaps.append(time.perf_counter() - start)
        rows.append(y)
        sizes.append(state_bytes(state))
    return rel_err(np.stack(rows), want) <= 1e-10, gaps, sizes


class Workload:
    """One named workload.  ``cycle`` runs the timed calls of one cycle and
    returns whether that cycle's outputs pass its checks; ``check`` is the
    per-run check.

    ``nominal_cycle_s`` is a cycle's wall time on the reference host (2-vCPU
    Xeon VM, one BLAS thread).  It turns ``--seconds`` into a fixed number
    of cycles per run, so the count never adapts to how fast a run goes.
    """

    name: str
    nominal_cycle_s: float
    decode_probe_tokens = 8

    def __init__(self, seed: int) -> None:
        self.config = self.load_config(seed)
        rng = make_rng(seed)
        self.params = layer.init_layer_params(self.config, rng)
        self.make_inputs(rng)
        self.probe_tokens = rng.standard_normal((self.decode_probe_tokens, self.config.model_dim))

    def warm_up(self) -> None:
        layer.decode_step(self.params, layer.init_decode_state(self.config),
                          self.probe_tokens[0], self.config)

    def check(self) -> bool:
        return True


class Decode1p3b(Workload):
    name = "decode_1p3b"
    nominal_cycle_s = 15.0
    prompt_len, prompt_chunk, decode_steps = 64, 32, 100

    def load_config(self, seed):
        return load_config(ROOT / "configs" / "cfg1p3b.json", seed_override=seed)

    def make_inputs(self, rng):
        d = self.config.model_dim
        self.prompt = rng.standard_normal((self.prompt_len, d))
        self.tokens = rng.standard_normal((self.decode_steps, d))

    def cycle(self, calls: Calls) -> bool:
        p, cfg = self.params, self.config
        _, state = calls.time("prefill", layer.prefill, p, self.prompt, cfg, None,
                              self.prompt_chunk)
        for token in self.tokens:
            _, state = calls.time("decode_step", layer.decode_step, p, state, token, cfg)
        return True

    def check(self) -> bool:
        ok, _, _ = decode_check(self.params, self.config, self.prompt[:self.decode_probe_tokens])
        return ok

    def named(self, calls: Calls) -> dict:
        return {"ttft_s": timing(calls.samples["prefill"], "s"), **decode_metrics(calls)}


class Train1p3b(Workload):
    name = "train_1p3b"
    nominal_cycle_s = 18.0
    # one full chunk_size=64 checkpoint segment plus a ragged one
    n_tokens, fd_tokens, fd_step = 96, 4, 1e-5

    def load_config(self, seed):
        return load_config(ROOT / "configs" / "cfg1p3b.json", seed_override=seed)

    def make_inputs(self, rng):
        d = self.config.model_dim
        self.x = rng.standard_normal((self.n_tokens, d))
        self.upstream = rng.standard_normal((self.n_tokens, d))
        self.fd_x = rng.standard_normal((self.fd_tokens, d))
        self.fd_upstream = rng.standard_normal((self.fd_tokens, d))
        self.fd_dir = rng.standard_normal((self.fd_tokens, d))

    def warm_up(self) -> None:
        layer.forward(self.params, self.fd_x, self.config)
        layer.backward(self.params, self.fd_x, self.fd_upstream, self.config)

    def cycle(self, calls: Calls) -> bool:
        p, cfg = self.params, self.config
        calls.time("forward", layer.forward, p, self.x, cfg)
        calls.time("backward", layer.backward, p, self.x, self.upstream, cfg)
        return True

    def check(self) -> bool:
        """Directional central difference of ``grad_x`` (1e-4 relative, as
        acceptance 3 asks) on a short input at the same config."""
        p, cfg, x, up, v, h = (self.params, self.config, self.fd_x,
                               self.fd_upstream, self.fd_dir, self.fd_step)
        _, grad_x = layer.backward(p, x, up, cfg)
        analytic = float(np.sum(grad_x * v))
        loss = lambda xx: float(np.sum(up * layer.forward(p, xx, cfg)))
        numeric = (loss(x + h * v) - loss(x - h * v)) / (2 * h)
        return abs(numeric - analytic) <= 1e-4 * abs(analytic)

    def named(self, calls: Calls) -> dict:
        steps = [f + b for f, b in zip(calls.samples["forward"], calls.samples["backward"])]
        return {"train_step_s": timing(steps, "s")}


class LongSmall(Workload):
    name = "long_small"
    nominal_cycle_s = 5.0
    n_tokens, prompt_chunk, decode_steps = 2048, 256, 256

    def load_config(self, seed):
        return load_config(Path(__file__).with_name("long_small.json"), seed_override=seed)

    def make_inputs(self, rng):
        d = self.config.model_dim
        self.x = rng.standard_normal((self.n_tokens, d))
        self.upstream = rng.standard_normal((self.n_tokens, d))
        self.tokens = rng.standard_normal((self.decode_steps, d))
        self.backend_configs = {
            b: dataclasses.replace(self.config, backend=b) for b in BACKENDS
        }

    def cycle(self, calls: Calls) -> bool:
        p, cfg = self.params, self.config
        outs = {
            b: calls.time(f"forward.{b}", layer.forward, p, self.x, bcfg)
            for b, bcfg in self.backend_configs.items()
        }
        calls.time("backward", layer.backward, p, self.x, self.upstream, cfg)
        y_pre, state = calls.time("prefill", layer.prefill, p, self.x, cfg, None,
                                  self.prompt_chunk)
        for token in self.tokens:
            _, state = calls.time("decode_step", layer.decode_step, p, state, token, cfg)
        # backends agree pairwise to 1e-8 (acceptance 2); chunked prefill
        # reproduces the forward to 1e-10 (acceptance 6)
        ys = list(outs.values())
        agree = all(rel_err(ys[i], ys[j]) <= 1e-8
                    for i in range(len(ys)) for j in range(i + 1, len(ys)))
        return agree and rel_err(y_pre, outs[cfg.backend]) <= 1e-10

    def named(self, calls: Calls) -> dict:
        out = {"ttft_s": timing(calls.samples["prefill"], "s"), **decode_metrics(calls)}
        for b in BACKENDS:
            out[f"forward_tok_s.{b}"] = rate(self.n_tokens, calls.samples[f"forward.{b}"])
        out["backward_tok_s"] = rate(self.n_tokens, calls.samples["backward"])
        return out


WORKLOADS = {w.name: w for w in (Decode1p3b, Train1p3b, LongSmall)}


def timing(samples: list[float], unit: str, q: float = 50.0) -> dict | None:
    """Percentile ``q`` of wall times, with the sample count; None if empty."""
    if not samples:
        return None
    scale = {"s": 1.0, "ms": 1e3}[unit]
    return {"value": float(np.percentile(samples, q)) * scale, "unit": unit,
            "samples": len(samples)}


def rate(tokens_per_call: int, samples: list[float]) -> dict | None:
    if not samples:
        return None
    return {"value": tokens_per_call / float(np.median(samples)), "unit": "tok/s",
            "samples": len(samples)}


def decode_metrics(calls: Calls) -> dict:
    gaps = calls.samples["decode_step"]
    return {
        "decode_gap_ms_p50": timing(gaps, "ms"),
        "decode_gap_ms_p90": timing(gaps, "ms", q=90.0),
        "decode_tok_s": {"value": len(gaps) / sum(gaps), "unit": "tok/s",
                         "samples": len(gaps)} if gaps else None,
    }
