"""Command-boundary clock and layer tracer for the benchmark.

Both work by replacing public voxmix functions with timing wrappers from
the benchmark process; no program code changes. A function bound into
another module by `from ... import name` is replaced there too, so
`cmd_grid` reaching `cmd_pretrain` through its module globals, and
`training` calling its imported `encode_batch`, both hit the wrappers.

The clock is always installed: set-up and phase times come from it. The
layer wrappers are installed only for a traced run, and record only
while `Tracer.recording` is true, which the benchmark sets for the
measured phase of a traced round.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# cli phase name -> command function in voxmix.cli
COMMANDS = {
    "gen_data": "cmd_gen_data",
    "pretrain": "cmd_pretrain",
    "finetune": "cmd_finetune",
    "decode": "cmd_decode",
    "eval": "cmd_eval",
}

STRATEGIES = ("voc", "mix", "random", "both", "cns")

# public autograd ops counted per train step, as named in numerics.__all__
OPS = (
    "add", "sub", "mul", "scale", "matmul", "transpose", "reshape", "narrow",
    "concat", "relu", "gelu", "softmax", "attention_core", "layer_norm",
    "embedding", "linear", "dropout", "mean", "tensor_sum", "tensor_abs",
    "cross_entropy",
)
NOT_OPS = ("Tensor", "backward", "zero_grads")

# (module, function, metric key) timed per call
TIMED = (
    ("synthdata", "load_corpus", "synthdata.load_corpus"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("losses", "alt_loss", "losses.alt_loss"),
    ("losses", "consistency_loss", "losses.consistency_loss"),
    ("numerics", "backward", "numerics.backward"),
    ("training", "pad_batch", "training.pad_batch"),
    ("training", "adam_step", "training.adam_step"),
    ("evaluation", "wer", "evaluation.wer"),
)


# metrics that a wrapped function other than their own prefix produces
DEPENDENT = {
    "decoding.decode_steps_per_call": ("decoding.transcribe_batch", "model.decode_batch"),
    "model.checkpoint_bytes": ("model.save_checkpoint",),
    "numerics.ops_per_step": ("training.step",),
    **{f"numerics.ops.{op}": ("training.step",) for op in OPS},
}


def _replace_everywhere(orig, wrapper) -> None:
    """Rebind every voxmix module attribute that is `orig` to `wrapper`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "voxmix" or name.startswith("voxmix.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def _arg_getter(fn, param: str):
    """Return f(args, kwargs) -> the value of `param` in a call of `fn`."""
    names = list(inspect.signature(fn).parameters)
    index = names.index(param)

    def get(args, kwargs):
        return kwargs[param] if param in kwargs else args[index]

    return get


class PhaseClock:
    """Start and end times of each voxmix.cli command call in a round."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.setup_phase: str | None = None
        self.on_setup_end = None

    def install(self, cli) -> None:
        for phase, fn_name in COMMANDS.items():
            orig = getattr(cli, fn_name)
            _replace_everywhere(orig, self._wrap(phase, orig))

    def _wrap(self, phase, orig):
        @functools.wraps(orig)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.spans.append((phase, t0, t1))
                if phase == self.setup_phase and self.on_setup_end is not None:
                    self.on_setup_end(t1)

        return timed

    def reset(self, setup_phase: str | None, on_setup_end) -> None:
        self.spans = []
        self.setup_phase = setup_phase
        self.on_setup_end = on_setup_end

    def first_start(self, phase: str) -> float:
        return min(t0 for p, t0, _ in self.spans if p == phase)

    def last_end(self, phase: str) -> float:
        return max(t1 for p, _, t1 in self.spans if p == phase)

    def total(self, phase: str) -> float:
        return sum((t1 - t0 for p, t0, t1 in self.spans if p == phase), 0.0)


class Tracer:
    """Per-call times and counts of the layers' public functions."""

    def __init__(self):
        self.recording = False
        self.rounds = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.step_ops: list[int] = []
        self.decode_steps: list[int] = []
        self.checkpoint_bytes: list[int] = []
        self.absent: list[str] = []
        self._in_step = False
        self._step_op_count = 0
        self._in_transcribe = False
        self._decode_calls = 0

    # -- installation ------------------------------------------------------

    def install(self, voxmix_modules: dict) -> None:
        for module_name, fn_name, key in TIMED:
            self._patch(voxmix_modules[module_name], fn_name, key, self._timed)
        model = voxmix_modules["model"]
        for fn_name in ("encode_batch", "decode_batch"):
            self._patch(model, fn_name, f"model.{fn_name}", self._by_mode)
        self._patch(model, "save_checkpoint", "model.save_checkpoint", self._save_checkpoint)
        self._patch(voxmix_modules["training"], "train_step", "training.step", self._train_step)
        self._patch(voxmix_modules["decoding"], "transcribe_batch", "decoding.transcribe_batch",
                    self._transcribe)
        numerics = voxmix_modules["numerics"]
        for op in OPS:
            if not hasattr(numerics, op):
                self.absent.append(f"numerics.ops.{op}")
        # every public op counts toward ops_per_step, including ops added later
        for op in getattr(numerics, "__all__", OPS):
            if op not in NOT_OPS and callable(getattr(numerics, op, None)):
                self._patch(numerics, op, op, self._op)

    def _patch(self, module, fn_name, key, make) -> None:
        orig = getattr(module, fn_name, None)
        if orig is None:
            self.absent.append(key)
            return
        _replace_everywhere(orig, functools.wraps(orig)(make(orig, key)))

    # -- wrappers ----------------------------------------------------------

    def _timed(self, orig, key):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            self.times[key].append(time.perf_counter() - t0)
            return out

        return wrapper

    def _by_mode(self, orig, key):
        mode = _arg_getter(orig, "train_mode")

        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            if self._in_transcribe and key == "model.decode_batch":
                self._decode_calls += 1
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            suffix = "train" if mode(args, kwargs) else "eval"
            self.times[f"{key}.{suffix}"].append(time.perf_counter() - t0)
            return out

        return wrapper

    def _save_checkpoint(self, orig, key):
        path_of = _arg_getter(orig, "path")

        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            self.times[key].append(time.perf_counter() - t0)
            self.checkpoint_bytes.append(os.path.getsize(path_of(args, kwargs)))
            return out

        return wrapper

    def _train_step(self, orig, key):
        plan_of = _arg_getter(orig, "plan")

        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            self._in_step, self._step_op_count = True, 0
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self._in_step = False
            self.times[f"{key}.{plan_of(args, kwargs).loss.strategy}"].append(
                time.perf_counter() - t0
            )
            self.step_ops.append(self._step_op_count)
            return out

        return wrapper

    def _transcribe(self, orig, key):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            self._in_transcribe, self._decode_calls = True, 0
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self._in_transcribe = False
            self.times[key].append(time.perf_counter() - t0)
            self.decode_steps.append(self._decode_calls)
            return out

        return wrapper

    def _op(self, orig, op):
        def wrapper(*args, **kwargs):
            if self._in_step:
                self._step_op_count += 1
                self.counts[op] += 1
            return orig(*args, **kwargs)

        return wrapper

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over the traced rounds; absent functions are left out."""
        rounds = max(self.rounds, 1)

        def per_call_ms(key):
            values = self.times.get(key)
            return 1e3 * statistics.median(values) if values else 0.0

        out = {
            "synthdata.load_corpus_calls": len(self.times["synthdata.load_corpus"]) / rounds,
            "synthdata.load_corpus_ms": per_call_ms("synthdata.load_corpus"),
            "model.save_checkpoint_ms": per_call_ms("model.save_checkpoint"),
            "model.checkpoint_bytes": (
                statistics.median(self.checkpoint_bytes) if self.checkpoint_bytes else 0.0
            ),
            "model.load_checkpoint_ms": per_call_ms("model.load_checkpoint"),
            "losses.alt_loss_ms": per_call_ms("losses.alt_loss"),
            "losses.consistency_loss_ms": per_call_ms("losses.consistency_loss"),
            "numerics.backward_ms": per_call_ms("numerics.backward"),
            "training.pad_batch_ms": per_call_ms("training.pad_batch"),
            "training.adam_step_ms": per_call_ms("training.adam_step"),
            "decoding.transcribe_batch_ms": per_call_ms("decoding.transcribe_batch"),
            "decoding.decode_steps_per_call": (
                statistics.median(self.decode_steps) if self.decode_steps else 0.0
            ),
            "evaluation.wer_calls": len(self.times["evaluation.wer"]) / rounds,
            "evaluation.wer_ms": per_call_ms("evaluation.wer"),
        }
        for fn_name in ("encode_batch", "decode_batch"):
            for mode in ("train", "eval"):
                out[f"model.{fn_name}.{mode}_ms"] = per_call_ms(f"model.{fn_name}.{mode}")
        for strategy in STRATEGIES:
            out[f"training.step_ms.{strategy}"] = per_call_ms(f"training.step.{strategy}")
        steps = len(self.step_ops)
        out["numerics.ops_per_step"] = sum(self.step_ops) / steps if steps else 0.0
        for op in OPS:
            out[f"numerics.ops.{op}"] = self.counts[op] / steps if steps else 0.0
        for key in self.absent:
            for name in [m for m in out if m == key or m.startswith(key + "_")
                         or m.startswith(key + ".") or key in DEPENDENT.get(m, ())]:
                del out[name]
        return out

    def totals_s(self) -> dict[str, float]:
        """Total seconds per traced key and round, for time-share estimates."""
        rounds = max(self.rounds, 1)
        return {key: sum(values) / rounds for key, values in sorted(self.times.items())}
