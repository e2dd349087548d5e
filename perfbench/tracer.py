"""Outside-in per-layer timing: wrap the program's public functions in spans.

Nothing under ``src/`` is touched. :class:`Tracer` replaces each target
function on *every* ``rca`` module attribute that binds it, because
``cli``, ``trainer``, ``gradients`` and ``losses`` import names with
``from .x import y`` and would keep calling the original if only the
defining module were patched. Spans nest through a stack, so a span's self
time excludes the wrapped calls made inside it. The tracer's own counter
hooks run after a span closes; their time is kept out of the enclosing
span's self time and reported as ``trace.hook_s``. Spans stay in memory
and are reduced to per-unit aggregates when the unit ends.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import Counter

# (defining module, function). ``cli.main`` spans are named after the
# subcommand (``cli.rank``...), so their self time is argument parsing, tag
# resolution, validating instance construction and output glue.
TARGETS = [
    ("rca.cli", "main"),
    ("rca.trainer", "train_alignment"),
    ("rca.trainer", "snapshot_loss"),
    ("rca.trainer", "gather_instance"),
    ("rca.gradients", "loss_and_grad"),
    ("rca.gradients", "finite_diff_grad"),
    ("rca.uasr", "apply_uasr"),
    ("rca.losses", "total_loss"),
    ("rca.losses", "nll_terms"),
    ("rca.core", "compatibility"),
    ("rca.tags", "rank_tags"),
    ("rca.tags", "subsample"),
    ("rca.io", "read_vocab"),
    ("rca.io", "read_instances"),
    ("rca.io", "write_instances"),
    ("rca.io", "to_json"),
]
CLI_COMMANDS = ("rank", "uasr", "loss", "gradcheck")

# A selection cache can only reuse inputs seen within one program
# invocation, so the set of seen selection inputs is cleared whenever one
# of these spans opens.
SCOPE_SPANS = {"trainer.train_alignment"} | {f"cli.{c}" for c in CLI_COMMANDS}


def span_names() -> list[str]:
    names = []
    for module, func in TARGETS:
        short = module.split(".", 1)[1]
        if (short, func) == ("cli", "main"):
            names += [f"cli.{c}" for c in CLI_COMMANDS]
        else:
            names.append(f"{short}.{func}")
    return names


def _selection_key(args, kwargs) -> bytes:
    inst = args[0] if args else kwargs["instance"]
    normalize = args[1] if len(args) > 1 else kwargs.get("normalize", True)
    h = hashlib.blake2b(digest_size=16)
    for arr in (inst.regions, inst.positives, inst.negatives, inst.global_scores):
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    h.update(b"1" if normalize else b"0")
    return h.digest()


class Tracer:
    """Records nested spans and counters around the program's public calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, hook seconds inside]
        self.stack: list[int] = []
        self.root_hook_s = 0.0  # hook seconds outside every span
        self.counts: Counter = Counter()
        self.seen: set[bytes] = set()
        self.recording = False
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rca" or name.startswith("rca."))]
        for module_name, func in TARGETS:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(module_name.split(".", 1)[1], func, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, short: str, func: str, fn):
        spans, stack = self.spans, self.stack
        after = getattr(self, f"_after_{func}", None)
        if (short, func) == ("cli", "main"):
            def name_of(args, kwargs):
                argv = (args[0] if args else kwargs.get("argv")) or sys.argv[1:]
                return f"cli.{argv[0]}"
        else:
            fixed = f"{short}.{func}"

            def name_of(args, kwargs):
                return fixed

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            if name in SCOPE_SPANS:
                self.seen.clear()
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
                hook_s = time.perf_counter() - span[3]
                if stack:
                    spans[stack[-1]][4] += hook_s
                else:
                    self.root_hook_s += hook_s
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters at layer boundaries --------------------------------------

    def _after_apply_uasr(self, args, kwargs, result) -> None:
        key = _selection_key(args, kwargs)
        if key in self.seen:
            self.counts["uasr.apply_uasr.repeats"] += 1
        self.seen.add(key)
        k = result.positive_indices.shape[0]
        self.counts["uasr.apply_uasr.neg_dropped"] += int((result.retrieved_set >= k).sum())
        self.counts["uasr.apply_uasr.pos_fallbacks"] += int(result.positive_fallback)
        self.counts["uasr.apply_uasr.neg_fallbacks"] += int(result.negative_fallback)

    def _after_read_vocab(self, args, kwargs, result) -> None:
        self.counts["io.bytes_read"] += os.path.getsize(args[0])

    _after_read_instances = _after_read_vocab

    def _after_write_instances(self, args, kwargs, result) -> None:
        self.counts["io.bytes_written"] += os.path.getsize(args[0])

    # -- per-unit reduction ------------------------------------------------

    def begin_unit(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.seen.clear()
        self.root_hook_s = 0.0
        self.recording = True

    def end_unit(self, wall: float) -> dict:
        """Stop recording and aggregate the unit's spans per layer.

        No target calls itself, so summing a layer's span durations never
        counts the same interval twice. A span's self time is its duration
        minus its wrapped children and the hooks run inside it.
        """
        self.recording = False
        spans = self.spans
        child = [hook for *_, hook in spans]
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        root_sum = 0.0
        for i, (name, parent, start, end, _) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += dur
            out[f"{name}.self_s"] += own
            if parent < 0:
                root_sum += dur
        calls = out["uasr.apply_uasr.calls"]
        out["uasr.apply_uasr.repeat_ratio"] = (
            self.counts["uasr.apply_uasr.repeats"] / calls if calls else 0.0
        )
        for key in ("uasr.apply_uasr.neg_dropped", "uasr.apply_uasr.pos_fallbacks",
                    "uasr.apply_uasr.neg_fallbacks", "io.bytes_read", "io.bytes_written"):
            out[key] = self.counts[key]
        hook_s = self.root_hook_s + sum(span[4] for span in spans)
        out["trace.wall_s"] = wall
        out["trace.hook_s"] = hook_s
        out["trace.unwrapped_s"] = wall - root_sum - self.root_hook_s
        return out


# Counts that must be identical in every unit of a run (and between a
# traced and an untraced run of the same seed).
def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in (
                "uasr.apply_uasr.repeat_ratio", "uasr.apply_uasr.neg_dropped",
                "uasr.apply_uasr.pos_fallbacks", "uasr.apply_uasr.neg_fallbacks",
                "io.bytes_read", "io.bytes_written")}
