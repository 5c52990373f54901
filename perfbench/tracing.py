"""Spans around the package's public functions, recorded from outside it.

`Tracer` replaces each function in WRAPPED by a wrapper on its module, so
calls made through the module attribute (how the package calls across
modules) are recorded; leaving the `with` block puts every original back.
`adversary` binds its own `recover_pad` name, so the history attack's
recoveries show as `adversary.recover_pad`, apart from the simulator's own.

A span is [name, start, end, parent index, op id].  Spans stay in memory
until `write`.  A span's self time is its duration minus the time its child
spans cover; in one thread children never overlap, so that is the sum of
their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

WRAPPED = (
    ("spectrum", "sample_states"), ("spectrum", "sense"),
    ("protocol", "generate_subset"), ("protocol", "generate_pairs"),
    ("protocol", "encrypt_report"), ("protocol", "recover_pad"), ("protocol", "decrypt"),
    ("adversary", "ees_act"), ("adversary", "ees_decode_attempt"),
    ("adversary", "pes_act"), ("adversary", "history_act"), ("adversary", "recover_pad"),
    ("fusion", "fuse"), ("fusion", "score"),
    ("leakage", "xi_profile"), ("leakage", "masking_level"),
    ("leakage", "joint_masking_level"), ("leakage", "leakage_report"),
    ("simulate", "build_subset"), ("simulate", "run_simulation"), ("simulate", "run_experiment"),
    ("output", "render"), ("cli", "main"),
)
NAMES = tuple(f"{module}.{fn}" for module, fn in WRAPPED)
HIT_RATIOS = (
    "protocol.recover_pad", "adversary.pes_act",
    "adversary.ees_decode_attempt", "adversary.history_act",
)
OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.hits: Counter = Counter()
        self.attempts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._pad_of: dict[bytes, bytes] = {}
        self._saved: list[tuple] = []
        self._hooks = {
            "protocol.encrypt_report": self._note_pad,
            "protocol.recover_pad": self._score_recovery,
            "adversary.pes_act": self._score_attack,
            "adversary.ees_decode_attempt": self._score_attack,
            "adversary.history_act": self._score_attack,
        }

    def __enter__(self) -> "Tracer":
        try:
            for module_name, fn_name in WRAPPED:
                module = importlib.import_module(f"otpsense.{module_name}")
                original = getattr(module, fn_name)
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(f"{module_name}.{fn_name}", original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside any op, e.g. building an op's inputs
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)

        return traced

    def _record(self, name: str, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        hook = self._hooks.get(name)
        if hook is not None:
            hook(name, args, result)
        return result

    def op(self, op_id: int, fn, *args):
        """Run fn(*args) as op `op_id` under a root span; only calls made
        inside an op are recorded."""
        self._op = op_id
        self._pad_of.clear()
        return self._record(OP, fn, args, {})

    # hit counting: which recoveries and attacks got the sender's pad

    def _note_pad(self, name, args, result) -> None:
        ciphertext, pad = result
        self._pad_of[ciphertext.tobytes()] = pad.tobytes()

    def _score_recovery(self, name, args, result) -> None:
        pad = self._pad_of.get(args[1].tobytes())  # recover_pad(own, ciphertext, ...)
        if pad is not None:
            self.attempts[name] += 1
            self.hits[name] += result.tobytes() == pad

    def _score_attack(self, name, args, result) -> None:
        if result.pad_recovered is not None:
            self.attempts[name] += 1
            self.hits[name] += result.pad_recovered

    def layers(self) -> dict[str, dict]:
        """Per span name: calls and total self time, over all spans so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end (seconds from the first
        span), parent index (-1 for a root) and op id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, op]) + "\n")
