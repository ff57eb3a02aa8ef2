"""Span recorder for the traced benchmark run, attached from outside.

``Tracer.install`` wraps every public function of the avsep layer modules
and rebinds each wrapper under every name, in every avsep module, that
bound the original, so calls made inside the library go through it too.
A wrapped op that returns a taped ``Tensor`` also gets its ``_backward``
closure wrapped, so forward and backward time split by op. Spans (name,
start, end, parent) are kept in memory and written by ``save``.

Self time is a span's duration minus the time its child spans cover.
Nothing in ``src/`` knows about the tracer; ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "nn", "blocks", "model", "metrics", "data", "trainer", "checks")

# Pure integer geometry helpers; a span around them would only add noise.
SKIP = {"nn.conv1d_out_len", "nn.conv_transpose1d_out_len"}

# Private functions that get a span because the per-layer metrics need a
# boundary the public names lack: the forward-plus-loss of one training step.
PRIVATE = {"trainer._forward_loss_av": "trainer.forward"}

OP_LAYERS = ("tensor.", "nn.")


class Tracer:
    def __init__(self, hooks=None):
        """``hooks`` maps a span name to ``(pre, post)``: ``pre(args, kwargs)``
        runs before the call and returns a state, ``post(state, result)``,
        unless None, runs after it."""
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child time, child count]
        self._depth: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.incl_s: dict[int, float] = defaultdict(float)
        self.incl_by_parent: dict[tuple[int, int], float] = defaultdict(float)
        self.calls: dict[int, int] = defaultdict(int)
        self.out_bytes: dict[int, int] = defaultdict(int)
        self.macs: dict[int, int] = defaultdict(int)
        self.conv_macs = 0
        self.fd_evals = 0
        self._patches: list[tuple[object, str, object]] = []
        self._tensor_cls = None

    # -- recording -----------------------------------------------------

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0, 0])
        self._depth[nid] += 1
        self.span_start.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> bool:
        """Close the span; returns True when it had no child spans."""
        t = perf_counter()
        self.span_end[idx] = t
        _, child_s, child_n = self._stack.pop()
        dur = t - self.span_start[idx]
        nid = self.span_name[idx]
        self.self_s[nid] += dur - child_s
        self.calls[nid] += 1
        self._depth[nid] -= 1
        if self._depth[nid] == 0:  # a recursive call is already inside the outer one
            self.incl_s[nid] += dur
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[1] += dur
            top[2] += 1
            parent = self.span_name[top[0]]
        self.incl_by_parent[(nid, parent)] += dur
        return child_n == 0

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self.nid(name)
        hook = self.hooks.get(name)
        is_op = name.startswith(OP_LAYERS)
        mac_fn = _MACS.get(name)

        def wrapper(*args, **kwargs):
            state = hook[0](args, kwargs) if hook else None
            idx = tracer._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                leaf = tracer._exit(idx)
            if is_op:
                tracer._after_op(name, nid, out, args, leaf, mac_fn)
            if hook and hook[1]:
                hook[1](state, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _after_op(self, name, nid, out, args, leaf, mac_fn):
        if not isinstance(out, self._tensor_cls):
            return
        data = out.data
        if leaf and not any(out is a for a in args):
            self.out_bytes[nid] += data.nbytes
        if mac_fn is not None:
            m = mac_fn(out, args)
            self.macs[nid] += m
            self.conv_macs += m
        back = out._backward
        if back is not None and not getattr(back, "_bench_traced", False):
            bid = self.nid(name + "_bwd")
            tracer = self

            def traced_back(g, _back=back, _bid=bid):
                idx = tracer._enter(_bid)
                try:
                    _back(g)
                finally:
                    tracer._exit(idx)

            traced_back._bench_traced = True
            out._backward = traced_back

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"avsep.{layer}") for layer in LAYERS}
        self._tensor_cls = tensor_cls = mods["tensor"].Tensor
        self.hooks.setdefault("tensor.finite_difference_grad", (self._count_fd, None))
        owners = [m for n, m in sys.modules.items() if n == "avsep" or n.startswith("avsep.")]
        targets = []
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if name in PRIVATE:
                    name = PRIVATE[name]
                elif attr.startswith("_") or name in SKIP:
                    continue
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                targets.append((name, fn))
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapper)
                        self._patches.append((owner, key, fn))
        self._patches.append((tensor_cls, "backward", tensor_cls.backward))
        tensor_cls.backward = self._wrap("tensor.backward", tensor_cls.backward)

    def _count_fd(self, args, kwargs):
        x = kwargs.get("x", args[1] if len(args) > 1 else None)
        self.fd_evals += 2 * int(getattr(x, "size", 0))  # one +eps and one -eps forward per entry

    def uninstall(self) -> None:
        """Restore every binding."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def _total(self, table: dict, names) -> float:
        return sum(table.get(self._ids[n], 0) for n in names if n in self._ids)

    def self_of(self, *names) -> float:
        return self._total(self.self_s, names)

    def incl_of(self, *names) -> float:
        return self._total(self.incl_s, names)

    def calls_of(self, *names) -> int:
        return self._total(self.calls, names)

    def macs_of(self, *names) -> int:
        return self._total(self.macs, names)

    def out_bytes_of(self, *names) -> int:
        return self._total(self.out_bytes, names)

    def incl_under(self, name, parent) -> float:
        if name not in self._ids or parent not in self._ids:
            return 0.0
        return self.incl_by_parent.get((self._ids[name], self._ids[parent]), 0.0)

    def balance(self, t0: float, t1: float) -> dict:
        """Self time summed by layer, plus the time outside every top-level
        span, must add up to ``t1 - t0``: the wall time the caller measured
        around the traced work with its own clock reads.

        The layer totals come from the self times kept as spans close, the
        time outside spans from the recorded start and end of each top-level
        span. The two agree, and the check passes, only when every span
        closed, nested in the one that was open when it began, and fell
        inside the caller's window, and when every span belongs to a layer
        in ``LAYERS`` (``_bwd`` spans count to their op's layer).
        """
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for nid, s in self.self_s.items():
            layer = self.names[nid].split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + s
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        top = parent == -1
        start = np.frombuffer(self.span_start, dtype=np.float64)[top]
        end = np.frombuffer(self.span_end, dtype=np.float64)[top]
        gaps = np.diff(np.concatenate(([t0], np.column_stack((start, end)).ravel(), [t1])))[::2]
        unattributed = float(gaps.sum())
        wall = t1 - t0
        residual = sum(by_layer.values()) + unattributed - wall
        worst = min(self.self_s.values(), default=0.0)
        ok = (abs(residual) <= 1e-6 * wall + 1e-6 and set(by_layer) == set(LAYERS)
              and not self._stack and worst >= -1e-9 and float(gaps.min()) >= -1e-9)
        return {"ok": ok, "layer_self_s": by_layer, "unattributed_s": unattributed,
                "wall_s": wall, "residual_s": residual, "min_self_s": worst,
                "min_gap_s": float(gaps.min()), "spans": len(self.span_start)}

    def save(self, path, t0: float) -> None:
        """Write the spans, with times in seconds from ``t0``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64) - t0,
            end=np.frombuffer(self.span_end, dtype=np.float64) - t0,
        )


def _conv1d_macs(out, args):
    x, p = args[0], args[1]
    c_out, l_out = out.shape
    return c_out * x.shape[0] * p.kernel * l_out


def _conv_transpose1d_macs(out, args):
    x, p = args[0], args[1]
    c, l_in = x.shape
    return c * p.in_channels * p.kernel * l_in


_MACS = {"nn.conv1d": _conv1d_macs, "nn.conv_transpose1d": _conv_transpose1d_macs}
