"""Tracing of the pronext layers from outside the package.

Nothing in the package is edited: the tracer replaces module and class
attributes with timing wrappers at the names the callers look up, and puts
every original back on `restore()`. Internal `ad.*` calls resolve through
the autodiff module's globals, so wrapping the module attribute catches
them too. `gaze` imports the parser functions by name, which is why the
parser span wraps `gaze.run_parser` rather than `parsers.shift_parse`.

Backward time is charged to the op that built the graph node: every node is
created by `autodiff._make`, so wrapping `_make` wraps each node's backward
closure, named by the node's op tag.

Spans are (id, parent id, phase, name, start ns, end ns) tuples kept in
memory; self time (duration minus the time covered by child spans) and
inclusive time are accumulated per phase and name as spans close.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# ops reported on their own; every other autodiff op is charged to "other"
NAMED_OPS = ("bilinear_sample", "conv2d", "matmul", "block_norm", "layer_norm",
             "gelu", "max_pool2d", "depthwise_conv2d", "softmax_weighted",
             "gather_tokens")

# public autodiff functions that are not graph ops
_NOT_OPS = {"default_dtype", "precision", "no_grad", "strict_finite",
            "topo_order", "trunc_normal", "zeros_param"}


def op_label(name):
    return name if name in NAMED_OPS else "other"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {}           # phase -> {name: [self ns, inclusive ns, calls]}
        self.counters = {}        # phase -> {name: value}
        self._stack = []          # [span id, name, start ns, child ns]
        self._next_id = 0
        self._patches = []        # (owner, attribute, original)
        self._stage = -1          # model stage index inside the current forward
        self.phase = "setup"

    @property
    def phase(self):
        return self._phase

    @phase.setter
    def phase(self, phase):
        self._phase = phase
        self._stats = self.stats.setdefault(phase, {})
        self._counters = self.counters.setdefault(phase, defaultdict(float))

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def end(self):
        """Close the innermost span; returns (duration ns, child ns)."""
        t1 = time.perf_counter_ns()
        sid, name, t0, child = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            pid = parent[0]
        else:
            pid = -1
        st = self._stats.get(name)
        if st is None:
            st = self._stats[name] = [0, 0, 0]
        st[0] += dur - child
        st[1] += dur
        st[2] += 1
        self.spans.append((sid, pid, self._phase, name, t0, t1))
        return dur, child

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name, value=1.0):
        self._counters[name] += value

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()
        return traced

    @property
    def installed(self):
        return bool(self._patches)

    def install(self, pronext):
        """Wrap the layers of the imported `pronext` modules (a namespace with
        attributes ad, parsers, gaze, model, train)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        ad, parsers, gaze, model, train = (pronext.ad, pronext.parsers, pronext.gaze,
                                           pronext.model, pronext.train)
        tracer = self

        for attr, fn in list(vars(ad).items()):
            if (inspect.isfunction(fn) and fn.__module__ == ad.__name__
                    and not attr.startswith("_") and attr not in _NOT_OPS):
                self._patch(ad, attr, self._timed(fn, f"autodiff.{op_label(attr)}"))

        make = ad._make
        bwd_names = {}

        def traced_make(data, parents, backward, op):
            tracer._counters["autodiff.ops"] += 1
            if backward is not None and ad._GRAD_ENABLED:     # else _make drops it
                name = bwd_names.get(op)
                if name is None:
                    name = bwd_names[op] = f"autodiff.{op_label(op)}.bwd"
                backward = tracer._timed(backward, name)
            return make(data, parents, backward, op)
        self._patch(ad, "_make", traced_make)
        self._patch(ad, "topo_order", self._timed(ad.topo_order, "autodiff.topo_order"))
        self._patch(ad.Tensor, "backward",
                    self._timed(ad.Tensor.backward, "autodiff.backward"))

        self._patch(parsers, "band_pass_filter",
                    self._timed(parsers.band_pass_filter, "parsers.band_pass"))
        self._patch(parsers, "run_field_net",
                    self._timed(parsers.run_field_net, "parsers.field_net"))
        run_parser = gaze.run_parser

        def traced_run_parser(*args, **kwargs):
            with tracer.span(f"parsers.parse.stage{tracer._stage}"):
                mask = run_parser(*args, **kwargs)
            tracer._mask_stats(mask)
            return mask
        self._patch(gaze, "run_parser", traced_run_parser)
        self._patch(gaze, "focal_abstract",
                    self._timed(gaze.focal_abstract, "gaze.focal_abstract"))
        self._patch(gaze, "context_impression_batched",
                    self._timed(gaze.context_impression_batched, "gaze.context"))
        padded = gaze._padded_group_indices

        def traced_padded(binary, value):
            idx, valid = padded(binary, value)
            real = float(valid.sum())
            tracer.count("gaze.real_slots", real)
            tracer.count("gaze.pad_slots", valid.size - real)
            return idx, valid
        self._patch(gaze, "_padded_group_indices", traced_padded)

        for attr in ("gaze_shift", "plain_abstract"):
            stage_fn = getattr(gaze, attr)

            def traced_stage(*args, _fn=stage_fn, **kwargs):
                tracer._stage += 1
                with tracer.span(f"model.stage{tracer._stage}"):
                    return _fn(*args, **kwargs)
            self._patch(gaze, attr, traced_stage)

        forward = model.ProNextModel.forward

        def traced_forward(*args, **kwargs):
            tracer._stage = -1
            with tracer.span("model.forward"):
                return forward(*args, **kwargs)
        self._patch(model.ProNextModel, "forward", traced_forward)
        apply_block = model.ProNextModel._apply_block

        def traced_block(*args, **kwargs):
            with tracer.span("model.stem" if tracer._stage < 0 else "model.post"):
                return apply_block(*args, **kwargs)
        self._patch(model.ProNextModel, "_apply_block", traced_block)
        self._patch(model.ProNextModel, "__init__",
                    self._timed(model.ProNextModel.__init__, "model.build"))

        self._patch(train.Trainer, "_assemble",
                    self._timed(train.Trainer._assemble, "train.assemble"))
        self._patch(train.AdamW, "step", self._timed(train.AdamW.step, "train.optimizer"))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- parser health -------------------------------------------------------

    def _mask_stats(self, mask):
        stage = self._stage
        P2 = mask.grid_side ** 2
        above = (mask.probs > 0.5).reshape(mask.batch, P2).sum(axis=1)
        self.count(f"parsers.focal.stage{stage}", float(mask.n_focal.sum()))
        self.count(f"parsers.slots.stage{stage}", float(mask.batch * P2))
        self.count("parsers.masks", float(mask.batch))
        self.count("parsers.fallbacks", float(np.sum((above == 0) | (above == P2))))
        bad = (mask.n_focal < 1) | (mask.n_focal > P2 - 1)
        self.count("parsers.bad_masks", float(bad.sum()))

    # -- read-out ------------------------------------------------------------

    def _stat(self, phase, name, i):
        return self.stats.get(phase, {}).get(name, (0, 0, 0))[i]

    def self_ms(self, phase, name):
        return self._stat(phase, name, 0) / 1e6

    def incl_ms(self, phase, name):
        return self._stat(phase, name, 1) / 1e6

    def ncalls(self, phase, name):
        return self._stat(phase, name, 2)

    def total_incl_ms(self, name):
        return sum(self._stat(p, name, 1) for p in self.stats) / 1e6

    def total_calls(self, name):
        return sum(self._stat(p, name, 2) for p in self.stats)

    def counter(self, name, phase=None):
        phases = [phase] if phase is not None else list(self.counters)
        return sum(self.counters.get(p, {}).get(name, 0.0) for p in phases)

    def dump(self, path):
        """Write every span as JSON lines: id, parent, phase, name, t0, t1 (ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in sorted(self.spans):
                fh.write(json.dumps(row) + "\n")
