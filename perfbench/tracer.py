"""Stage and call spans for the traced benchmark run.

The benchmark marks the five pipeline stages itself (``Tracer.stage``).  The
calls into each ``flucert`` module are timed by wrapping the module's public
functions from outside the package, only inside ``Tracer.installed()``, which
one traced pass at a time runs under.  A function is wrapped under every
name the pipeline reaches it by, including names bound with ``from ... import``
in another module, so calls made inside other ``flucert`` functions (such as
``hungarian`` inside ``gap_certificate``) are seen too.

Self time of a stage is its duration minus the stages nested in it.  Two
rules nest stages inside a single library call that does several stages'
work: a TV-role function opens a ``tv_bound`` stage when it is called inside
another stage, and a stage opened with ``split=(key, next_stage)`` hands over
to ``next_stage`` when ``key`` is called the second time inside it (the second
solver call of a composite like ``gap_certificate`` is the perturbed solve).
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

import flucert
from flucert import (
    assignment,
    coupling,
    densities,
    euclidean,
    fpp,
    random_matrix,
    rng,
    spin_glass,
)
from flucert.densities import AffinityResult

STAGES = ("sample", "base_solve", "perturbed_solve", "tv_bound", "certify")

MODULES = {
    "assignment": assignment,
    "coupling": coupling,
    "densities": densities,
    "euclidean": euclidean,
    "fpp": fpp,
    "random_matrix": random_matrix,
    "rng": rng,
    "spin_glass": spin_glass,
}

#: (module, function, role); role "tv" marks the analytic TV machinery
LAYERS = (
    ("spin_glass", "enumerate_energies", None),
    ("spin_glass", "result_from_energies", None),
    ("euclidean", "tsp_exact", None),
    ("euclidean", "matching_exact", None),
    ("euclidean", "rhee_coupling_sample", None),
    ("euclidean", "nn_sum", None),
    ("assignment", "hungarian", None),
    ("assignment", "perturb_costs", None),
    ("assignment", "perturbation_affinity", "tv"),
    ("assignment", "row_tail_probability", "tv"),
    ("fpp", "passage_time", None),
    ("fpp", "perturb", None),
    ("fpp", "ttq_lower_bound", None),
    ("fpp", "schedule_tv_bound", "tv"),
    ("random_matrix", "log_abs_det", None),
    ("random_matrix", "build", None),
    ("rng", "seed_stream", None),
    ("densities", "sample_iid", None),
    ("densities", "scaled_affinity", "tv"),
    ("coupling", "bernoulli_mixing_coupling", None),
    ("coupling", "certify", None),
    ("coupling", "bernoulli_exact_tv", "tv"),
    ("coupling", "product_tv_bound", "tv"),
)

LAYER_KEYS = tuple(f"{mod}.{name}" for mod, name, _ in LAYERS)

#: every namespace the pipeline can reach a layer function through
_NAMESPACES = (flucert, *MODULES.values())


class _Frame:
    __slots__ = (
        "id", "kind", "name", "t0", "child_s", "split_key", "split_to", "split_seen"
    )

    def __init__(self, span_id, kind, name, t0, split=None):
        self.id = span_id
        self.kind = kind
        self.name = name
        self.t0 = t0
        self.child_s = 0.0  # time covered by directly nested stages
        self.split_key, self.split_to = split if split else (None, None)
        self.split_seen = 0


class _StageContext:
    __slots__ = ("tracer", "name", "split")

    def __init__(self, tracer, name, split):
        self.tracer = tracer
        self.name = name
        self.split = split

    def __enter__(self):
        self.tracer._open_stage(self.name, self.split)

    def __exit__(self, *exc):
        self.tracer._close_stage()
        return False


class NullTracer:
    """Untraced run: stages cost one attribute lookup and nothing is wrapped."""

    replicate = None
    _null = contextlib.nullcontext()

    def stage(self, name, split=None):
        return self._null

    def observe(self, key, value):
        pass


class Tracer:
    """Spans and per-layer counters for traced passes.

    Counters accumulate over every pass run under ``installed()``; spans
    are kept only while ``keep_spans`` is true, so a long run can record the
    span tree of one pass without holding every pass in memory.
    """

    def __init__(self):
        self.replicate = None
        self.keep_spans = False
        self.spans = []
        self.calls = defaultdict(int)
        self.busy_s = defaultdict(float)
        self.stage_self_s = defaultdict(float)
        self.observed = defaultdict(list)
        self.quad_error_max = 0.0
        self._stack = []
        self._stages = []
        self._next_id = 0

    # -- wrapping -------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Bind a timed wrapper in place of every reachable binding of each
        layer function, and restore the originals on exit."""
        saved = []
        try:
            for mod, name, role in LAYERS:
                original = getattr(MODULES[mod], name)
                wrapper = self._wrap(f"{mod}.{name}", role, original)
                for ns in _NAMESPACES:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            saved.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)

    def _wrap(self, key, role, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(key, role, fn, args, kwargs)

        return wrapper

    def _call(self, key, role, fn, args, kwargs):
        stage = self._stages[-1] if self._stages else None
        if stage is not None and stage.split_key == key:
            stage.split_seen += 1
            if stage.split_seen == 2:
                self._split()
        nested = role == "tv" and stage is not None and stage.name != "tv_bound"
        if nested:
            self._open_stage("tv_bound", None)
        frame = self._push("call", key, None)
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._pop(frame, t1)
            self.calls[key] += 1
            self.busy_s[key] += t1 - frame.t0
            if nested:
                self._close_stage()
        if isinstance(out, AffinityResult):
            error = out.quadrature_error_estimate
            self.quad_error_max = max(self.quad_error_max, error)
        return out

    # -- spans ----------------------------------------------------------
    def stage(self, name, split=None):
        if name not in STAGES:
            raise ValueError(f"unknown stage {name!r}")
        return _StageContext(self, name, split)

    def observe(self, key, value):
        self.observed[key].append(float(value))

    def _push(self, kind, name, split):
        frame = _Frame(self._next_id, kind, name, 0.0, split)
        self._next_id += 1
        self._stack.append(frame)
        frame.t0 = perf_counter()
        return frame

    def _pop(self, frame, t1):
        self._stack.pop()
        if self.keep_spans:
            parent = self._stack[-1].id if self._stack else None
            self.spans.append(
                (frame.id, parent, self.replicate, frame.kind, frame.name, frame.t0, t1)
            )

    def _open_stage(self, name, split):
        self._stages.append(self._push("stage", name, split))

    def _close_stage(self, t1=None):
        frame = self._stages.pop()
        if t1 is None:
            t1 = perf_counter()
        self._pop(frame, t1)
        duration = t1 - frame.t0
        self.stage_self_s[frame.name] += duration - frame.child_s
        if self._stages:
            self._stages[-1].child_s += duration

    def _split(self):
        """End the innermost stage now and continue in its successor stage."""
        frame = self._stages[-1]
        if self._stack[-1] is not frame:
            raise RuntimeError("stage split inside an open call")
        now = perf_counter()
        self._close_stage(now)
        successor = _Frame(self._next_id, "stage", frame.split_to, now)
        self._next_id += 1
        self._stack.append(successor)
        self._stages.append(successor)
