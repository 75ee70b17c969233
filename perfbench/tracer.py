"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of each keyrates layer from the
outside: every module attribute that refers to a wrapped function is
replaced, so a function is traced under every name it is imported as
(``sps_expected_rate`` is reached through ``finite_key.comparison``,
``cli`` and ``montecarlo``). Nothing under ``src/`` is edited.

A span is a name, a start, an end and the index of its parent span.
Spans live in flat ``array`` buffers while the program runs and are
aggregated, and optionally written out, only after it returns.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

RAISED = 1
SCORED = 2  # an evaluation that returned a rate above zero

# (defining module, function, kind). "eval" spans also record whether
# the returned KeyReport scored above zero; "generator" spans time each
# resumption of a generator.
TARGETS = (
    ("photon_source", "attenuate", "call"),
    ("photon_source", "sps_distribution", "call"),
    ("channel", "detection_stats", "call"),
    ("asymptotic", "boundary_g2", "call"),
    ("asymptotic", "advantage_boundary", "call"),
    ("finite_key.core", "expected_tallies", "call"),
    ("finite_key.core", "sps_key_length", "call"),
    ("finite_key.core", "sps_expected_rate", "eval"),
    ("finite_key.wcp", "wcp_finite_key_rate", "eval"),
    ("finite_key.comparison", "optimized_sps_rate", "call"),
    ("finite_key.comparison", "optimized_wcp_rate", "call"),
    ("finite_key.comparison", "compare", "call"),
    ("finite_key.comparison", "sweep_rates", "call"),
    ("finite_key.comparison", "finite_boundary", "call"),
    ("optimizer", "optimize", "optimize"),
    ("montecarlo", "simulate_trial", "call"),
    ("montecarlo", "iter_trials", "generator"),
    ("cli", "load_config", "call"),
)

# Spans whose evaluation children count towards the tuners' useful share.
TUNERS = ("finite_key.comparison.optimized_sps_rate", "finite_key.comparison.optimized_wcp_rate")
EVALS = ("finite_key.core.sps_expected_rate", "finite_key.wcp.wcp_finite_key_rate")

# Spans the recorder opens itself: the CLI entry point, and the GA
# objective, a closure defined in ``keyrates.cli``.
ROOT_SPAN = "cli.run"
OBJECTIVE_SPAN = "cli.objective"


def span_names() -> list[str]:
    return [f"{module}.{func}" for module, func, _ in TARGETS] + [ROOT_SPAN, OBJECTIVE_SPAN]


class Recorder:
    """Flat span buffers plus the stack of currently open spans."""

    def __init__(self) -> None:
        self.names = span_names()
        self.name_ids = array("h")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.flags = array("b")
        self.stack = [-1]

    def wrap(self, fn, name: str, scored: bool = False):
        """Return ``fn`` recording one span per call under ``name``."""
        nid = self.names.index(name)
        add_id, add_parent, add_flag = self.name_ids.append, self.parents.append, self.flags.append
        add_start, add_end = self.starts.append, self.ends.append
        ends, flags, stack = self.ends, self.flags, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_id(nid)
            add_parent(stack[-1])
            add_flag(0)
            add_end(0.0)
            stack.append(idx)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                flags[idx] = RAISED
                stack.pop()
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if scored and result.rate_per_pulse > 0.0:
                flags[idx] = SCORED
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """Return generator function ``fn`` with one span per resumption."""
        resume = self.wrap(next, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = resume(iterator)
                except StopIteration:
                    return
                yield item

        return traced

    def wrap_optimize(self, fn, name: str):
        """Trace ``optimize`` and every call it makes to its objective."""

        def with_traced_objective(objective, *args, **kwargs):
            return fn(self.wrap(objective, OBJECTIVE_SPAN), *args, **kwargs)

        return self.wrap(functools.wraps(fn)(with_traced_objective), name)

    def install(self) -> None:
        """Replace every module-level reference to each target function."""
        replacements = {}
        for module, func, kind in TARGETS:
            original = getattr(sys.modules[f"keyrates.{module}"], func)
            name = f"{module}.{func}"
            if kind == "generator":
                wrapper = self.wrap_generator(original, name)
            elif kind == "optimize":
                wrapper = self.wrap_optimize(original, name)
            else:
                wrapper = self.wrap(original, name, scored=kind == "eval")
            replacements[id(original)] = (original, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "keyrates" and not mod_name.startswith("keyrates."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "flag": np.frombuffer(self.flags, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans out as a compressed NumPy archive."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def aggregate(spans: dict[str, np.ndarray], names: list[str]) -> dict:
    """Per-name calls, busy time, self time, raises and tuner usefulness.

    Self time is a span's duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.
    """
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    n_names = len(names)
    covered = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    self_time = duration - covered
    calls = np.bincount(name_id, minlength=n_names)
    busy = np.bincount(name_id, weights=duration, minlength=n_names)
    own = np.bincount(name_id, weights=self_time, minlength=n_names)
    raised = np.bincount(name_id[spans["flag"] == RAISED], minlength=n_names)

    tuner_ids = [names.index(n) for n in TUNERS]
    eval_ids = [names.index(n) for n in EVALS]
    parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
    in_tuner = np.isin(name_id, eval_ids) & np.isin(parent_name, tuner_ids)
    return {
        "functions": {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(own[i]),
                "raised": int(raised[i]),
            }
            for i, name in enumerate(names)
        },
        "tuner_evals": int(in_tuner.sum()),
        "tuner_evals_scored": int((in_tuner & (spans["flag"] == SCORED)).sum()),
    }
