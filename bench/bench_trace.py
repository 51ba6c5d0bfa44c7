"""Call tracing of the ballsgd layers, installed from outside the package.

Every public function and public method defined in a layer module is
replaced, wherever a ballsgd module looks it up by name, with a wrapper.
In counting mode the wrapper only keeps deterministic counts; in span mode
it also records one span per call (name, start, end, parent) in flat
arrays, from which per-layer self time is computed after the pass.

The counts are read from arguments and returned values only (array sizes,
``RunResult.trace``, ``CoupledOutcome``, ``EigEstimate``, ``Certificate``,
``TailReport``, ``RunArtifacts``), so they do not depend on how a layer
works inside.  A name the program no longer defines is simply not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("rng", "noise", "problems", "optimizer", "certify", "diagnostics",
          "concentration", "harness", "hyperparams", "cli")

# Sampler entry points: a call nested in another of these (sample() nests
# sample_block(), the truncated path nests sample_scaled_gaussian()) is part
# of the outer call, so only outermost sampler calls count as calls and rows.
_SAMPLERS = {"NoiseSampler.sample", "NoiseSampler.sample_block",
             "sample_scaled_gaussian", "sample_uniform_ball",
             "sample_uniform_sphere", "inject"}
# Diagnostics entry points that step SGD trajectories themselves.
_DIAG_STEPPERS = {"escape_frequency", "coupled_escape_trial"}
_DIAG_TRIALS = {"coupled_escape_trial", "quadratic_model_run"}
_RUNNERS = {"run_ball_sgd", "run_noise_scheduled_sgd"}
_TAIL_EXPERIMENTS = {"pinelis_tail_experiment", "bernstein_tail_experiment"}

COUNT_KEYS = (
    "rng.words", "noise.calls", "noise.rows", "problems.grad_evals",
    "problems.value_evals", "problems.hvp_evals", "optimizer.steps",
    "optimizer.episodes", "optimizer.exits", "optimizer.injections",
    "diagnostics.trials", "diagnostics.steps", "certify.calls",
    "certify.hvps", "certify.eig_iterations", "certify.certificates",
    "certify.eig_converged",
    "concentration.trials", "harness.files_written",
    "harness.bytes_written")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _vectors(obj, x) -> int:
    """Number of points in x: 1 for a vector, n for an (n, dim) block."""
    size = np.size(x)
    dim = getattr(obj, "dim", 0) or size
    return max(1, size // dim)


def _tree_size(directory: str):
    files = 0
    size = 0
    for base, _, names in os.walk(directory):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


class Tracer:
    """Installs wrappers on the ballsgd layers and collects their data.

    ``spans=False`` keeps counts only (cheap, used for the warm-up pass of
    an untraced run); ``spans=True`` also records every call as a span.
    """

    def __init__(self, spans: bool):
        self.spans = spans
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.names: list[str] = []
        self._name_layer: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # number of open calls per layer, plus the sampler and stepper roles
        self._active = [0] * (len(LAYERS) + 2)
        self._sampler_role = len(LAYERS)
        self._stepper_role = len(LAYERS) + 1
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ballsgd.{layer}")
                   for layer in LAYERS}
        replacements = {}
        for layer_index, layer in enumerate(LAYERS):
            module = modules[layer]
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and \
                        value.__module__ == module.__name__:
                    replacements[value] = self._wrap(value, name, layer_index)
                elif inspect.isclass(value) and \
                        value.__module__ == module.__name__:
                    self._wrap_methods(value, layer_index)
        # patch every namespace that looks a wrapped function up by name
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ballsgd"
                                      or mod_name.startswith("ballsgd.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(value) \
                    if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_methods(self, cls, layer_index: int) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            wrapper = self._wrap(value, f"{cls.__name__}.{name}", layer_index)
            self._restore.append((cls, name, value))
            setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, qualname: str, layer_index: int):
        name_id = len(self.names)
        self.names.append(f"{LAYERS[layer_index]}.{qualname}")
        self._name_layer.append(layer_index)
        roles = [layer_index]
        if LAYERS[layer_index] == "noise" and qualname in _SAMPLERS:
            roles.append(self._sampler_role)
        if LAYERS[layer_index] == "diagnostics" and \
                qualname in _DIAG_STEPPERS:
            roles.append(self._stepper_role)
        roles = tuple(roles)
        on_exit = self._counter_for(LAYERS[layer_index], qualname)
        active = self._active

        if not self.spans:
            def wrapper(*args, **kwargs):
                for r in roles:
                    active[r] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    for r in roles:
                        active[r] -= 1
                if on_exit is not None:
                    on_exit(result, args, kwargs)
                return result
        else:
            stack = self._stack
            names = self.span_name
            parents = self.span_parent
            starts = self.span_start
            ends = self.span_end
            clock = time.perf_counter

            def wrapper(*args, **kwargs):
                for r in roles:
                    active[r] += 1
                index = len(names)
                names.append(name_id)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                    for r in roles:
                        active[r] -= 1
                if on_exit is not None:
                    on_exit(result, args, kwargs)
                return result

        return functools.update_wrapper(wrapper, fn)

    def _counter_for(self, layer: str, qualname: str):
        """The count update for one wrapped name, or None."""
        counts = self.counts
        active = self._active
        short = qualname.rsplit(".", 1)[-1]
        certify_layer = LAYERS.index("certify")
        sampler = self._sampler_role
        stepper = self._stepper_role

        if layer == "rng" and qualname == "random_words":
            def count(result, args, kwargs):
                counts["rng.words"] += len(result)
            return count
        if layer == "noise" and qualname in _SAMPLERS:
            def count(result, args, kwargs):
                if active[sampler] == 0:
                    counts["noise.calls"] += 1
                    counts["noise.rows"] += (result.shape[0]
                                             if np.ndim(result) == 2 else 1)
            return count
        if layer == "problems" and "." in qualname and \
                short in ("gradient", "value", "hvp"):
            if short == "gradient":
                def count(result, args, kwargs):
                    n = _vectors(args[0], _arg(args, kwargs, 1, "x"))
                    counts["problems.grad_evals"] += n
                    if active[stepper]:
                        counts["diagnostics.steps"] += n
            elif short == "value":
                def count(result, args, kwargs):
                    counts["problems.value_evals"] += _vectors(
                        args[0], _arg(args, kwargs, 1, "x"))
            else:
                def count(result, args, kwargs):
                    n = _vectors(args[0], _arg(args, kwargs, 2, "v"))
                    counts["problems.hvp_evals"] += n
                    if active[certify_layer]:
                        counts["certify.hvps"] += n
            return count
        if layer == "optimizer" and qualname in _RUNNERS:
            def count(result, args, kwargs):
                trace = result.trace
                counts["optimizer.steps"] += trace.total_steps
                counts["optimizer.episodes"] += len(trace.episodes)
                counts["optimizer.exits"] += trace.exits
                counts["optimizer.injections"] += trace.injections
            return count
        if layer == "diagnostics" and qualname == "escape_frequency":
            def count(result, args, kwargs):
                counts["diagnostics.trials"] += result.n
            return count
        if layer == "diagnostics" and qualname in _DIAG_TRIALS:
            def count(result, args, kwargs):
                counts["diagnostics.trials"] += 1
            return count
        if layer == "certify":
            # a call from outside the layer into one of its functions; the
            # methods of its result records are not solver calls
            is_function = "." not in qualname

            def count(result, args, kwargs):
                if is_function and active[certify_layer] == 0:
                    counts["certify.calls"] += 1
                if qualname == "min_eigenvalue":
                    counts["certify.eig_iterations"] += result.iterations
                elif qualname == "certify":
                    counts["certify.certificates"] += 1
                    counts["certify.eig_converged"] += bool(
                        result.eig_converged)
            return count
        if layer == "concentration" and qualname in _TAIL_EXPERIMENTS:
            def count(result, args, kwargs):
                counts["concentration.trials"] += result.n_trials
            return count
        if layer == "harness" and qualname == "run_config":
            def count(result, args, kwargs):
                files, size = _tree_size(result.directory)
                counts["harness.files_written"] += files
                counts["harness.bytes_written"] += size
            return count
        return None

    # -- results ------------------------------------------------------------

    @property
    def sgd_steps(self) -> int:
        """SGD steps taken by the optimizer runs and the diagnostics loops."""
        return self.counts["optimizer.steps"] + \
            self.counts["diagnostics.steps"]

    def span_arrays(self) -> dict:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64)}

    def write_spans(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(LAYERS),
                 name_layer=np.array(self._name_layer, dtype=np.int32),
                 **self.span_arrays())

    def layer_times(self) -> dict:
        """Per layer: self time, and busy time (inclusive time of the
        layer's outermost calls); per span name: inclusive time."""
        spans = self.span_arrays()
        n_layers = len(LAYERS)
        if spans["name"].size == 0:
            zeros = np.zeros(n_layers)
            return {"self": zeros, "busy": zeros, "by_name": {}}
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=duration.size)
        self_time = duration - child_time
        name_layer = np.array(self._name_layer, dtype=np.int64)
        span_layer = name_layer[spans["name"]]
        outer = ~nested
        outer[nested] = span_layer[parent[nested]] != span_layer[nested]
        by_name = np.bincount(spans["name"], weights=duration,
                              minlength=len(self.names))
        return {
            "self": np.bincount(span_layer, weights=self_time,
                                minlength=n_layers),
            "busy": np.bincount(span_layer[outer], weights=duration[outer],
                                minlength=n_layers),
            "by_name": {name: float(by_name[i])
                        for i, name in enumerate(self.names)},
        }


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    c = tracer.counts
    times = tracer.layer_times()
    self_s = {layer: float(times["self"][i]) for i, layer in
              enumerate(LAYERS)}
    busy = {layer: float(times["busy"][i]) for i, layer in enumerate(LAYERS)}
    by_name = times["by_name"]

    def name_time(suffix):
        return sum(t for name, t in by_name.items()
                   if name.startswith("problems.") and name.endswith(suffix))

    return {
        "rng.words": c["rng.words"],
        "rng.words_per_s": _rate(c["rng.words"], busy["rng"]),
        "rng.self_s": self_s["rng"],
        "noise.calls": c["noise.calls"],
        "noise.rows": c["noise.rows"],
        "noise.rows_per_call": _rate(c["noise.rows"], c["noise.calls"]),
        "noise.self_s": self_s["noise"],
        "problems.grad_evals": c["problems.grad_evals"],
        "problems.grad_per_s": _rate(c["problems.grad_evals"],
                                     name_time(".gradient")),
        "problems.value_evals": c["problems.value_evals"],
        "problems.hvp_evals": c["problems.hvp_evals"],
        "problems.hvp_per_s": _rate(c["problems.hvp_evals"],
                                    name_time(".hvp")),
        "problems.self_s": self_s["problems"],
        "optimizer.steps": c["optimizer.steps"],
        "optimizer.episodes": c["optimizer.episodes"],
        "optimizer.exits": c["optimizer.exits"],
        "optimizer.injections": c["optimizer.injections"],
        "optimizer.steps_per_s": _rate(c["optimizer.steps"],
                                       busy["optimizer"]),
        "optimizer.self_s": self_s["optimizer"],
        "diagnostics.trials": c["diagnostics.trials"],
        "diagnostics.steps": c["diagnostics.steps"],
        "diagnostics.steps_per_s": _rate(c["diagnostics.steps"],
                                         busy["diagnostics"]),
        "diagnostics.self_s": self_s["diagnostics"],
        "certify.calls": c["certify.calls"],
        "certify.hvps": c["certify.hvps"],
        "certify.hvps_per_call": _rate(c["certify.hvps"], c["certify.calls"]),
        "certify.eig_iterations": c["certify.eig_iterations"],
        # vacuously 1.0 when the pass made no certificate
        "certify.eig_converged_fraction": (
            c["certify.eig_converged"] / c["certify.certificates"]
            if c["certify.certificates"] else 1.0),
        "certify.self_s": self_s["certify"],
        "concentration.trials": c["concentration.trials"],
        "concentration.trials_per_s": _rate(c["concentration.trials"],
                                            busy["concentration"]),
        "concentration.self_s": self_s["concentration"],
        "harness.self_s": self_s["harness"],
        "harness.files_written": c["harness.files_written"],
        "harness.bytes_written": c["harness.bytes_written"],
        "hyperparams.resolve_s": busy["hyperparams"],
        "cli.self_s": self_s["cli"],
    }
