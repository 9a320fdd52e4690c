"""Span tracing of cwf's layers, installed from outside the package.

Every public function of a layer is replaced by a wrapper that records one
span per call: name, parent span, start and end.  Spans live in memory and
are written out once, when the benchmark ends.  The wrappers are installed
wherever the function is bound, because `sweeps`, `validate`, `waterfill`
and the package itself import names with `from .x import f`; patching only
the defining module would miss those calls.

`trial_stream` additionally hands out a counting proxy of the Philox
generator, so normals and exponentials are counted (and the draws timed)
inside the span that consumes them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# traced public functions of each layer (module cwf.<layer>); "Cls.meth" names a method
LAYERS = {
    "cli": ("main",),
    "config": ("default_config", "point_seed", "db_to_linear",
               "ExperimentConfig.from_file", "ExperimentConfig.override"),
    "sweeps": ("run_thm1_sweep", "run_queue_sweep", "run_fading_sweep",
               "run_waterfill_sweep", "write_csv"),
    "simulate": ("trial_stream", "simulate_awgn_multiuser", "simulate_block_fading",
                 "simulate_rayleigh_block_fading", "simulate_queue",
                 "simulate_error_probability", "sorted_exponential_means"),
    "channel": ("info_density_increment", "capacity", "dispersion", "sinr_awgn",
                "sinr_fading"),
    "lengths": ("awgn_vlsf_lengths", "queue_vlsf_lengths", "fading_vlsf_coeffs",
                "fixed_length_blocklength", "message_threshold", "rayleigh_order_means"),
    "waterfill": ("optimize_threshold", "capacity_lower_bound", "mc_capacity",
                  "evaluate_thresholds", "single_user_threshold"),
    "quadrature": ("exp_tail_quadrature", "adaptive_simpson", "checked_exp_integral"),
    "validate": ("run_validate", "serialize_report"),
}

#: cancellation walks draw 2*dims normals per active user and symbol
WALK_DIMS = {
    "simulate.simulate_awgn_multiuser": 1,
    "simulate.simulate_block_fading": 2,
    "simulate.simulate_rayleigh_block_fading": 2,
}


def _plan_trials(args, kwargs):
    for value in (*args, *kwargs.values()):
        trials = getattr(value, "trials", None)
        if isinstance(trials, int) and hasattr(value, "seed"):
            return trials
    return 0


def _annotate_outcome(args, kwargs, result):
    attrs = {"trials": _plan_trials(args, kwargs), "cap_hits": int(np.sum(result.cap_hits))}
    mean = getattr(result, "mean", None)
    if isinstance(mean, np.ndarray):
        attrs["stop_sum"] = int(round(float(mean.sum()) * result.trials))
    return attrs


#: per-span attributes recorded from a call's arguments and result
ANNOTATE = {
    **{name: _annotate_outcome for name in (
        "simulate.simulate_awgn_multiuser", "simulate.simulate_block_fading",
        "simulate.simulate_rayleigh_block_fading", "simulate.simulate_queue",
        "simulate.simulate_error_probability")},
    "channel.info_density_increment": lambda a, k, r: {"elems": int(np.size(r))},
    "sweeps.write_csv": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    "waterfill.mc_capacity": lambda a, k, r: {"trials": int(r.trials)},
}


def _span_name(layer: str, attr: str):
    name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
    if name == "waterfill.capacity_lower_bound":
        return lambda args, kwargs: name + (
            ".checked" if kwargs.get("cross_check", True) else ".unchecked")
    return lambda args, kwargs: name


class CountingGenerator:
    """Delegates to a numpy Generator, counting and timing the draws."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def _draw(self, kind, method, args, kwargs):
        start = time.perf_counter()
        out = method(*args, **kwargs)
        self._tracer.record_draw(kind, int(np.size(out)), time.perf_counter() - start)
        return out

    def standard_normal(self, *args, **kwargs):
        return self._draw("normals", self._gen.standard_normal, args, kwargs)

    def standard_exponential(self, *args, **kwargs):
        return self._draw("exponentials", self._gen.standard_exponential, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """In-memory span recorder shared by all wrappers of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._saved: list[tuple] = []
        self._clear()

    def reset(self) -> tuple:
        """Start a new repetition; returns the spans recorded so far."""
        recorded = (self.names, self.parents, self.starts, self.ends)
        self._clear()
        return recorded

    def _clear(self):
        # flat arrays, not per-span objects: the garbage collector would
        # otherwise rescan every recorded span and dominate the overhead
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.quadrature_errors: set[int] = set()

    def record_draw(self, kind: str, count: int, seconds: float):
        if not self._stack:
            return
        attrs = self.attrs.setdefault(self._stack[-1], {})
        attrs[kind] = attrs.get(kind, 0) + count
        attrs[kind + "_s"] = attrs.get(kind + "_s", 0.0) + seconds

    def wrap(self, fn, namer, quadrature_error):
        tracer = self
        is_stream = fn.__name__ == "trial_stream"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            stack = tracer._stack
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(index)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except quadrature_error as exc:
                if name.startswith("quadrature."):
                    tracer.quadrature_errors.add(id(exc))
                raise
            finally:
                tracer.ends[index] = time.perf_counter()
                stack.pop()
            annotate = ANNOTATE.get(name)
            if annotate is not None:
                tracer.attrs.setdefault(index, {}).update(annotate(args, kwargs, result))
            if is_stream:
                return CountingGenerator(result, tracer)
            return result

        return traced

    def install(self):
        """Replace every binding of every traced function in cwf's modules."""
        from cwf.quadrature import QuadratureError

        for layer in LAYERS:
            importlib.import_module(f"cwf.{layer}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cwf" or n.startswith("cwf."))]
        for layer, attrs in LAYERS.items():
            home = importlib.import_module(f"cwf.{layer}")
            for attr in attrs:
                namer = _span_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.wrap(raw.__func__, namer, QuadratureError))
                    else:
                        patched = self.wrap(raw, namer, QuadratureError)
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, patched)
                    continue
                original = getattr(home, attr)
                traced = self.wrap(original, namer, QuadratureError)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, value))
                            setattr(module, key, traced)

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def write_spans(path, run_id: str, repetitions: list[tuple]) -> None:
    """Write every repetition's spans as tab-separated lines, times relative
    to the repetition's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run_id\trep\tspan\tparent\tname\tstart_s\tend_s\n")
        for rep, (names, parents, starts, ends) in enumerate(repetitions):
            t0 = starts[0] if starts else 0.0
            for i, row in enumerate(zip(names, parents, starts, ends)):
                name, parent, start, end = row
                fh.write(f"{run_id}\t{rep}\t{i}\t{parent}\t{name}\t"
                         f"{start - t0:.9f}\t{end - t0:.9f}\n")


def summarize(tracer: Tracer) -> dict:
    """Per-name call counts, total and self times and summed attributes."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    child_time: defaultdict = defaultdict(float)
    attrs: defaultdict = defaultdict(Counter)
    layer_total: defaultdict = defaultdict(float)
    names = tracer.names
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    for name, parent, duration in zip(names, tracer.parents, durations):
        calls[name] += 1
        total[name] += duration
        if parent >= 0:
            child_time[parent] += duration
        layer = name.split(".", 1)[0]
        if parent < 0 or names[parent].split(".", 1)[0] != layer:
            layer_total[layer] += duration
    for index, extra in tracer.attrs.items():
        attrs[names[index]].update(extra)
    self_time: defaultdict = defaultdict(float)
    for i, (name, duration) in enumerate(zip(names, durations)):
        self_time[name] += duration - child_time.get(i, 0.0)
    return {"calls": calls, "total": total, "self": self_time, "attrs": attrs,
            "layer_total": layer_total, "quadrature_errors": len(tracer.quadrature_errors)}


def merge(summaries: list[dict]) -> dict:
    """Sum several repetitions' summaries."""
    out = {"calls": Counter(), "total": defaultdict(float), "self": defaultdict(float),
           "attrs": defaultdict(Counter), "layer_total": defaultdict(float),
           "quadrature_errors": 0}
    for s in summaries:
        out["calls"].update(s["calls"])
        for key in ("total", "self", "layer_total"):
            for name, value in s[key].items():
                out[key][name] += value
        for name, counter in s["attrs"].items():
            out["attrs"][name].update(counter)
        out["quadrature_errors"] += s["quadrature_errors"]
    return out


def counts(summary: dict) -> dict:
    """The exact counts that same-seed runs must repeat."""
    calls, attrs = summary["calls"], summary["attrs"]
    return {
        "normals_drawn": sum(a.get("normals", 0) for a in attrs.values()),
        "exponentials_drawn": sum(a.get("exponentials", 0) for a in attrs.values()),
        "trial_stream.calls": calls["simulate.trial_stream"],
        "info_density_increment.calls": calls["channel.info_density_increment"],
        "info_density_increment.elems": attrs["channel.info_density_increment"]["elems"],
        "optimize_threshold.calls": calls["waterfill.optimize_threshold"],
        "adaptive_simpson.calls": calls["quadrature.adaptive_simpson"],
        "cap_hits": sum(a.get("cap_hits", 0) for a in attrs.values()),
        "walk_trials": sum(attrs[n]["trials"] for n in attrs if n in ANNOTATE
                           and n.startswith("simulate.")),
        "write_csv.bytes": attrs["sweeps.write_csv"]["bytes"],
    }


def _per(value: float, count: float, scale: float = 1.0) -> float:
    return scale * value / count if count else 0.0


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics of the traced repetitions: counts of the first
    repetition, times per repetition or per unit over all of them."""
    reps = len(summaries)
    summary = merge(summaries)
    calls, total, self_time = summary["calls"], summary["total"], summary["self"]
    attrs, layer_total = summary["attrs"], summary["layer_total"]
    c = counts(summaries[0])

    def per_trial_us(name):
        return _per(total[name], attrs[name]["trials"], 1e6)

    def per_call(name, scale):
        return _per(total[name], calls[name], scale)

    useful = drawn = 0
    for name, dims in WALK_DIMS.items():
        useful += 2 * dims * attrs[name]["stop_sum"]
        drawn += attrs[name]["normals"]
    normals = sum(a.get("normals", 0) for a in attrs.values())
    normals_s = sum(a.get("normals_s", 0.0) for a in attrs.values())
    simulate_self = sum(v for n, v in self_time.items() if n.startswith("simulate."))
    return {
        "simulate.simulate_awgn_multiuser.us_per_trial": per_trial_us("simulate.simulate_awgn_multiuser"),
        "simulate.simulate_queue.us_per_trial": per_trial_us("simulate.simulate_queue"),
        "simulate.simulate_rayleigh_block_fading.us_per_trial": per_trial_us(
            "simulate.simulate_rayleigh_block_fading"),
        "simulate.simulate_error_probability.us_per_trial": per_trial_us(
            "simulate.simulate_error_probability"),
        "simulate.draw_efficiency": _per(useful, drawn),
        "simulate.trial_stream.calls": c["trial_stream.calls"],
        "simulate.trial_stream.s": total["simulate.trial_stream"] / reps,
        "simulate.normals_drawn": c["normals_drawn"],
        "simulate.exponentials_drawn": c["exponentials_drawn"],
        "simulate.normals_per_s": _per(normals, normals_s),
        "simulate.self_s": simulate_self / reps,
        "simulate.cap_hits": c["cap_hits"],
        "channel.info_density_increment.calls": c["info_density_increment.calls"],
        "channel.info_density_increment.elems_per_call": _per(
            c["info_density_increment.elems"], c["info_density_increment.calls"]),
        "waterfill.optimize_threshold.calls": c["optimize_threshold.calls"],
        "waterfill.optimize_threshold.ms_per_call": per_call("waterfill.optimize_threshold", 1e3),
        "waterfill.capacity_lower_bound.checked.us_per_call": per_call(
            "waterfill.capacity_lower_bound.checked", 1e6),
        "waterfill.capacity_lower_bound.unchecked.us_per_call": per_call(
            "waterfill.capacity_lower_bound.unchecked", 1e6),
        "waterfill.mc_capacity.ns_per_trial": _per(
            total["waterfill.mc_capacity"], attrs["waterfill.mc_capacity"]["trials"], 1e9),
        "quadrature.exp_tail_quadrature.us_per_call": per_call("quadrature.exp_tail_quadrature", 1e6),
        "quadrature.adaptive_simpson.calls": c["adaptive_simpson.calls"],
        "quadrature.adaptive_simpson.s": total["quadrature.adaptive_simpson"] / reps,
        "quadrature.errors": summaries[0]["quadrature_errors"],
        "sweeps.run_thm1_sweep.s": total["sweeps.run_thm1_sweep"] / reps,
        "sweeps.run_queue_sweep.s": total["sweeps.run_queue_sweep"] / reps,
        "sweeps.run_fading_sweep.s": total["sweeps.run_fading_sweep"] / reps,
        "sweeps.run_waterfill_sweep.s": total["sweeps.run_waterfill_sweep"] / reps,
        "sweeps.write_csv.s": total["sweeps.write_csv"] / reps,
        "sweeps.write_csv.bytes": c["write_csv.bytes"],
        "lengths.s": layer_total["lengths"] / reps,
        "config.s": layer_total["config"] / reps,
        "cli.main.self_s": self_time["cli.main"] / reps,
    }
