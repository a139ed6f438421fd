"""Timing hooks installed from outside the library.

``Probe`` replaces functions in the namespaces of the nine relaysense modules
and restores them on ``uninstall``. It always times the Monte Carlo entry
points (``mcsim.mc_*``), which splits a pass into its closed-form and Monte
Carlo parts. With ``trace=True`` it wraps every public function in every
module namespace that binds it (``sensing.activity_mixture`` is fading's
function, bound in sensing) plus ``EnergyModel.__init__``, and records one
span per call: function, start, end and parent span. Spans stay in memory;
``layer_stats`` turns them into per-layer calls, errors and self time, where
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

import numpy as np

LAYERS = ("specfun", "fading", "sensing", "harvest", "transmission",
          "energy_opt", "mcsim", "scenario", "cli")

MC_KINDS = ("detection", "outage", "harvest", "clipped_gain", "frame_energy", "ecg")


def _modules():
    return {name: importlib.import_module("relaysense." + name) for name in LAYERS}


class Probe:
    """Installable timing hooks; one instance per benchmark run."""

    def __init__(self):
        self.modules = _modules()
        self.names = []           # span function id -> "layer.function"
        self._wrappers = {}       # (function, trace) -> wrapper
        self._patched = []        # (namespace owner, attribute, original)
        self._local = threading.local()
        self.reset()

    # --- state of one pass -------------------------------------------------------

    def reset(self):
        self.spans = []           # [function id, start, end, parent span or -1]
        self.errors = {}          # function id -> calls that raised
        self.mc_calls = []        # (kind, trials, seconds)
        self.counters = dict.fromkeys(("fading.subsets", "specfun.elems",
                                       "specfun.cf_elems"), 0)
        self.mixture_keys = []
        self.coeff_keys = []

    # --- installation ----------------------------------------------------------------

    def install(self, trace):
        if self._patched:
            raise RuntimeError("probe already installed")
        for owner in self.modules.values():
            for attr, fn in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if fn.__module__.partition(".")[0] != "relaysense" or layer not in LAYERS:
                    continue
                qual = "%s.%s" % (layer, fn.__name__)
                is_mc = layer == "mcsim" and fn.__name__.startswith("mc_")
                if not (trace or is_mc):
                    continue
                self._patch(owner, attr, self._wrapper(fn, qual, trace, is_mc))
        if trace:
            cls = self.modules["energy_opt"].EnergyModel
            self._patch(cls, "__init__", self._wrapper(cls.__init__, "energy_opt.EnergyModel",
                                                       True, False))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrapper(self, fn, qual, trace, is_mc):
        key = (fn, trace)
        if key not in self._wrappers:
            self._wrappers[key] = self._wrap(fn, qual, trace, is_mc)
        return self._wrappers[key]

    def _fid(self, qual):
        self.names.append(qual)
        return len(self.names) - 1

    def _wrap(self, fn, qual, trace, is_mc):
        fid = self._fid(qual)
        sig = inspect.signature(fn)
        hook = self._hook(qual, sig)
        clock = time.perf_counter
        kind = fn.__name__[3:] if is_mc else None
        local = self._local

        if not trace:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    trials = sig.bind(*args, **kwargs).arguments["trials"]
                    self.mc_calls.append((kind, int(trials), clock() - t0))
            return timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            spans = self.spans
            idx = len(spans)
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[fid] = self.errors.get(fid, 0) + 1
                raise
            finally:
                rec[2] = t1 = clock()
                stack.pop()
                if is_mc:
                    trials = sig.bind(*args, **kwargs).arguments["trials"]
                    self.mc_calls.append((kind, int(trials), t1 - t0))
        return traced

    # --- counters read from the arguments ------------------------------------------

    def _hook(self, qual, sig):
        def arguments(args, kwargs):
            # positional calls are the common case and need no binding
            if kwargs:
                return tuple(sig.bind(*args, **kwargs).arguments.values())
            return args

        if qual in ("fading.activity_mixture", "fading.max_exp_expectation"):
            mixture = qual == "fading.activity_mixture"

            def subsets(args, kwargs):
                a = arguments(args, kwargs)
                means = np.asarray(a[0], dtype=float)
                self.counters["fading.subsets"] += 2 ** means.size - 1
                if mixture:
                    self.mixture_keys.append((means.tobytes(), float(a[1])))
            return subsets
        if qual.startswith("specfun."):
            cf = qual == "specfun.exp_scaled_gamma_upper_0"

            def elems(args, kwargs):
                x = np.asarray(arguments(args, kwargs)[0])
                self.counters["specfun.elems"] += x.size
                if cf:
                    self.counters["specfun.cf_elems"] += int(np.count_nonzero(x > 30.0))
            return elems
        if qual == "transmission.build_trans_coeffs":
            def coeffs(args, kwargs):
                links, primary, policy, p_detect = arguments(args, kwargs)[:4]
                self.coeff_keys.append((repr(links), repr(primary), repr(policy),
                                        float(p_detect)))
            return coeffs
        return None

    # --- per-pass summaries ------------------------------------------------------------

    def span_arrays(self):
        """The pass's spans as arrays: function id, start, end, parent."""
        if not self.spans:
            return (np.zeros(0, int), np.zeros(0), np.zeros(0), np.zeros(0, int))
        a = np.array(self.spans, dtype=float)
        return a[:, 0].astype(int), a[:, 1], a[:, 2], a[:, 3].astype(int)

    def mc_seconds(self):
        return sum(dt for _, _, dt in self.mc_calls)


def self_times(fid, start, end, parent):
    """Per-span self time: duration minus the time covered by child spans."""
    dur = end - start
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def layer_stats(names, fid, start, end, parent, errors):
    """{layer: (calls, self seconds, errors)} and the seconds of the root
    spans, which is the part of the pass covered by some span."""
    own = self_times(fid, start, end, parent)
    layer_of = np.array([LAYERS.index(n.partition(".")[0]) for n in names] or [0])
    lay = layer_of[fid] if fid.size else np.zeros(0, int)
    calls = np.bincount(lay, minlength=len(LAYERS))
    self_s = np.bincount(lay, weights=own, minlength=len(LAYERS))
    errs = np.zeros(len(LAYERS), int)
    for f, n in errors.items():
        errs[layer_of[f]] += n
    stats = {layer: (int(calls[k]), float(self_s[k]), int(errs[k]))
             for k, layer in enumerate(LAYERS)}
    roots = parent < 0
    return stats, float(np.sum(end[roots] - start[roots]))
