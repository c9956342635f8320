"""Spans around calls into winfree's layers, and the per-layer metrics from them.

Tracing rebinds the module attributes through which callers reach winfree's
public functions at call time (``integrate.simulate``, ``model.influence``,
``equilibria.solve_R_equation``, ...), so calls made inside the package are
recorded as well as the benchmark's own.  No file of the package changes.
Each span records its name, start, end, parent span and op id; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from collections import defaultdict

from winfree import cli, equilibria, integrate, model, montecarlo, thresholds

MODEL_FNS = ("influence", "order_parameter", "vector_field", "divergence", "jacobian")
ANALYSIS_FNS = ("detect_death", "regime_report", "rotation_numbers", "verify_theorem_conclusions")
MC_FNS = ("empirical_death_probability", "empirical_order_param_cdf", "estimate_escape_measure")
CLI_COMMANDS = ("sweep", "simulate", "verify", "kappa-pc", "bounds", "critical-coupling")


def _thresholds_public():
    return [name for name, fn in vars(thresholds).items()
            if inspect.isfunction(fn) and fn.__module__ == thresholds.__name__ and not name.startswith("_")]


def _simulate_info(args, kwargs, out, exc):
    traj = out if exc is None else getattr(exc, "partial_trajectory", None)
    opts = args[3] if len(args) > 3 else kwargs["opts"]
    info = {"failed": isinstance(exc, integrate.IntegrationFailure), "method": opts.method}
    if traj is not None:
        info.update(accepted=traj.accepted_steps, rejected=traj.rejected_steps, t_end=float(traj.times[-1]))
    return info


def _samples_info(args, kwargs, out, exc):
    mc = kwargs.get("mc") or next(a for a in args if isinstance(a, montecarlo.McConfig))
    return {"samples": mc.samples}


def _length_info(args, kwargs, out, exc):
    return {"count": 0 if out is None else len(out)}


class Tracer:
    """Records spans; install() wraps winfree's public functions, uninstall() restores them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, info]
        self.stack = []
        self.op = -1
        self._saved = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as err:
                exc = err
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if info is not None:
                    record[5] = info(args, kwargs, out, exc)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, info=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def install(self):
        for fn in MODEL_FNS:
            self._patch(model, fn, f"model.{fn}")
        self._patch(integrate, "simulate", "integrate.simulate", _simulate_info)
        for fn in ANALYSIS_FNS:
            self._patch(integrate, fn, f"integrate.analysis.{fn}")
        for fn in MC_FNS:
            self._patch(montecarlo, fn, f"montecarlo.{fn}", _samples_info)
        self._patch(equilibria, "enumerate_equilibria", "equilibria.enumerate", _length_info)
        self._patch(equilibria, "solve_R_equation", "equilibria.solve_R", _length_info)
        self._patch(equilibria, "build_W_polynomial", "equilibria.wpoly_build")
        self._patch(equilibria.WPolynomial, "roots_in", "equilibria.wpoly_roots")
        self._patch(equilibria, "critical_coupling", "equilibria.critical_coupling")
        for fn in _thresholds_public():
            self._patch(thresholds, fn, f"thresholds.{fn}")
        for command in CLI_COMMANDS:
            self._patch(cli, "cmd_" + command.replace("-", "_"), f"cli.{command}")
        self._patch(cli, "main", "cli.main")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": rows}, fh)


def _rhs_evals(info) -> int:
    attempts = info.get("accepted", 0) + info.get("rejected", 0)
    if info["method"] == "dormand_prince45":
        return 1 + 6 * attempts  # first-same-as-last: one start-up evaluation, six per attempt
    return 4 * attempts


def layer_metrics(spans, passes: int, cli_output_bytes: int) -> dict:
    """Per-layer counts and times per pass of the op list, from the traced passes."""
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    count = defaultdict(int)  # (span name, info key) -> summed counter
    rhs_evals = 0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        self_s[name] += dur - child[i]
        for key, value in (info or {}).items():
            if isinstance(value, (bool, int, float)):
                count[(name, key)] += value
        if name == "integrate.simulate":
            rhs_evals += _rhs_evals(info)

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    def prefixed(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def outermost(prefix):
        """Time in spans of a layer, not counting spans nested in another of that layer."""
        return sum(end - start for name, start, end, parent, _, _ in spans
                   if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix)))

    m = {}
    mc_busy, mc_self = prefixed("montecarlo.", busy), prefixed("montecarlo.", self_s)
    samples = sum(v for (n, k), v in count.items() if n.startswith("montecarlo.") and k == "samples")
    m["montecarlo.samples"] = per_pass(samples)
    m["montecarlo.busy_s"] = per_pass(mc_busy)
    m["montecarlo.self_s"] = per_pass(mc_self)
    m["montecarlo.self_us_per_sample"] = 1e6 * ratio(mc_self, samples)

    sim = "integrate.simulate"
    accepted, rejected = count[(sim, "accepted")], count[(sim, "rejected")]
    m["integrate.simulate.calls"] = per_pass(calls[sim])
    m["integrate.simulate.busy_s"] = per_pass(busy[sim])
    m["integrate.simulate.us_per_call"] = 1e6 * ratio(busy[sim], calls[sim])
    m["integrate.accepted_steps"] = per_pass(accepted)
    m["integrate.rejected_steps"] = per_pass(rejected)
    m["integrate.reject_ratio"] = ratio(rejected, accepted + rejected)
    m["integrate.us_per_step"] = 1e6 * ratio(self_s[sim], accepted + rejected)
    m["integrate.rhs_evals"] = per_pass(rhs_evals)
    m["integrate.steps_per_time"] = ratio(accepted, count[(sim, "t_end")])
    m["integrate.failures"] = per_pass(count[(sim, "failed")])
    m["integrate.analysis.busy_s"] = per_pass(outermost("integrate.analysis."))

    for fn in MODEL_FNS:
        m[f"model.{fn}.calls"] = per_pass(calls[f"model.{fn}"])
        m[f"model.{fn}.busy_s"] = per_pass(busy[f"model.{fn}"])

    roots = count[("equilibria.solve_R", "count")]
    records = count[("equilibria.enumerate", "count")]
    signatures = calls["equilibria.solve_R"]
    m["equilibria.enumerate.busy_s"] = per_pass(busy["equilibria.enumerate"])
    m["equilibria.enumerate.self_s"] = per_pass(self_s["equilibria.enumerate"])
    m["equilibria.signatures"] = per_pass(signatures)
    m["equilibria.solve_R.busy_s"] = per_pass(busy["equilibria.solve_R"])
    m["equilibria.solve_R.us_per_signature"] = 1e6 * ratio(busy["equilibria.solve_R"], signatures)
    m["equilibria.roots"] = per_pass(roots)
    m["equilibria.records"] = per_pass(records)
    m["equilibria.unique_ratio"] = ratio(records, roots)
    m["equilibria.wpoly_build.busy_s"] = per_pass(busy["equilibria.wpoly_build"])
    m["equilibria.wpoly_roots.busy_s"] = per_pass(busy["equilibria.wpoly_roots"])
    m["equilibria.critical_coupling.busy_s"] = per_pass(busy["equilibria.critical_coupling"])

    m["thresholds.calls"] = per_pass(sum(v for k, v in calls.items() if k.startswith("thresholds.")))
    m["thresholds.busy_s"] = per_pass(outermost("thresholds."))

    for command in CLI_COMMANDS:
        m[f"cli.{command}.wall_s"] = per_pass(busy[f"cli.{command}"])
    m["cli.self_s"] = per_pass(prefixed("cli.", self_s))
    m["cli.output_bytes"] = per_pass(cli_output_bytes)
    return m

