"""Per-layer attribution by wrapping fbflows' public functions from outside.

``instrumented(tracer)`` patches module attributes that ``fbflows.cli`` looks
up at call time (``integrate.integrate``, ``problems.audit_instance``, ...),
wraps the oracles of every loaded instance and the field of every built flow
in copies made with ``dataclasses.replace``, and restores everything on exit.
Nothing under ``src/`` changes.

Spans (name, start, end, parent, request id) are kept in flat arrays and
written out once, at the end.  A span's self time is its duration minus the
durations of its direct children.  Schedule callables are only counted, never
timed: a 1000-cell sweep evaluates them 8 million times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
from array import array
from time import perf_counter

import numpy as np

from fbflows import analysis, certificates, cli, flows, integrate, problems

# Span names, in the order of the per-layer self-time metrics they feed.
SELF_TIME_METRICS = {
    "cli.execute": "cli.self_s",
    "problems.load": "problems.load_s",
    "problems.ground_truth": "problems.ground_truth_s",
    "problems.audit": "problems.audit_s",
    "certificates.certify": "certificates.certify_s",
    "flows.schedule_check": "flows.schedule_check_s",
    "flows.rhs": "flows.rhs_self_s",
    "integrate.integrate": "integrate.self_s",
    "integrate.metrics": "integrate.metrics_s",
    "integrate.csv": "integrate.csv_s",
    "analysis.checks": "analysis.checks_s",
    "analysis.write": "analysis.write_s",
    "operators.resolve": "operators.self_s",
    "operators.b_eval": "operators.self_s",
    "operators.gradient": "operators.self_s",
    "operators.value": "operators.self_s",
    "operators.sum_eval": "operators.self_s",
}
NAMES = list(SELF_TIME_METRICS)
OPERATOR_CALLS = ("resolve", "b_eval", "gradient", "value", "sum_eval")
COUNTERS = ["flows.schedule_eval", "certificates.feasible",
            "integrate.accepted", "integrate.rejected",
            "integrate.rhs_evaluations", "integrate.samples"]


class Tracer:
    """Span recorder plus call counters; one per traced run."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(NAMES + COUNTERS)}
        self.counts = [0] * len(self.index)
        self.recording = False        # spans on/off; counters always run
        self.count_schedules = False  # wrap schedules passed to certify_*
        self.request = -1
        self._current = -1
        self._next_id = 0
        self.ids, self.parents, self.requests = array("i"), array("i"), array("i")
        self.names = array("b")
        self.starts, self.ends = array("d"), array("d")

    def bump(self, name, n=1):
        self.counts[self.index[name]] += n

    def wrap(self, name, fn):
        """fn with a counter and, while recording, a span around each call."""
        idx = self.index[name]
        counts = self.counts
        tracer = self
        add = (self.ids.append, self.parents.append, self.requests.append,
               self.names.append, self.starts.append, self.ends.append)

        def wrapped(*args, **kwargs):
            counts[idx] += 1
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = tracer._current
            tracer._current = sid
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._current = parent
                add[0](sid)
                add[1](parent)
                add[2](tracer.request)
                add[3](idx)
                add[4](t0)
                add[5](t1)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- wrapped copies of frozen program objects -------------------------

    def _function_oracle(self, oracle):
        if oracle is None:
            return None
        return dataclasses.replace(
            oracle,
            value=self.wrap("operators.value", oracle.value),
            gradient=None if oracle.gradient is None
            else self.wrap("operators.gradient", oracle.gradient),
            prox=None if oracle.prox is None
            else self.wrap("operators.resolve", oracle.prox))

    def instance(self, inst):
        return dataclasses.replace(
            inst,
            a=dataclasses.replace(inst.a, resolve=self.wrap("operators.resolve",
                                                            inst.a.resolve)),
            b=dataclasses.replace(inst.b, eval=self.wrap("operators.b_eval", inst.b.eval)),
            sum_eval=self.wrap("operators.sum_eval", inst.sum_eval),
            f=self._function_oracle(inst.f),
            g=self._function_oracle(inst.g))

    def schedule(self, sched):
        def counted(fn):
            if fn is None:
                return None
            counts, idx = self.counts, self.index["flows.schedule_eval"]

            def call(t):
                counts[idx] += 1
                return fn(t)
            return call
        return dataclasses.replace(sched, lam=counted(sched.lam),
                                   gamma=counted(sched.gamma), alpha=counted(sched.alpha))

    # -- aggregation ------------------------------------------------------

    def span_arrays(self) -> dict:
        return {
            "id": np.frombuffer(self.ids, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "request": np.frombuffer(self.requests, dtype=np.int32),
            "name": np.frombuffer(self.names, dtype=np.int8),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def self_times(self) -> dict:
        """Total self time per span name over every recorded span."""
        s = self.span_arrays()
        n = s["id"].size
        totals = dict.fromkeys(NAMES, 0.0)
        if n == 0:
            return totals
        row = np.empty(int(s["id"].max()) + 1, dtype=np.int64)
        row[s["id"]] = np.arange(n)
        dur = s["end"] - s["start"]
        child = np.zeros(n)
        nested = s["parent"] >= 0
        np.add.at(child, row[s["parent"][nested]], dur[nested])
        by_name = np.bincount(s["name"], weights=dur - child, minlength=len(NAMES))
        for i, name in enumerate(NAMES):
            totals[name] = float(by_name[i])
        return totals

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.span_arrays())


def _after(fn, after):
    def call(*args, **kwargs):
        return after(fn(*args, **kwargs))
    return call


def _span(tracer, name, fn, after=None):
    wrapped = tracer.wrap(name, fn)
    return wrapped if after is None else _after(wrapped, after)


def _certify(tracer, fn):
    sig = inspect.signature(fn)
    takes_sched = "sched" in sig.parameters
    wrapped = tracer.wrap("certificates.certify", fn)

    def call(*args, **kwargs):
        if takes_sched and tracer.count_schedules:
            bound = sig.bind(*args, **kwargs)
            bound.arguments["sched"] = tracer.schedule(bound.arguments["sched"])
            args, kwargs = bound.args, bound.kwargs
        cert = wrapped(*args, **kwargs)   # CertificateError: infeasible, not counted
        tracer.bump("certificates.feasible")
        return cert
    return call


def _integrate_stats(tracer):
    def after(traj):
        for key in ("accepted", "rejected", "rhs_evaluations"):
            tracer.bump("integrate." + key, int(traj.meta.get(key, 0)))
        tracer.bump("integrate.samples", int(traj.t.size))
        return traj
    return after


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    def traced_flow(flow):
        return dataclasses.replace(flow, rhs=tracer.wrap("flows.rhs", flow.rhs))

    patches = [
        (cli, "execute", _span(tracer, "cli.execute", cli.execute)),
        (problems, "get_problem", _span(tracer, "problems.load", problems.get_problem,
                                        tracer.instance)),
        (problems, "from_descriptor", _span(tracer, "problems.load",
                                            problems.from_descriptor, tracer.instance)),
        (problems, "ground_truth", _span(tracer, "problems.ground_truth",
                                         problems.ground_truth)),
        (problems, "audit_instance", _span(tracer, "problems.audit",
                                           problems.audit_instance)),
        (flows.Schedule, "check", _span(tracer, "flows.schedule_check",
                                        flows.Schedule.check)),
        (integrate, "integrate", _span(tracer, "integrate.integrate", integrate.integrate,
                                       _integrate_stats(tracer))),
        (integrate, "record_metrics", _span(tracer, "integrate.metrics",
                                            integrate.record_metrics)),
        (integrate, "to_csv", _span(tracer, "integrate.csv", integrate.to_csv)),
    ]
    for name in ("certify_fb1", "certify_grad1", "certify_fb2", "certify_grad2"):
        patches.append((certificates, name, _certify(tracer, getattr(certificates, name))))
    for name in ("fb1_rhs", "fb2_rhs", "grad1_rhs", "grad2_rhs"):
        patches.append((flows, name, _after(getattr(flows, name), traced_flow)))
    for name in ("build_envelope", "verify_envelope", "verify_value_chain",
                 "verify_lyapunov"):
        patches.append((analysis, name, _span(tracer, "analysis.checks",
                                              getattr(analysis, name))))
    for name in ("write_envelope_csv", "emit_plot_script"):
        patches.append((analysis, name, _span(tracer, "analysis.write",
                                              getattr(analysis, name))))

    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)
