"""fbflows benchmark: drive ``fbflows.cli.execute`` the way a user does and time it.

    python3 benchmarks/run.py --workload verify-desk --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/fbflows``.  The run:

* times the set-up (a fresh interpreter importing ``fbflows.cli`` and building
  the workload's configs) SETUP_PROBES times in fresh processes;
* starts worker.py, the timed process: a single client in a closed loop, one
  thread, BLAS pinned to one thread, every request gated after its timer;
* checks the first trajectory of every verify config against a scipy DOP853
  reference (reference.py), in this process, after the worker has exited;
* prints a summary, a detail record with the environment stamp, and as its
  last line the result: ``--trace 0`` reports the end-to-end metrics,
  ``--trace 1`` the per-layer metrics of a second, traced pass.

Exits 2 without a result when the checkout has no ``src/fbflows``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from importlib import metadata

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


def _tail(latencies):
    """(value, percentile): the 11th largest latency, with exactly 10 beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    """sha256 over src/fbflows/*.py, identifying the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fbflows")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(load_start, probe_start):
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_env": BLAS_ENV,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "speed_probe_s_start": probe_start,
        "speed_probe_s_end": statistics.median(speed.probe() for _ in range(5)),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _worker(args, env, result, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result, *extra]
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result) as fh:
        return json.load(fh)


def measure(args):
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "worker.json")

    # set-up: one untimed probe fills bytecode and file caches, then the median
    _worker(args, env, result_path, ["--setup-only"])
    setup = []
    for _ in range(SETUP_PROBES):
        probe = _worker(args, env, result_path, ["--setup-only"])
        setup.append((probe["setup_s"], probe["setup_probe_s"]))
    res = _worker(args, env, result_path, ["--out-root", os.path.join(work, "requests")])
    res["setup_samples"] = setup
    return res


def check_references(workload, configs, res):
    """x_err per verify config; every request of a config over tolerance fails."""
    import reference
    x_err = {}
    failures = list(res["failures"])
    if workload.command == "verify":
        for key, path in res["first_dirs"].items():
            x_err[int(key)] = reference.x_error(configs[int(key)],
                                                os.path.join(path, "trajectory.csv"))
        failed = {f[0] for f in failures}
        for r, i in enumerate(res["request_configs"]):
            if i in x_err and not x_err[i] <= reference.X_ERR_TOL and r not in failed:
                failures.append([r, i, "x_err %.3g above %.3g"
                                 % (x_err[i], reference.X_ERR_TOL)])
    return x_err, failures, reference.X_ERR_TOL


END_TO_END_UNITS = {"setup_s": "s", "request_p50_s": "s", "request_tail_s": "s",
                    "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def _request_metrics(latencies, work):
    tail, _ = _tail(latencies)
    return {
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail,
        "throughput_per_s": sum(work) / sum(latencies),
    }


def end_to_end(res):
    """The end-to-end metrics, from request and set-up times scaled by speed.py."""
    setup = [t * speed.REFERENCE_S / p for t, p in res["setup_samples"]]
    return {
        "setup_s": statistics.median(setup),
        **_request_metrics(speed.scaled(res["latencies"], res["probes"]), res["work"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def raw_end_to_end(res):
    """The same metrics from unscaled perf_counter times."""
    return {
        "setup_s": statistics.median(t for t, _ in res["setup_samples"]),
        **_request_metrics(res["latencies"], res["work"]),
    }


def per_layer_units():
    import tracing
    units = {metric: "s" for metric in tracing.SELF_TIME_METRICS.values()}
    for name in ("integrate.accepted", "integrate.rejected", "integrate.rhs_evaluations",
                 "integrate.samples", "flows.rhs_calls", "flows.schedule_evals",
                 "certificates.certify_calls"):
        units[name] = "count"
    for kind in tracing.OPERATOR_CALLS:
        units["operators.calls." + kind] = "count"
    units.update({
        "integrate.accept_ratio": "ratio", "integrate.x_err_max": "ratio",
        "certificates.feasible_frac": "ratio", "cli.artifact_bytes": "bytes",
        "trace.request_s": "s", "trace.unattributed_s": "s",
        "trace.overhead_frac": "ratio"})
    return units


def per_layer(res, x_err):
    """Per-layer metrics: self times per traced request, counts per request of a cycle."""
    import tracing
    tr = res["trace"]
    k = tr["cycle_requests"]
    c = tr["cycle_counts"]
    lat = tr["latencies"]
    n = len(lat)
    m = dict.fromkeys(tracing.SELF_TIME_METRICS.values(), 0.0)
    for span, metric in tracing.SELF_TIME_METRICS.items():
        m[metric] += tr["self_times"][span] / n
    attempts = c["certificates.certify"]
    steps = c["integrate.accepted"] + c["integrate.rejected"]
    m.update({
        "integrate.accepted": c["integrate.accepted"] / k,
        "integrate.rejected": c["integrate.rejected"] / k,
        "integrate.accept_ratio": c["integrate.accepted"] / steps if steps else 0.0,
        "integrate.rhs_evaluations": c["integrate.rhs_evaluations"] / k,
        "integrate.samples": c["integrate.samples"] / k,
        "integrate.x_err_max": max(x_err.values()) if x_err else 0.0,
        "flows.rhs_calls": c["flows.rhs"] / k,
        "flows.schedule_evals": c["flows.schedule_eval"] / k,
        "certificates.certify_calls": attempts / k,
        "certificates.feasible_frac":
            c["certificates.feasible"] / attempts if attempts else 0.0,
        "cli.artifact_bytes": tr["cycle_artifact_bytes"] / k,
        "trace.request_s": sum(lat) / n,
    })
    for kind in tracing.OPERATOR_CALLS:
        m["operators.calls." + kind] = c["operators." + kind] / k
    m["trace.unattributed_s"] = m["trace.request_s"] - sum(tr["self_times"].values()) / n
    untraced = _request_metrics(speed.scaled(res["latencies"], res["probes"]), res["work"])
    traced = _request_metrics(speed.scaled(lat, tr["probes"]), tr["work"])
    m["trace.overhead_frac"] = untraced["throughput_per_s"] / traced["throughput_per_s"] - 1.0
    return m


def layer_shares(layer_metrics):
    """Share of the traced request time spent in each module's own code."""
    total = layer_metrics["trace.request_s"]
    shares = {}
    for name, value in layer_metrics.items():
        if name.endswith("_s") and name != "trace.request_s":
            layer = name.split(".")[0] if name != "trace.unattributed_s" else "unattributed"
            shares[layer] = shares.get(layer, 0.0) + value / total
    return shares


def _summary(workload, args, e2e, raw, extra, layers):
    lines = ["%s seed %d: %d timed requests, %d/%d requests failed"
             % (workload.name, args.seed, extra["request_n"], extra["failed"],
                extra["attempted"])]
    notes = {
        "setup_s": "median of %d fresh interpreters" % SETUP_PROBES,
        "request_tail_s": "p%.1f, n=%d" % (extra["request_tail_percentile"],
                                           extra["request_n"]),
        "throughput_per_s": extra["throughput_unit"],
    }
    for name, value in e2e.items():
        unscaled = "unscaled %.6g" % raw[name] if name in raw else ""
        lines.append("  %-18s %12.6g %-3s %-22s %s" % (
            name, value, END_TO_END_UNITS[name], unscaled, notes.get(name, "")))
    lines.append("  %-18s %12.6g" % ("failed_frac", extra["failed_frac"]))
    if extra["x_err_max"] is not None:
        lines.append("  %-18s %12.3g     tolerance %g" % ("x_err_max", extra["x_err_max"],
                                                          extra["x_err_tol"]))
    if layers is not None:
        units = per_layer_units()
        for name, value in layers.items():
            lines.append("  %-34s %12.6g %s" % (name, value, units[name]))
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description="fbflows benchmark; see the module docstring")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fbflows", "cli.py")):
        print("benchmark: no src/fbflows under %s; run it from a checkout" % ROOT,
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)   # before numpy loads here, for the reference
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error("unknown workload %r; known: %s" % (args.workload,
                                                    ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    load_start = os.getloadavg()
    probe_start = statistics.median(speed.probe() for _ in range(5))

    res = measure(args)
    configs = workload.build(args.seed)
    x_err, failures, x_err_tol = check_references(workload, configs, res)
    e2e = end_to_end(res)
    layers = per_layer(res, x_err) if args.trace else None
    extra = {
        "request_n": len(res["latencies"]),
        "request_tail_percentile": _tail(res["latencies"])[1],
        "throughput_unit": "%s/s" % workload.work_unit,
        "attempted": res["attempted"],
        "failed": len(failures),
        "failed_frac": len(failures) / res["attempted"],
        "x_err_max": max(x_err.values()) if x_err else None,
        "x_err_tol": x_err_tol,
    }
    detail = {
        "workload": {"name": workload.name, "why": workload.why, "recipe": workload.recipe,
                     "seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "environment": environment(load_start, probe_start),
        "end_to_end": e2e,
        "end_to_end_unscaled": raw_end_to_end(res),
        "extra": extra,
        "setup_samples_s": res["setup_samples"],
        "probe_s": {"reference": speed.REFERENCE_S,
                    "median": statistics.median(res["probes"]),
                    "min": min(res["probes"]), "max": max(res["probes"])},
        "x_err": {str(i): e for i, e in sorted(x_err.items())},
        "sweep_cells": res["sweep_cells"],
        "failures": failures[:20],
        "per_layer": layers,
        "layer_shares": layer_shares(layers) if layers else None,
    }
    with open(os.path.join(OUT, workload.name, "detail.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    if args.trace:
        units, chosen = per_layer_units(), layers
    else:
        units, chosen = END_TO_END_UNITS, e2e
    print(_summary(workload, args, e2e, detail["end_to_end_unscaled"], extra, layers))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
