"""The timed process: one client, one thread, a closed loop of ``execute`` calls.

Started by run.py as a fresh interpreter.  It never imports scipy, so its peak
RSS is that of fbflows plus the loop.  With ``--setup-only`` it measures the
set-up time and exits; otherwise it runs:

1. one untimed warm-up request;
2. the timed pass: whole cycles of the workload's configs until ``--seconds``
   have passed (and at least MIN_REQUESTS requests), each request timed with
   ``perf_counter`` and gated after the timer stops;
3. with ``--trace 1``: one counting cycle (call counters, schedule counters)
   and then a traced pass recording spans.  The timed and the traced pass
   then get half of ``--seconds`` each, so a traced run takes as long as an
   untraced one.

Results go to ``--result`` as JSON; spans go next to it as ``.npz``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import gates  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# at least 10 samples beyond the 11th largest, so request_tail_s exists
MIN_REQUESTS = 11


class Loop:
    """Runs requests against one workload and gates each one."""

    def __init__(self, cli, workload, configs, out_root):
        self.cli = cli
        self.workload, self.configs, self.out_root = workload, configs, out_root
        self.first = {}        # config index -> artifact digests of its first request
        self.attempted = 0
        self.failures = []     # (request number, config index, reason)
        self.request_configs = []  # config index of every request, in order
        self.sweep_cells = Counter()   # cells / feasible / boundary, over all sweeps
        self.artifact_bytes = 0
        self.tracer = None

    def first_dir(self, i):
        return os.path.join(self.out_root, "first-%d" % i)

    def request(self, i):
        """Run config i once; returns (seconds, work units) of the timed call."""
        cfg = self.configs[i]
        out = self.first_dir(i) if i not in self.first \
            else os.path.join(self.out_root, "scratch")
        shutil.rmtree(out, ignore_errors=True)
        if self.tracer is not None:
            self.tracer.request = self.attempted
        t0 = perf_counter()
        try:
            rc = self.cli.execute(cfg, self.workload.command, out_dir=out, quiet=True)
        except Exception:  # a crash is a failed request; keep the loop running
            rc = None
            reason = "raised:\n" + traceback.format_exc()
        dt = perf_counter() - t0
        if rc is not None:
            reason = self.gate(i, rc, out)
        self.attempted += 1
        self.request_configs.append(i)
        if reason is not None:
            self.failures.append((self.attempted - 1, i, reason))
        return dt, workloads.work_per_request(self.workload, cfg)

    def gate(self, i, rc, out):
        if self.workload.command == "sweep":
            reason, cells = gates.check_sweep(rc, out, self.configs[i],
                                              workloads.SKEW_RHO, workloads.SKEW_BETA)
            self.sweep_cells.update(cells)
        else:
            reason = gates.check_verify(rc, out)
        if reason is not None:
            return reason
        self.artifact_bytes += gates.dir_bytes(out)
        digest = gates.digest_dir(out)
        if i not in self.first:
            self.first[i] = digest
        elif digest != self.first[i]:
            return "artifacts differ from the first request of this config: %s" % sorted(
                k for k in set(digest) | set(self.first[i])
                if digest.get(k) != self.first[i].get(k))
        return None

    def summary(self) -> dict:
        """Gate outcomes of every request so far, as run.py reads them."""
        return {
            "attempted": self.attempted,
            "failures": self.failures,
            "request_configs": self.request_configs,
            "first_dirs": {str(i): self.first_dir(i) for i in self.first},
            "sweep_cells": self.sweep_cells,
        }

    def cycles(self, seconds):
        """Whole cycles until `seconds` of wall time and MIN_REQUESTS requests.

        Returns per request: latency, work units, and the speed probe taken
        right after it (outside the timed region).
        """
        latencies, work, probes = [], [], []
        start = perf_counter()
        while (perf_counter() - start < seconds or len(latencies) < MIN_REQUESTS):
            for i in range(len(self.configs)):
                dt, w = self.request(i)
                latencies.append(dt)
                work.append(w)
                probes.append(speed.probe())
        return {"latencies": latencies, "work": work, "probes": probes}


def run(args):
    sys.path.insert(0, os.path.join(args.root, "src"))
    from fbflows import cli

    workload = workloads.WORKLOADS[args.workload]
    configs = workload.build(args.seed)
    setup_s = perf_counter() - T_START
    result = {"setup_s": setup_s,
              "setup_probe_s": statistics.median(speed.probe() for _ in range(5))}
    if args.setup_only:
        return result

    os.makedirs(args.out_root, exist_ok=True)
    loop = Loop(cli, workload, configs, args.out_root)
    loop.request(0)  # warm-up: lazy imports, first-call costs, first artifacts
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    result.update(loop.cycles(seconds),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        loop.tracer = tracer
        with tracing.instrumented(tracer):
            # counting cycle: deterministic per-cycle counts, no spans
            tracer.count_schedules = True
            before = list(tracer.counts)
            bytes_before = loop.artifact_bytes
            for i in range(len(configs)):
                loop.request(i)
            tracer.count_schedules = False
            counts = [b - a for a, b in zip(before, tracer.counts)]
            cycle_bytes = loop.artifact_bytes - bytes_before
            # traced pass
            tracer.recording = True
            traced = loop.cycles(seconds)
            tracer.recording = False
        result["trace"] = {
            **traced,
            "cycle_requests": len(configs),
            "cycle_counts": dict(zip(list(tracer.index), counts)),
            "cycle_artifact_bytes": cycle_bytes,
            "self_times": tracer.self_times(),
        }
        tracer.save(os.path.join(args.out_root, "spans.npz"))

    result.update(loop.summary())
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout root (holds src/fbflows)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out-root", help="directory for request artifacts")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
