"""One digest of every artifact the benchmark workloads write: a byte-identity check.

Runs each config of each workload in ``benchmarks/workloads.py`` at the given
seeds through ``fbflows.cli.execute``, each run in a new temporary directory,
and prints the number of files written and one sha256 over, run by run, the
exit code, the stderr text and each file's name and sha256: first one line
per workload, then the total line over every workload.  Two source trees
that print the same lines wrote the same bytes and exited the same way, and
a workload whose line differs is the one that changed::

    python tests/artifact_digest.py --seeds 1 2 3 4 5 6 7 8 9 10
    python tests/artifact_digest.py --seeds 1 2 3 4 5 6 7 8 9 10 --src ../parent/src

With ``--compare OTHER_SRC`` the runs are repeated with the fbflows of
OTHER_SRC, and each run whose ``trajectory.csv`` differs between the two trees
gets a line: the workload, seed and config, the largest |t - t'| over the
grid rows, and the largest |x - x'| and |v - v'| over the grid rows, each
divided by the largest |x'| or |v'| of the other tree's table::

    python tests/artifact_digest.py --seeds 1 --compare ../parent/src

pytest does not collect this script (its name does not start with ``test_``),
and it only reads ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def digest(cli, workloads, seeds, tables=None):
    """(file count, sha256 hex) of the runs of every workload at the seeds, and
    the same pair per workload by name; ``tables``, if given, maps each run's
    (workload, seed, config) to the bytes of its trajectory.csv."""
    total, count, each = hashlib.sha256(), 0, {}
    for name, workload in workloads.WORKLOADS.items():
        part, files_before = hashlib.sha256(), count
        for seed in seeds:
            for i, config in enumerate(workload.build(seed)):
                err = io.StringIO()
                with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
                    code = cli.execute(config, workload.command, out_dir=out, quiet=True)
                    files = sorted(os.path.relpath(os.path.join(d, f), out)
                                   for d, _, fs in os.walk(out) for f in fs)
                    lines = ["%s seed %d config %d exit %d" % (name, seed, i, code),
                             "stderr %r" % err.getvalue()]
                    for rel in files:
                        with open(os.path.join(out, rel), "rb") as fh:
                            data = fh.read()
                        lines.append("%s %s" % (rel, hashlib.sha256(data).hexdigest()))
                        if tables is not None and rel == "trajectory.csv":
                            tables[name, seed, i] = data
                for h in (total, part):
                    h.update(("\n".join(lines) + "\n").encode())
                count += len(files)
        each[name] = count - files_before, part.hexdigest()
    return count, total.hexdigest(), each


def _cli(src):
    """``fbflows.cli`` imported from the source tree src, in place of any loaded copy."""
    for module in [m for m in sys.modules if m.split(".")[0] == "fbflows"]:
        del sys.modules[module]
    sys.path.insert(0, os.path.abspath(src))
    try:
        return importlib.import_module("fbflows.cli")
    finally:
        sys.path.pop(0)


def _columns(data):
    """The t, x and v columns of a trajectory.csv's bytes."""
    header = data.split(b"\n", 1)[0].decode().split(",")
    table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    pick = lambda prefix: table[:, [i for i, c in enumerate(header) if c.startswith(prefix)]]
    return table[:, 0], pick("x_"), pick("v_")


def compare(mine, other):
    """One line per run whose trajectory.csv differs between the table maps."""
    lines = []
    for key in sorted(set(mine) | set(other)):
        if mine.get(key) == other.get(key):
            continue
        label = "%s seed %d config %d" % key
        if key not in mine or key not in other:
            lines.append("%s: trajectory.csv in one tree only" % label)
            continue
        (t, x, v), (t2, x2, v2) = _columns(mine[key]), _columns(other[key])
        if t.shape != t2.shape:
            lines.append("%s: %d rows against %d" % (label, t.size, t2.size))
            continue
        rel = [np.max(np.abs(a - b)) / (np.max(np.abs(b)) or 1.0) for a, b in ((x, x2), (v, v2))]
        lines.append("%s: t %.2g, x %.2g, v %.2g (max |diff| over the grid rows; x and v "
                     "relative to max |x'|, max |v'|)" % (label, np.max(np.abs(t - t2)), *rel))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)),
                        help="workload seeds (default 1 to 10)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree whose fbflows runs (default this checkout's)")
    parser.add_argument("--compare", metavar="OTHER_SRC",
                        help="also run the fbflows of OTHER_SRC and report each run whose "
                             "trajectory.csv differs")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import workloads

    tables = None if args.compare is None else {}
    count, sha, each = digest(_cli(args.src), workloads, args.seeds, tables)
    for name, (n, part) in each.items():
        print("%d files, sha256 %s (%s)" % (n, part, name))
    print("%d files, sha256 %s (%s; seeds %s)"
          % (count, sha, ", ".join(workloads.WORKLOADS), " ".join(map(str, args.seeds))))
    if args.compare is not None:
        other = {}
        digest(_cli(args.compare), workloads, args.seeds, other)
        lines = compare(tables, other)
        print("%d of %d trajectory.csv files differ from %s"
              % (len(lines), len(tables), args.compare))
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
