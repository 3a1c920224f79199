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

pytest does not collect this script (its name does not start with ``test_``),
and it only reads ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def digest(cli, workloads, seeds):
    """(file count, sha256 hex) of the runs of every workload at the seeds, and
    the same pair per workload by name."""
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
                            lines.append("%s %s" % (rel, hashlib.sha256(fh.read()).hexdigest()))
                for h in (total, part):
                    h.update(("\n".join(lines) + "\n").encode())
                count += len(files)
        each[name] = count - files_before, part.hexdigest()
    return count, total.hexdigest(), each


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)),
                        help="workload seeds (default 1 to 10)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree whose fbflows runs (default this checkout's)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "benchmarks")]
    from fbflows import cli
    import workloads

    count, sha, each = digest(cli, workloads, args.seeds)
    for name, (n, part) in each.items():
        print("%d files, sha256 %s (%s)" % (n, part, name))
    print("%d files, sha256 %s (%s; seeds %s)"
          % (count, sha, ", ".join(workloads.WORKLOADS), " ".join(map(str, args.seeds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
