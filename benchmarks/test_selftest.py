"""Self-test of the benchmark: its gates fail on seeded defects, and a short run
emits every metric BENCHMARK.json names, with its unit.

    python -m pytest -q benchmarks/test_selftest.py

Defects are installed with monkeypatch inside this test only; ``src/`` is
never touched.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from fbflows import cli, integrate, problems  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FRESH_SEED = 20261017  # not used while the benchmark was written


def failed_frac(name, tmp_path, seed=3):
    """One cycle of a workload in this process, gated and reference-checked."""
    workload = workloads.WORKLOADS[name]
    configs = workload.build(seed)
    loop = worker.Loop(cli, workload, configs, str(tmp_path))
    for i in range(len(configs)):
        loop.request(i)
    res = loop.summary()
    _, failures, _ = run.check_references(workload, configs, res)
    return len(failures) / res["attempted"]


def test_no_defect_passes(tmp_path):
    assert failed_frac("verify-desk", tmp_path) == 0.0
    assert failed_frac("sweep-fb2", tmp_path) == 0.0


def test_flipped_b_fails(tmp_path, monkeypatch):
    def flipped(load):
        def call(*args, **kwargs):
            inst = load(*args, **kwargs)
            b = inst.b.eval
            return dataclasses.replace(
                inst, b=dataclasses.replace(inst.b, eval=lambda x: -b(x)))
        return call

    monkeypatch.setattr(problems, "get_problem", flipped(problems.get_problem))
    monkeypatch.setattr(problems, "from_descriptor", flipped(problems.from_descriptor))
    assert failed_frac("verify-desk", tmp_path) > 0.0


def test_perturbed_trajectory_fails(tmp_path, monkeypatch):
    to_csv = integrate.to_csv

    def perturbed(traj, metrics, path):
        to_csv(traj, metrics, path)
        with open(path) as fh:
            lines = fh.readlines()
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)   # x_0 of the fifth sample
        lines[5] = ",".join(cells)
        with open(path, "w") as fh:
            fh.writelines(lines)

    monkeypatch.setattr(integrate, "to_csv", perturbed)
    assert failed_frac("verify-desk", tmp_path) > 0.0


def test_flipped_feasibility_fails(tmp_path, monkeypatch):
    cmd_sweep = cli._cmd_sweep

    def flipped(cfg, inst, out_dir, quiet):
        rc = cmd_sweep(cfg, inst, out_dir, quiet)
        path = os.path.join(out_dir, "sweep.csv")
        with open(path) as fh:
            lines = fh.readlines()
        header = lines[0].rstrip("\n").split(",")
        col = header.index("feasible")
        cells = lines[1].split(",")
        cells[col] = "0" if cells[col] == "1" else "1"
        lines[1] = ",".join(cells)
        with open(path, "w") as fh:
            fh.writelines(lines)
        return rc

    monkeypatch.setattr(cli, "_cmd_sweep", flipped)
    assert failed_frac("sweep-fb2", tmp_path) > 0.0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "benchmarks", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric(name, trace):
    spec = _spec()
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    proc = _run(["--workload", name, "--seed", str(FRESH_SEED), "--seconds", "0",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "verify-desk", "--seed", "1", "--seconds", "1"],
                cwd=tmp_path, root=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
