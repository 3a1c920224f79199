"""Correctness gates applied to every request, outside the timed region.

A verify request passes when it exits 0, its ``report.json`` says
``"passed": true`` and its artifacts are byte-identical to those of the
first request of the same config in the run.  The trajectory of that first
request is then compared against an independent reference (reference.py).

A sweep request passes when it exits 0, its ``sweep.csv`` is byte-identical to
the first one of the same config, and every cell's ``feasible`` flag and
``gamma_lower`` agree with the closed-form constant-schedule fb2 inequalities
evaluated here.  Cells within rounding of a boundary are counted, not checked.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter
from typing import Dict, Optional, Tuple

# Same relative slack certify_fb2 grants grid checks; a cell whose closest
# inequality is within BOUNDARY_REL of equality is too close to call.
GRID_SLACK = 1e-9
BOUNDARY_REL = 1e-8
GAMMA_LOWER_REL = 1e-12


def digest_dir(path: str) -> Dict[str, str]:
    """sha256 of every file in a flat artifact directory (read in chunks)."""
    out = {}
    for name in sorted(os.listdir(path)):
        h = hashlib.sha256()
        with open(os.path.join(path, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[name] = h.hexdigest()
    return out


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def check_verify(rc: int, out_dir: str) -> Optional[str]:
    """None when the request passed its own checks, else the reason."""
    if rc != 0:
        return "exit code %d" % rc
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return "unreadable report.json: %s" % exc
    if report.get("passed") is not True:
        return "report.json has passed=%r" % report.get("passed")
    return None


def fb2_constants(rho, beta, alpha, delta):
    """S, 1/eta, K and theta/lambda of the second-order forward-backward flow."""
    big_s = 1.0 / beta + 1.0 / (4.0 * rho * beta * beta * alpha)
    inv_eta = big_s / delta - rho
    k_slope = 2.0 * rho * (1.0 - alpha) / (rho + big_s / delta)
    theta_coeff = (delta / (1.0 - delta)) * (rho + big_s / delta) / big_s
    return big_s, inv_eta, k_slope, theta_coeff


def fb2_cell(rho, beta, alpha, delta, lam, gamma) -> Tuple[bool, bool, float]:
    """(feasible, near_boundary, gamma_lower) for constant lambda and gamma."""
    _, inv_eta, k, theta_coeff = fb2_constants(rho, beta, alpha, delta)
    theta = theta_coeff * lam
    gamma_min = (1.0 + math.sqrt(max(1.0 + 4.0 * theta, 0.0))) / 2.0
    # (lhs, rhs, strict): each must read lhs < rhs, or lhs <= rhs up to slack
    ineqs = [
        (delta * beta * rho, 1.0, True),
        (0.0, inv_eta, True),
        (theta, k * lam + k * k * lam * lam, False),
        (2.0, theta, True),
        (gamma_min, gamma, False),
        (gamma, 1.0 + k * lam, False),
    ]
    feasible, near = True, False
    for lhs, rhs, strict in ineqs:
        scale = 1.0 + abs(lhs) + abs(rhs)
        if abs(lhs - rhs) <= BOUNDARY_REL * scale:
            near = True
        ok = lhs < rhs if strict else lhs <= rhs + GRID_SLACK * scale
        feasible = feasible and ok
    return feasible, near, gamma_min


def check_sweep(rc: int, out_dir: str, config: dict, rho: float, beta: float):
    """(failure or None, Counter of cells / feasible / boundary cells)."""
    counts = Counter()
    if rc != 0:
        return "exit code %d" % rc, counts
    lam = float(config["params"]["lambda"])
    gamma = float(config["params"]["gamma"])
    failure = None
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            alpha, delta = float(row["alpha"]), float(row["delta"])
            want, near, gamma_lower = fb2_cell(rho, beta, alpha, delta, lam, gamma)
            got = row["feasible"] == "1"
            counts.update(cells=1, feasible=got, boundary=near)
            if near or failure is not None:
                continue
            if got != want:
                failure = ("cell alpha=%r delta=%r: feasible=%s, closed form says %s"
                           % (alpha, delta, got, want))
            elif want and not math.isclose(float(row["gamma_lower"]), gamma_lower,
                                           rel_tol=GAMMA_LOWER_REL):
                failure = ("cell alpha=%r delta=%r: gamma_lower %s, closed form %r"
                           % (alpha, delta, row["gamma_lower"], gamma_lower))
    expected = math.prod(spec["num"] for spec in config["sweep"].values())
    if failure is None and counts["cells"] != expected:
        failure = "sweep.csv has %d cells, grid has %d" % (counts["cells"], expected)
    return failure, counts
