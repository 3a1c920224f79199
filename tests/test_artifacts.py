"""Byte-identity goldens: the sha256 of every file a verify run writes.

The configs are the four README verify configs, an fb2 run with an exp_ramp
damping and a small sc_lasso fb1 run whose trajectory carries gap and
gradnorm columns.  A change to the artifact format, the float format or the
arithmetic behind any recorded number changes a digest here.
"""

import hashlib

import pytest

from fbflows import cli

IDENTITY_2D = {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}
FB2 = {
    "problem": "skew-rotation",
    "system": "fb2",
    "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0,
               "gamma": {"profile": "constant", "value": 11.0}},
    "integrator": {"t_end": 23.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
    "initial": {"x0": [3.0, -1.0], "v0": [0.0, 0.0]},
}
CONFIGS = {
    "fb1": {
        "problem": "skew-rotation",
        "system": "fb1",
        "params": {"alpha": 1.0, "eta": 1.0, "lambda": 1.0},
        "integrator": {"t_end": 20.0, "rel_tol": 1e-9, "abs_tol": 1e-12},
        "initial": {"x0": [3.0, -1.0]},
    },
    "grad1": {
        "problem": IDENTITY_2D,
        "system": "grad1",
        "params": {"alpha": 2.0, "lambda": 1.0},
        "integrator": {"t_end": 12.0, "rel_tol": 1e-11, "abs_tol": 1e-14},
        "initial": {"x0": [3.0, 0.0]},
    },
    "fb2": FB2,
    "grad2": {
        "problem": IDENTITY_2D,
        "system": "grad2",
        "params": {"alpha": 1.5, "lambda": 1.6875, "gamma": 2.4519716382329886},
        "integrator": {"t_end": 22.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
        "initial": {"x0": [2.0, 1.0], "v0": [0.0, 0.0]},
    },
    "fb2-exp-ramp": dict(FB2, params={
        "alpha": 0.5, "delta": 0.5, "lambda": 60.0,
        "gamma": {"profile": "exp_ramp", "start": 15, "end": 14, "rate": 0.5}}),
    "sc-lasso-fb1": {
        "problem": {"kind": "sc_lasso",
                    "Q": [[2.0, 0.5, 0.0, 0.0], [0.5, 3.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 4.0]],
                    "b": [-1.0, 2.0, -3.0, 0.25], "w": 0.5},
        "system": "fb1",
        "params": {"alpha": 0.05, "eta": 0.07, "lambda": 1.0},
        "integrator": {"t_end": 20.0},
        "initial": {"x0": [1.0, -2.0, 0.5, 3.0]},
    },
}

# sha256 of each file a run writes; a deliberate format change updates these
GOLDEN = {
    "fb1": {
        "certificate.json":
            "d85b76302e8ea02d666f428a8e1d9f9d5e5e5cbe345b212519cd780348eabea8",
        "envelope.csv":
            "6769aca90d8d3ee66ade5b264c667c32642c19199c6e6a24ae8379ffe7721000",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "a158022d035dbfdaa313be825249f63a13864d288cc3d43ba7a12edd17e755d6",
        "trajectory.csv":
            "d085e3c81df2defcb701a9c72cd5e8fbab487ed366688df579b33e11c74a8f6d",
    },
    "grad1": {
        "certificate.json":
            "55ead149fd15e89d1930fd994d60e905f55f3fbcf5a7dc362e0de32b1f8952b6",
        "envelope.csv":
            "05b7b3556831d22d031049a933ae09ddc157ef2e39072c03a53af8ab819024be",
        "plot_metrics.gp":
            "64c45ee615b7406b7b58d41a314b41ba6507edcb5de30ccd55ae3226c9acccb1",
        "report.json":
            "0ad7a36fd867a6e72b2ee659957306fbbb912eafe8c046b8365ccbee51c24927",
        "trajectory.csv":
            "cf0078d85dfd4dda6c77bc62b6f55489045287e68470a522316375391feb6c65",
    },
    "fb2": {
        "certificate.json":
            "5b0a71d7978a26ced0eb9b020134c38972e8e03065d5ab735187341ab36bab69",
        "envelope.csv":
            "3517a67d1f9f19497bab0ef5f5795f9f22e5b560b99e86536c2ec6a1cbac1a33",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "34093be8cc027c42efdc31f3dffc6f3e6a15183dc8116cfced232206cee9f70d",
        "trajectory.csv":
            "a9a81dada5d2dae8296ad45d5af0d726e499bacf5cc2ad9364499813539dcc96",
    },
    "grad2": {
        "certificate.json":
            "dbc6d9e91eb8f014b62a6c593af26e83b9677549165b7f06144a9f82b6df51d0",
        "envelope.csv":
            "377fa9d7d7662fdd74659fd1977c3d0a9acb1a6b7f639d6636b5d359b3519244",
        "plot_metrics.gp":
            "64c45ee615b7406b7b58d41a314b41ba6507edcb5de30ccd55ae3226c9acccb1",
        "report.json":
            "8ea049e66ba720ac4f1ad55c44d73e04fb1f5a9f5edd8ec80d0d647d91f31f48",
        "trajectory.csv":
            "2d3a024351d38e004853eb65595261c648d805bf723b6c7675ff4cd0d13dc3aa",
    },
    "fb2-exp-ramp": {
        "certificate.json":
            "d31bda1a4bfcf681e8fb783bef8c7bae003de1c123ccf371048be5a68eb8fb1d",
        "envelope.csv":
            "0230218e1bea7b76d3b6044f543a3a1c761ff4391ac9c909b9dc9b409bcd270e",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "1b7fb1f21119c6e401236388152383a0fe4b7233f34037b5697009e75810a6f2",
        "trajectory.csv":
            "c156f9e1d1493042a62ee3a0312a646d9ba5ac6198cec690990c7f5f0ce5888e",
    },
    "sc-lasso-fb1": {
        "certificate.json":
            "11344e750d9ca162e8f62e4bd3b508c8eb2b7ff7b649c989831239c11578182a",
        "envelope.csv":
            "3a27ca7d8657554b064319449f6176b9888d7771bbe244d892cd26d71d31e079",
        "plot_metrics.gp":
            "f87e7df9ab97916cbcfb6ddff1885ee234f783b0bb091f9c8f8fb691607a9ed6",
        "report.json":
            "fefd87460611c78a69bdd40d20e492428dbaf046503fefb12b2eed0dec4429ff",
        "trajectory.csv":
            "de3ae1ea89d063fe9f84bb9f575700c5825f09ce03aad66a8962d418719e5ed5",
    },
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_verify_artifacts_golden(tmp_path, name):
    out = tmp_path / name
    assert cli.execute(CONFIGS[name], "verify", out_dir=str(out), quiet=True) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == GOLDEN[name]
