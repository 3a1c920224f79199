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
            "da1ed26aecc0d7ad5ef5d4ef1c83717517a5adba9203f3aa7ef75f16d8ff6db9",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "79b3abd3eee64edbbdcbbd0e7639f4798a53da1410547067945dea77fa70ca7e",
        "trajectory.csv":
            "fc52e3c216433133a1d9e6ba62ccaa9a9c6619507b7ab70b08ee7650630a7225",
    },
    "grad1": {
        "certificate.json":
            "55ead149fd15e89d1930fd994d60e905f55f3fbcf5a7dc362e0de32b1f8952b6",
        "envelope.csv":
            "5bfef3661d12938b6a03ee3000385d54885ac24dfef2c324874a9a817f2e2f23",
        "plot_metrics.gp":
            "64c45ee615b7406b7b58d41a314b41ba6507edcb5de30ccd55ae3226c9acccb1",
        "report.json":
            "9d997ba7d75be2c99eaadcb7869b677145bfe0551b2d0cff9d63e3b5496aa58b",
        "trajectory.csv":
            "ac076fd33b355d1f39461d4460d6d755fda7c747695966918ec532552bdd37f8",
    },
    "fb2": {
        "certificate.json":
            "5b0a71d7978a26ced0eb9b020134c38972e8e03065d5ab735187341ab36bab69",
        "envelope.csv":
            "2b96a2d61c462f5338f78de16e1293f0b479a295686003650865f32f1a81f012",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "6c992e5bac62dcefdde87470c9cb971a3980375c5f188d3992f1dfb5b8ca10d6",
        "trajectory.csv":
            "b85db3bac64e61f8480429db5a28d0e5a108d02bf0a432b7d25900bde4bbc9d0",
    },
    "grad2": {
        "certificate.json":
            "dbc6d9e91eb8f014b62a6c593af26e83b9677549165b7f06144a9f82b6df51d0",
        "envelope.csv":
            "e1a6c31960e6b3840294fefef1375abc742a73820c5a4b50dab14c83dc8edb33",
        "plot_metrics.gp":
            "64c45ee615b7406b7b58d41a314b41ba6507edcb5de30ccd55ae3226c9acccb1",
        "report.json":
            "9055a5e09f1704a19edecd0bd9df6a58d459383a1aaba05b7c99de81c3a789e5",
        "trajectory.csv":
            "6af580d458f966f6342a940b03d6800bfd1f24ba2c9c9a55e57e89be9102373d",
    },
    "fb2-exp-ramp": {
        "certificate.json":
            "d31bda1a4bfcf681e8fb783bef8c7bae003de1c123ccf371048be5a68eb8fb1d",
        "envelope.csv":
            "053e4861bd22a489351145ec9e13261774912bcae06b3486e870523ce7c68a2e",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "d280998e6e8c0e6816f5c21b66a45fc2fa0fc924e2befaed8613da232d891fd6",
        "trajectory.csv":
            "40b42fa1a4c1e4d13c9470375a550006f7692e40e9f1f28520697fc68655ef84",
    },
    "sc-lasso-fb1": {
        "certificate.json":
            "11344e750d9ca162e8f62e4bd3b508c8eb2b7ff7b649c989831239c11578182a",
        "envelope.csv":
            "3f98fd77ded934290f4606724092eee8178fa0497ddbcef96fc92ebeb8a6f888",
        "plot_metrics.gp":
            "f87e7df9ab97916cbcfb6ddff1885ee234f783b0bb091f9c8f8fb691607a9ed6",
        "report.json":
            "b398d2ce4053beec51655e794e2d3ae38a8a0cd5439ed9b0100eb30e6154ce6b",
        "trajectory.csv":
            "f0da69631f2bfb9e5921f57c81df1ed1ac32222122d666451c5db3166833b533",
    },
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_verify_artifacts_golden(tmp_path, name):
    out = tmp_path / name
    assert cli.execute(CONFIGS[name], "verify", out_dir=str(out), quiet=True) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == GOLDEN[name]
