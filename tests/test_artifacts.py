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
            "30b7a9046847cde77c111441bce28709e1bd34ddaeb462103a2e97e55db5512b",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "e58a0774a4c2dca60f876cb32986fe97e5ecd8ee970a15880427a5e640b2cc9f",
        "trajectory.csv":
            "f8c267544490e385297b230c2a020fd7323d8eb1a45be1c5bd7ce484a4c2fdca",
    },
    "grad1": {
        "certificate.json":
            "55ead149fd15e89d1930fd994d60e905f55f3fbcf5a7dc362e0de32b1f8952b6",
        "envelope.csv":
            "a342ea62fab9473ee2c3e42a9670e60911dd2466c03526dc72005c141e9439b8",
        "plot_metrics.gp":
            "64c45ee615b7406b7b58d41a314b41ba6507edcb5de30ccd55ae3226c9acccb1",
        "report.json":
            "836efc84c1ca3b756ed919955ef2079be8e190f9bcb56238cabc950c37b2bbe9",
        "trajectory.csv":
            "94b843745db95384ca6932d04aa6981b3ac8f11dd3505f3b8ce7dbe95ccfd933",
    },
    "fb2": {
        "certificate.json":
            "5b0a71d7978a26ced0eb9b020134c38972e8e03065d5ab735187341ab36bab69",
        "envelope.csv":
            "38cabd6ff81809c432aad60da9d6082d68fa446d6e7b555a1bf48458a741629d",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "1672a0484ececaec5f2957233fd77a6c2667c3cd1bf4caed2b794db19cb6deb3",
        "trajectory.csv":
            "ed2f922124cd9ad3bde901aeead9e0cd2bad807707f6065d048e74bda772162f",
    },
    "grad2": {
        "certificate.json":
            "dbc6d9e91eb8f014b62a6c593af26e83b9677549165b7f06144a9f82b6df51d0",
        "envelope.csv":
            "ca14f8de8dbc3be3d7858024dc1e8b4effa63b919438e65584ac8a12d4a72c48",
        "plot_metrics.gp":
            "64c45ee615b7406b7b58d41a314b41ba6507edcb5de30ccd55ae3226c9acccb1",
        "report.json":
            "9ab1eb4acc9a7168074fe0b03952e403608178af34297fa18027579ea9135dec",
        "trajectory.csv":
            "d155c073c6bd5c8262da9b3adf8d910107b1d26253e1dd8ea0b53bd98a795a43",
    },
    "fb2-exp-ramp": {
        "certificate.json":
            "d31bda1a4bfcf681e8fb783bef8c7bae003de1c123ccf371048be5a68eb8fb1d",
        "envelope.csv":
            "98ad090f77e5b9df01aa5e4726478730ba533cd8f0bd18a056564061c9886507",
        "plot_metrics.gp":
            "4bc0028892912dbc99f066fc6c6140154e48c59c5cae15e18d2a03ee4630d2c6",
        "report.json":
            "82ac3136be5af70da72b1209889ed9ed738faa84ca4d0e73aaec4e5859c82a08",
        "trajectory.csv":
            "68ce7fc340cfeb4d53be261ddb9d468beb14aea6a9fc4da88bbb106630812343",
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
