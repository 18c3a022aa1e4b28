"""Golden bytes of seeded outputs.

Each case runs one small seeded computation, writes its output files the
way the program or its CLI does, and compares the SHA-256 digest of every
file with the digest recorded when the case was added. A change that keeps
these digests keeps the program's output bytes. A change that alters them
on purpose must say why in CHANGES.md, bump `pfa.__version__`, and record
the new digests.

Floating-point output bytes depend on the BLAS build and on the numpy and
scipy versions, so the digests are compared only on the platform they were
recorded on; elsewhere the cases skip and say why.
"""

import hashlib
import json
import platform

import numpy as np
import pytest
import scipy

from pfa.cli import main
from pfa.harness import run_convergence, run_experiment, substream, variance_study, write_output
from pfa.simulate import Scenario, generate_design, sample_correlation
from test_harness import small_config


def _platform() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


RECORDED_ON = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "blas": "scipy-openblas 0.3.31.188.0",
    "machine": "x86_64",
}

GOLDEN = {
    "cli_estimate_control": {
        "control.json": "57f6ae90e1ba940bc7b458fd1232cf7745d47493b1415e11ba2eedfa63813833",
        "estimate.json": "06b8dd1076237146b3c815b08d653d2d7a3cbfadcde4111429712af7d16c5079",
    },
    "convergence": {
        "convergence_p40_t0.05.csv": "675e1155437c5025bd4cb61adae47b2b312cea80c00197b9c81373be1ced5fed",
        "convergence_p40_t0.1.csv": "66ab67b3ea942429c699c6a4d502c1ded0d744b60eea0e869dfd83bbfa865a0b",
        "convergence_p60_t0.05.csv": "8af2e5f08fc1485fa82e3d681a6e81f2af578e0f1390181e34073917538782f2",
        "convergence_p60_t0.1.csv": "cd466f3a371b9e613fb232b855aaa36c20c6c4e4f9f7e45a2ff6fb0089771803",
        "convergence_summary.json": "70160977574c4c71c65ee6234af0a5bb4788b8c327c2e8d3bd1695498ed1e071",
    },
    "experiment": {
        "aggregates.json": "5b7122fa7cfd7eb8ae31a1456c4fcf88fd20f3af998c8a2b44d0759574e160f7",
        "records.csv": "4f4530892d6f29e511520cf66c468a7014b86dd5feed2ce51df468fd48ce31f9",
    },
    "experiment_random_no_estimators": {
        "aggregates.json": "4d317677dd013a24526266777bf84b2138bab3b33b27a464701236a7ebaadf3a",
        "records.csv": "1682a490f44fadc4807afcbd49b639de7ff188313a5364de7f9ab93bf5325bb9",
    },
    "variance_study": {
        "variance.json": "fb1fd1e58a4a5e07a3d031481992f5e93f3141075cded363e4452c76ca21b075",
    },
}


def _experiment(out_dir, **overrides):
    write_output(run_experiment(small_config(**overrides)), out_dir)


def _variance_study(out_dir):
    scenario = Scenario(kind="equal_correlation", p=120, n=40, p1=6)
    result = variance_study(scenario, t=0.01, n_reps=300, n_mc=300, seed=5)
    (out_dir / "variance.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def _convergence(out_dir):
    run_convergence(
        scenario=Scenario(kind="two_factor", p=40, n=30, p1=4),
        p_grid=(40, 60),
        t_grid=(0.05, 0.1),
        n_reps=50,
        seed=4,
        out_dir=out_dir,
    )


def _cli(out_dir):
    """`pfa estimate` and `pfa control` on CSV inputs written here."""
    p = 60
    rng = substream(31, 0)
    sigma, _ = sample_correlation(generate_design(Scenario(kind="two_factor", p=p, n=80), rng))
    z = np.linalg.cholesky(sigma.entries) @ rng.standard_normal(p)
    z[:4] += 4.0
    sigma_path, z_path = out_dir / "sigma.csv", out_dir / "z.csv"
    sigma_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in sigma.entries) + "\n")
    z_path.write_text("\n".join(repr(float(v)) for v in z) + "\n")
    inputs = ["--sigma", str(sigma_path)]
    assert main(["estimate", *inputs, "--z", str(z_path), "--t", "0.01", "--out", str(out_dir / "estimate.json")]) == 0
    assert main(["control", *inputs, "--p1", "4", "--alpha", "0.2", "--mc", "500", "--seed", "3",
                 "--out", str(out_dir / "control.json")]) == 0


CASES = {
    "experiment": lambda out_dir: _experiment(out_dir),
    "experiment_random_no_estimators": lambda out_dir: _experiment(
        out_dir, placement="random", with_estimators=False
    ),
    "variance_study": _variance_study,
    "convergence": _convergence,
    "cli_estimate_control": _cli,
}


def _digests(out_dir) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.suffix in (".csv", ".json") and path.name not in ("sigma.csv", "z.csv")
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_recorded_digests(case, tmp_path):
    here = _platform()
    if here != RECORDED_ON:
        pytest.skip(f"digests were recorded on {RECORDED_ON}, this platform is {here}")
    CASES[case](tmp_path)
    assert _digests(tmp_path) == GOLDEN[case]
