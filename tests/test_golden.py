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
        "control.json": "07c8355072fc9b5c71b5f4fb1b38fcc692a5c5e30b25cad31810a3b75056ae8d",
        "estimate.json": "81abb0d67d5bbfe74120139754ec916d77102cdf4fe4496ad678ea4cd0176a61",
    },
    "convergence": {
        "convergence_p40_t0.05.csv": "78b9a2a4e7dfb669823f1e9ed6e39887ab6d9ff27180744402952f839bf2ba30",
        "convergence_p40_t0.1.csv": "ced8f4c0ec992f5fa24236cdf76db5ca368cf22b4511a0a3473d1edacd42fc29",
        "convergence_p60_t0.05.csv": "39e93a341dedbae6feccd73065c7ac4250e1c855b0b5c0ca6b6aac472616db9b",
        "convergence_p60_t0.1.csv": "3cac56e6ecc079a4a1b5269e69f887bb2d5322be0142f8589fea3c4bd8572506",
        "convergence_summary.json": "070584313a08a9da7657e5637655d150bc8ca288aab58f77659c67bbc501242f",
    },
    "experiment": {
        "aggregates.json": "8c62e17554eb54808e5175c26b3f4984b79c17e6d3a215f8252a3a606284870f",
        "records.csv": "b2a8fa8f5e214ac6e992cc44218874fd7a0875383b261357ddb3332375e18f7b",
    },
    "experiment_no_estimators": {
        "aggregates.json": "b46361ec32c50c8560f911c32b6761c6db7dc6dbb5b499a463cfb7af5db16a59",
        "records.csv": "99fa1025c8d6773b8bf20a938c5c24566da393ad10ad96a881e5c500ca6958f8",
    },
    "variance_study": {
        "variance.json": "9fa0d2d2a5c1419d943b313ab27d7a581207ee769b82711f4ec9fa34e6f3f361",
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
    "experiment_no_estimators": lambda out_dir: _experiment(out_dir, with_estimators=False),
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
