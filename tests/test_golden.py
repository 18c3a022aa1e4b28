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
        "control.json": "ccc2b5e90f0e5f98df35e7d8e9f84863426d5626e447678986142f339a7440c9",
        "estimate.json": "f3cbc51acc435ae519e6db1eda0f7e20b11df9351fc812b4b55f7e6fb5824b6e",
    },
    "convergence": {
        "convergence_p40_t0.05.csv": "a1952e95fa1c364f9bb9e192f41b300406139f14208ebdbb5aef165f048a7137",
        "convergence_p40_t0.1.csv": "e97e89f9d3a209c221b86f3440539f5bbe9164302944b95b8624c36900887023",
        "convergence_p60_t0.05.csv": "73df56687a3c75a01616c9fa0673ca4fffbb37b7c17bd0a28f4f9d4df1fa65be",
        "convergence_p60_t0.1.csv": "dbdf92a7e9be3008009c72fdc9495184db4768599665573d1834ebd6d0cc6c1f",
        "convergence_summary.json": "249cda8fabaada9372b17ec8c25bd68a65c6a094c8032c7a2b39db213c77678e",
    },
    "experiment": {
        "aggregates.json": "40a828fc4a4ab5fee4f55f26068080f4e7821a1e5d81fc72bfdbc2681948ee37",
        "records.csv": "b32affa1d3ccc6b38578ed7529d041193ac968ca0bb6c010d2fdebceb8817f90",
    },
    "experiment_no_estimators": {
        "aggregates.json": "f7e54cd031fdf73dcb0621b95ddd973170b799527fd0f4dd15c743827f1932da",
        "records.csv": "99fa1025c8d6773b8bf20a938c5c24566da393ad10ad96a881e5c500ca6958f8",
    },
    "variance_study": {
        "variance.json": "cb025d468d2d8749679d824cd5bb04be2da60d8f67819bf3eb8ebb4aff79625d",
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
