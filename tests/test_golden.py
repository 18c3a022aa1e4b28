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
        "control.json": "cc9a3c8ed8e6e18d66b7c5ceb6e5265a509a80524bf0284dd84d6a1f8df39fdf",
        "estimate.json": "115658070b8a62b0810fa081c70ab7f6a3b23e4915b11d26e95f6e292b8a90cf",
    },
    "convergence": {
        "convergence_p40_t0.05.csv": "1380205094139d6566a87835c1f7d7db523ee92e3c27f667e7a50d9ebc9ffe92",
        "convergence_p40_t0.1.csv": "dde561b813a9da53421314793304eacb6023dedcc8c13064a8cd4ab51de44dc2",
        "convergence_p60_t0.05.csv": "36bc7ab486d050dae8adc8034891053caa1cef910776d63d78b625889c343dc1",
        "convergence_p60_t0.1.csv": "4be2653aedb93af059dd648df86092c9c52efae1e3c3df8e04fe3b8dd9371baa",
        "convergence_summary.json": "ddf0330a151d44ae00ac06e70b95b5087f05d735398013ec15cbd841a23998d9",
    },
    "experiment": {
        "aggregates.json": "e904fda63b9cd329d0fda4147b70f1582015cda698dbe4f51a49b9fe344d740e",
        "records.csv": "a1ffe1c1827e557155b2f931cfdcb95e3158ecf8a59299ee4d7615d48db0afd7",
    },
    "experiment_random_no_estimators": {
        "aggregates.json": "34bfcf16315a6760f160e607d330b7f70267f052055d6bd6fbb5d5d242f9dfc0",
        "records.csv": "95a0f7dcda4295d5575866c55e70658d6e9d11c2a0195d94b88a8524a5983eac",
    },
    "variance_study": {
        "variance.json": "b1d14f82c4bd62580a819dd3f7013ba575d325b93dca350c3a92f915bb7c3746",
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
