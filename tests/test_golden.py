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
        "control.json": "b62ca6ebcc099306a12ae1b88601b11c5134355918ee222b8fbefacb0060de59",
        "estimate.json": "fa6bb748cdd7830164027169461e6e104679d715a34a9afd0e59d4ce95e7aaae",
    },
    "convergence": {
        "convergence_p40_t0.05.csv": "1380205094139d6566a87835c1f7d7db523ee92e3c27f667e7a50d9ebc9ffe92",
        "convergence_p40_t0.1.csv": "dde561b813a9da53421314793304eacb6023dedcc8c13064a8cd4ab51de44dc2",
        "convergence_p60_t0.05.csv": "36bc7ab486d050dae8adc8034891053caa1cef910776d63d78b625889c343dc1",
        "convergence_p60_t0.1.csv": "4be2653aedb93af059dd648df86092c9c52efae1e3c3df8e04fe3b8dd9371baa",
        "convergence_summary.json": "a396889100be056b1153125722486dd465a8ca0a1ceb59393cebaf78deb05298",
    },
    "experiment": {
        "aggregates.json": "7762707a13d82c9cddd9b0c464a50f63ccf1ab3a367d4c969747378b21af0bef",
        "records.csv": "fdefb4edaab58be9a0648250f10b2ddb05270178956460ab09afc5bdfe851691",
    },
    "experiment_no_estimators": {
        "aggregates.json": "fe9f192d7d3427215726933801cc440af0e4078667851286d099bb236506308b",
        "records.csv": "0974399a73072ea5bd102f68b4a329a71c87a09af60a5dbf0dbcc332a6e96b13",
    },
    "variance_study": {
        "variance.json": "e8f79f2fe09f6bb768e77f506a30e3f2009fb17edda5016a299f190da04c5eb5",
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
