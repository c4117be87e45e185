"""Command-line interface: round trips, exit codes, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse

from multimix import spectral
from multimix.cli import main
from multimix.hs import load_field_net
from multimix.ising import (
    curie_weiss,
    dump_ising_model,
    dump_samples,
    empirical_distribution,
    load_ising_model,
    load_samples,
    low_rank_ising,
)
from multimix.langevin import (
    GaussianComponent,
    MixtureModel,
    dump_mixture,
)
from multimix.ple import certify_terminal_tv, row_norms


def test_module_runs_from_the_source_tree():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "multimix", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "experiment" in out.stdout


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import multimix, sys; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.fixture
def cw5(tmp_path):
    path = tmp_path / "cw5.txt"
    path.write_text(dump_ising_model(curie_weiss(5, 1.5)))
    return path


@pytest.fixture
def bimodal(tmp_path):
    eye = np.eye(1)
    model = MixtureModel(
        weights=np.array([0.5, 0.5]),
        components=(
            GaussianComponent(np.array([-5.0]), eye),
            GaussianComponent(np.array([5.0]), eye),
        ),
    )
    path = tmp_path / "mix.txt"
    path.write_text(dump_mixture(model))
    return path


# --- spectrum ---------------------------------------------------------------


def test_spectrum_prints_unit_rate_eigenvalues(cw5, capsys):
    assert main(["spectrum", "--model", str(cw5), "--k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    vals = [float(v) for v in lines]
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(0.1394982297003394, abs=1e-12)
    assert vals[2] == pytest.approx(0.8169584944545751, abs=1e-12)


@pytest.mark.parametrize("k", [-1, 33])
def test_spectrum_rejects_k_out_of_range(cw5, capsys, k):
    assert main(["spectrum", "--model", str(cw5), "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k must lie in 0..32" in captured.err


def test_spectrum_writes_out_file(cw5, tmp_path):
    out = tmp_path / "spec.txt"
    assert main(["spectrum", "--model", str(cw5), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 32


def test_spectrum_rejects_mixture_models(bimodal, capsys):
    assert main(["spectrum", "--model", str(bimodal)]) == 2
    assert "spin model" in capsys.readouterr().err


def test_spectrum_missing_file_exits_2(tmp_path, capsys):
    assert main(["spectrum", "--model", str(tmp_path / "ghost.txt")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_spectrum_capacity_exits_3(tmp_path, capsys):
    # 2^16 states: the bottom eigenvalues come by sector, while the full
    # spectrum would need a 2^16 x 2^16 array and is refused before any solve
    big = tmp_path / "big.txt"
    big.write_text(dump_ising_model(curie_weiss(16, 1.0)))
    with (
        mock.patch.object(spectral, "_sector_eigh") as sector,
        mock.patch.object(scipy.sparse.csr_array, "toarray") as toarray,
    ):
        assert main(["spectrum", "--model", str(big)]) == 3
    assert not sector.called and not toarray.called
    assert "65536 x 65536 entries exceed" in capsys.readouterr().err
    out = tmp_path / "bottom.txt"
    assert main(["spectrum", "--model", str(big), "--k", "3", "--out", str(out)]) == 0
    lam = [float(v) for v in out.read_text().split()]
    assert len(lam) == 3 and lam[0] == 0.0 and 0.0 < lam[1] < lam[2]


def test_garbage_model_file_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("flurbish v9\n1 2 3\n")
    assert main(["spectrum", "--model", str(bad)]) == 2


# --- sample -----------------------------------------------------------------


def test_sample_spin_round_trip_and_determinism(cw5, tmp_path):
    a, b, c = (tmp_path / x for x in ("a.txt", "b.txt", "c.txt"))
    base = ["sample", "--model", str(cw5), "--count", "40"]
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "1", "--out", str(b)]) == 0
    assert main(base + ["--seed", "2", "--out", str(c)]) == 0
    X = load_samples(a.read_text())
    assert X.shape == (40, 5)
    assert set(np.unique(X)) <= {-1.0, 1.0}
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_sample_mixture_writes_coordinates(bimodal, tmp_path):
    out = tmp_path / "pts.txt"
    assert main(
        ["sample", "--model", str(bimodal), "--count", "200", "--seed", "0",
         "--out", str(out)]
    ) == 0
    pts = np.array([[float(v) for v in line.split()] for line in out.read_text().splitlines()])
    assert pts.shape == (200, 1)
    # both modes show up in 200 draws
    assert (pts < 0).any() and (pts > 0).any()


@pytest.mark.parametrize(
    "text",
    [
        "mixture v1 -1 1\ngaussian 1.0\n0.0\n1.0\n",
        "mixture v1 1 2\ngaussian 0.5\n-5.0\n1.0\ngaussian 0.5\nnan\n1.0\n",
    ],
    ids=["negative-dimension", "nan-mean"],
)
def test_sample_rejects_malformed_mixture(tmp_path, capsys, text):
    path = tmp_path / "mix.txt"
    path.write_text(text)
    assert main(["sample", "--model", str(path), "--count", "5"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_sample_rejects_bad_count(cw5, capsys):
    assert main(["sample", "--model", str(cw5), "--count", "0"]) == 2


# --- learn / ple fit ---------------------------------------------------------


def fit_fixture(tmp_path):
    truth = low_rank_ising(6, 1, [1.2], 0.2, seed=3)
    tpath = tmp_path / "truth.txt"
    tpath.write_text(dump_ising_model(truth))
    spath = tmp_path / "X.txt"
    assert main(
        ["sample", "--model", str(tpath), "--count", "20000", "--seed", "1",
         "--out", str(spath)]
    ) == 0
    return tpath, spath


def test_fit_writes_model_and_json_summary(tmp_path, capsys):
    _, spath = fit_fixture(tmp_path)
    out = tmp_path / "fitted.txt"
    assert main(
        ["ple", "fit", "--samples", str(spath), "--radius", "2.0", "--out", str(out)]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    assert summary["objective"] > 0.0
    assert summary["backtracks"] == 0
    assert summary["model"] == str(out)
    fitted = load_ising_model(out.read_text())
    assert row_norms(fitted).max() <= 2.0 + 1e-8
    assert summary["max_row_norm"] == pytest.approx(
        float(row_norms(fitted).max()), abs=1e-9
    )


def test_learn_is_an_alias_for_ple_fit(tmp_path, capsys):
    _, spath = fit_fixture(tmp_path)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(
        ["learn", "--samples", str(spath), "--radius", "2.0", "--out", str(a)]
    ) == 0
    assert main(
        ["ple", "fit", "--samples", str(spath), "--radius", "2.0", "--out", str(b)]
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_has_no_seed_option(tmp_path):
    # the fit is deterministic, so it takes no seed
    with pytest.raises(SystemExit) as exc:
        main(
            ["ple", "fit", "--samples", str(tmp_path / "X.txt"), "--radius", "2.0",
             "--out", str(tmp_path / "f.txt"), "--seed", "3"]
        )
    assert exc.value.code == 2


def test_fit_rejects_nonpositive_radius(tmp_path, capsys):
    _, spath = fit_fixture(tmp_path)
    rc = main(
        ["ple", "fit", "--samples", str(spath), "--radius", "-1.0",
         "--out", str(tmp_path / "f.txt")]
    )
    assert rc == 2
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--radius", "--step", "--tolerance"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_fit_rejects_non_finite_settings_by_name(tmp_path, capsys, option, value):
    spath = tmp_path / "X.txt"
    spath.write_text("1 -1 1\n-1 1 1\n")
    # a repeated --radius takes the last value
    rc = main(
        ["learn", "--samples", str(spath), "--radius", "2.0",
         "--out", str(tmp_path / "f.txt"), option, value]
    )
    assert rc == 2
    assert option[2:] in capsys.readouterr().err
    assert not (tmp_path / "f.txt").exists()


# --- ple certify --------------------------------------------------------------


def test_certify_truth_against_itself(tmp_path, capsys):
    tpath, spath = fit_fixture(tmp_path)
    assert main(
        ["ple", "certify", "--truth", str(tpath), "--fitted", str(tpath),
         "--samples", str(spath), "--horizon", "20"]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epsilon_hat"] == 0.0
    assert summary["horizon"] == 20.0
    # empirical initialization washes out over a long horizon
    assert summary["terminal_tv"] == pytest.approx(9.546213749345839e-05, abs=1e-12)


def test_certify_fitted_model_stays_close(tmp_path, capsys):
    tpath, spath = fit_fixture(tmp_path)
    fpath = tmp_path / "fitted.txt"
    assert main(
        ["ple", "fit", "--samples", str(spath), "--radius", "2.0", "--out", str(fpath)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["ple", "certify", "--truth", str(tpath), "--fitted", str(fpath),
         "--samples", str(spath), "--horizon", "20"]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert 0.0 < summary["epsilon_hat"] < 0.01
    assert summary["terminal_tv"] < 0.05


def test_certify_json_matches_library(tmp_path, capsys):
    tpath, spath = fit_fixture(tmp_path)
    fpath = tmp_path / "fitted.txt"
    assert main(
        ["ple", "fit", "--samples", str(spath), "--radius", "2.0", "--out", str(fpath)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["ple", "certify", "--truth", str(tpath), "--fitted", str(fpath),
         "--samples", str(spath), "--horizon", "20"]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    truth = load_ising_model(tpath.read_text())
    fitted = load_ising_model(fpath.read_text())
    mu0 = empirical_distribution(load_samples(spath.read_text()), truth.n)
    # the JSON float round-trips, so the CLI must match the library bit for bit
    assert summary["terminal_tv"] == certify_terminal_tv(fitted, truth, mu0, 20.0)


def test_certify_capacity_exits_3(tmp_path, capsys):
    # certification has no spin cap of its own; 2^21 states exceed enumeration
    tpath = tmp_path / "big.txt"
    tpath.write_text(dump_ising_model(curie_weiss(21, 1.0)))
    spath = tmp_path / "X.txt"
    spath.write_text(dump_samples(np.where(np.arange(50 * 21).reshape(50, 21) % 3, 1, -1)))
    rc = main(
        ["ple", "certify", "--truth", str(tpath), "--fitted", str(tpath),
         "--samples", str(spath)]
    )
    assert rc == 3
    assert "2097152 states exceed" in capsys.readouterr().err


# --- decompose ----------------------------------------------------------------


def test_decompose_reports_certificate_and_exports_net(cw5, tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    assert main(["decompose", "--model", str(cw5), "--out", str(net_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rank"] == 1
    assert summary["threshold"] == 0.5
    # the four dropped directions of beta/n (11' - I) at beta = 1.5 carry -0.3 each
    assert summary["negative_trace"] == 1.1999999999999993
    assert summary["fields"] == 45
    assert summary["passed"] is True
    assert summary["min_ratio"] == pytest.approx(0.9934207207773794, abs=1e-12)
    assert summary["max_ratio"] == pytest.approx(1.0098459853187105, abs=1e-12)
    net = load_field_net(net_path.read_text())
    assert net.count == 45
    assert net.fields.shape == (45, 5)


def test_decompose_rejects_bad_split_constant(cw5, capsys):
    assert main(["decompose", "--model", str(cw5), "--c", "0.5"]) == 2


def test_decompose_rejects_nan_split_constant(cw5, capsys):
    # a NaN c would keep no direction, pass vacuously and print a NaN
    # threshold, which is not JSON
    assert main(["decompose", "--model", str(cw5), "--c", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# --- experiment run -----------------------------------------------------------


def test_experiment_run_forwards_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "out": "r.csv",
                "experiments": [
                    {"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7]}}
                ],
            }
        )
    )
    out = tmp_path / "rows.csv"
    assert main(["experiment", "run", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("experiment,parameters,metric")


def test_experiment_run_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    assert main(["experiment", "run", str(cfg)]) == 2


# --- usage --------------------------------------------------------------------


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
