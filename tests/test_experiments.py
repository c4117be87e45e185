"""Experiment runner: config handling, exit codes, determinism, catalog."""

import ast
import inspect
import json
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtr

from multimix.cli import main
from multimix.errors import CapacityError, ParseError
from multimix.experiments import (
    CATALOG,
    CSV_HEADER,
    PARAMETERS,
    ExperimentConfig,
    ResultRow,
    _bimodal_fixture,
    _data_started_tv,
    _parse_config,
    _projection_tv,
    run,
)
from multimix.ising import curie_weiss, dump_ising_model, exact_distribution
from multimix.langevin import LmcConfig, ScoreField, lmc_run, sample_mixture
from multimix.spectral import build_glauber_generator


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(config_path, *options):
    """`multimix experiment run`: the one place that maps errors to exit codes."""
    return main(["experiment", "run", str(config_path), *options])


def write_config(tmp_path, experiments, out="r.csv", name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"out": out, "experiments": experiments}))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    rows = []
    for line in lines[1:]:
        exp, params, metric, value, stderr, rt = line.split(",")
        rows.append((exp, params, metric, float(value), float(stderr), float(rt)))
    return rows


def metric(rows, name, params=None):
    vals = [
        r[3]
        for r in rows
        if r[2] == name and (params is None or r[1] == params)
    ]
    assert vals, f"no rows for metric {name}"
    return vals


# --- schema ---------------------------------------------------------------


def test_result_row_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ResultRow("x", "n=1", "m", float("nan"))


def test_config_rejects_unknown_experiment():
    with pytest.raises(ParseError, match="unknown experiment"):
        ExperimentConfig(name="unheard-of", seeds=(0,), params={})


def test_config_rejects_empty_seeds():
    with pytest.raises(ParseError, match="no seeds"):
        ExperimentConfig(name="cw-gap-scaling", seeds=(), params={})


def test_config_rejects_unknown_parameter():
    with pytest.raises(ParseError, match="'betta'"):
        ExperimentConfig(
            name="cw-gap-scaling", seeds=(0,), params={"n": [5, 7], "betta": 3.0}
        )


def test_config_converts_values_to_the_declared_types():
    # an integral number such as 1e1 stands for an int; an int for a float
    cfg = ExperimentConfig(
        name="learn-ising-e2e", seeds=(0,), params={"n": 1e1, "horizon": 25}
    )
    assert cfg.params == {**PARAMETERS["learn-ising-e2e"], "n": 10, "horizon": 25.0}
    assert type(cfg.params["n"]) is int and type(cfg.params["horizon"]) is float
    cfg = ExperimentConfig(name="score-robustness", seeds=(0,), params={"eps_sc": [0, 1]})
    assert cfg.params["eps_sc"] == (0.0, 1.0)
    assert all(type(v) is float for v in cfg.params["eps_sc"])


def _reads(node, name) -> bool:
    """Whether `name` is loaded anywhere under `node`, leaving out nested
    functions that take a parameter of that name."""
    if isinstance(node, ast.FunctionDef) and name in {
        a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)
    }:
        return False
    if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
        return True
    return any(_reads(child, name) for child in ast.iter_child_nodes(node))


def unread_keywords(fn) -> list[str]:
    """The keyword-only parameters of `fn` that its body never reads."""
    [tree] = ast.parse(textwrap.dedent(inspect.getsource(fn))).body
    return [
        a.arg for a in tree.args.kwonlyargs if not any(_reads(stmt, a.arg) for stmt in tree.body)
    ]


def test_declared_parameters_match_what_each_experiment_reads():
    # a parameter is declared once, as a keyword-only default, and then read
    def shadowed(seeds, runner, *, n=3, beta=1.0, c=2.0):
        def point(c):
            return c
        return [point(n) for _ in seeds], True

    assert unread_keywords(shadowed) == ["beta", "c"]
    for name, fn in CATALOG.items():
        parameters = list(inspect.signature(fn).parameters.values())
        assert [p.name for p in parameters[:2]] == ["seeds", "runner"], name
        assert all(p.kind is p.KEYWORD_ONLY for p in parameters[2:]), name
        assert PARAMETERS[name] == {p.name: p.default for p in parameters[2:]}, name
        assert unread_keywords(fn) == [], name


# --- exit codes -----------------------------------------------------------


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli(tmp_path / "nope.json") == 2
    assert "nope.json" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run_cli(p) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON")


def test_run_raises_instead_of_choosing_an_exit_code(tmp_path, monkeypatch):
    # `run` returns only 0 or 1; every other outcome is an exception, raised
    # before any file is written
    big = write_config(
        tmp_path,
        [{"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [21, 22]}}],
        name="big.json",
    )
    with pytest.raises(CapacityError):
        run(big)
    with pytest.raises(FileNotFoundError):
        run(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        run(bad)
    calls = []
    monkeypatch.setitem(CATALOG, "cw-gap-scaling", lambda *a, **k: calls.append(a))
    p = write_config(tmp_path, [{"name": "cw-gap-scaling", "seeds": [0]}])
    with pytest.raises(ValueError, match="at least one worker thread, got 0"):
        run(p, threads=0)
    with pytest.raises(ParseError, match="overwrite the config"):
        run(p, out_override=str(tmp_path / "cfg.csv"))
    assert calls == []
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.json", "big.json", "cfg.json"]


MALFORMED = [
    "[1, 2]",
    '{"experiments": 3}',
    '{"experiments": [{"seeds": [0]}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": "0"}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [0], "params": 7}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [0], "require": 5}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": []}]}',
    '{"experiments": [{"name": "no-such-thing", "seeds": [0]}]}',
    '{"experiments": [], "out": 9}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [true]}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [0], "require": [{"max": 0.1}]}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [0],'
    ' "require": [{"metric": "lambda2_ratio", "mx": 0.1}]}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [0],'
    ' "require": [{"metric": "lambda2_ratio", "max": "abc"}]}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [0],'
    ' "require": [{"metric": "lambda2_ratio", "min": true}]}]}',
    '{"experiments": [{"name": "cw-gap-scaling", "seeds": [0],'
    ' "require": [{"metric": "lambda2_ratio", "max": NaN}]}]}',
]

# a misspelt key, at the top level or in an entry, is refused by name rather
# than dropped, which would run on the defaults and exit 0
MISSPELT_KEYS = [
    pytest.param(json.dumps(payload), (key,), id=f"misspelt-{key}")
    for payload, key in [
        ({"experiments": [], "output": "x.csv"}, "output"),
        ({"experiments": [{"name": "cw-gap-scaling", "seeds": [0], "param": {}}]}, "param"),
        ({"experiments": [{"name": "cw-gap-scaling", "seeds": [0], "requires": []}]}, "requires"),
    ]
]


def _wrong_kinds(default):
    """Values of the wrong JSON kind for a parameter with this default."""
    kinds = [True, float("nan")]
    if default is not None:
        kinds += ["abc", None]
    if isinstance(default, tuple):
        kinds += [default[0], [], [True]]
        if type(default[0]) is int:
            kinds.append([default[0], 2.5])
    else:
        kinds.append([default])
    if type(default) is int:
        kinds.append(2.5)
    return kinds


def _with_params(name, params):
    return json.dumps({"experiments": [{"name": name, "seeds": [0], "params": params}]})


WRONG_TYPED = [
    pytest.param(_with_params(name, {key: value}), (name, key), id=f"{name}-{key}-{value!r}")
    for name, declared in PARAMETERS.items()
    for key, default in declared.items()
    for value in _wrong_kinds(default)
]

# unchecked, each of these would crash with a traceback, run on a silently
# changed value, or fail only after the experiments before it had run
TYPED_DEFECTS = [
    pytest.param(_with_params("hs-sandwich", {"n": 7}), ("hs-sandwich", "n"), id="hs-scalar-n"),
    pytest.param(
        _with_params("cw-gap-scaling", {"n": 9}), ("cw-gap-scaling", "n"), id="cw-scalar-n"
    ),
    pytest.param(
        _with_params("balance-concentration", {"model": 5}),
        ("balance-concentration", "model"),
        id="numeric-model-path",
    ),
    pytest.param(
        _with_params("learn-ising-e2e", {"n": 8.9}), ("learn-ising-e2e", "n"), id="truncated-n"
    ),
    pytest.param(
        _with_params("cw-gap-scaling", {"n": [5, True]}), ("cw-gap-scaling", "n"), id="bool-in-n"
    ),
    pytest.param(
        _with_params("balance-concentration", {"slope_window": [-0.6, -0.4, 0.0]}),
        ("balance-concentration", "slope_window"),
        id="three-value-window",
    ),
    pytest.param(
        json.dumps(
            {
                "experiments": [
                    {"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7]}},
                    {"name": "hs-sandwich", "seeds": [0], "params": {"beta": "abc"}},
                ]
            }
        ),
        ("hs-sandwich", "beta"),
        id="string-beta-after-a-good-experiment",
    ),
    pytest.param(
        _with_params("cw-gap-scaling", {"beta": float("nan")}),
        ("cw-gap-scaling", "beta"),
        id="nan-beta",
    ),
]


@pytest.mark.parametrize(
    ("payload", "named"),
    [pytest.param(payload, (), id=payload) for payload in MALFORMED]
    + MISSPELT_KEYS
    + TYPED_DEFECTS
    + WRONG_TYPED,
)
def test_malformed_configs_exit_2(tmp_path, payload, named, monkeypatch, capsys):
    # every one of these is refused while parsing, before any experiment runs
    for name in CATALOG:
        monkeypatch.setitem(CATALOG, name, lambda *a, **k: pytest.fail("ran"))
    p = tmp_path / "bad.json"
    p.write_text(payload)
    assert run_cli(p) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(repr(word) in err for word in named)
    assert [f.name for f in tmp_path.iterdir()] == ["bad.json"]
    with pytest.raises(ParseError):
        _parse_config(payload)


def test_misspelt_parameter_exits_2_before_any_experiment_runs(tmp_path, monkeypatch, capsys):
    # a typo such as "betta" used to be dropped silently, running on the
    # default beta and exiting 0
    calls = []
    monkeypatch.setitem(CATALOG, "cw-gap-scaling", lambda *a, **k: calls.append(a))
    p = write_config(
        tmp_path,
        [
            {"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7]}},
            {"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7], "betta": 3.0}},
        ],
    )
    assert run_cli(p) == 2
    assert calls == []
    assert "'betta'" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]
    with pytest.raises(ParseError, match="'betta'"):
        _parse_config(p.read_text())


def test_empty_experiment_list_exits_0_with_header_only_csv(tmp_path):
    p = write_config(tmp_path, [])
    assert run(p) == 0
    out = tmp_path / "r.csv"
    assert out.read_text() == ",".join(CSV_HEADER) + "\n"
    digest = json.loads((tmp_path / "r.json").read_text())
    assert digest == {"passed": True, "experiments": []}


def test_capacity_exits_3_and_writes_nothing(tmp_path, capsys):
    p = write_config(
        tmp_path, [{"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [21, 22]}}]
    )
    assert run_cli(p) == 3
    assert not (tmp_path / "r.csv").exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_fewer_than_one_thread_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(CATALOG, "cw-gap-scaling", lambda *a, **k: calls.append(a))
    p = write_config(tmp_path, [{"name": "cw-gap-scaling", "seeds": [0]}])
    for threads in (0, -1):
        assert run_cli(p, "--threads", str(threads)) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


def test_failed_requirement_exits_1_but_writes_results(tmp_path):
    p = write_config(
        tmp_path,
        [
            {
                "name": "cw-gap-scaling",
                "seeds": [0],
                "params": {"n": [5, 7]},
                "require": [{"metric": "lambda2_ratio", "max": 0.1}],
            }
        ],
    )
    assert run(p) == 1
    rows = read_rows(tmp_path / "r.csv")
    assert metric(rows, "lambda2_ratio")[0] > 0.1
    digest = json.loads((tmp_path / "r.json").read_text())
    assert digest["passed"] is False
    assert digest["experiments"][0] == {"name": "cw-gap-scaling", "passed": False}


def test_requirement_on_absent_metric_fails(tmp_path):
    p = write_config(
        tmp_path,
        [
            {
                "name": "cw-gap-scaling",
                "seeds": [0],
                "params": {"n": [5, 7]},
                "require": [{"metric": "spectral_unicorns", "min": 0.0}],
            }
        ],
    )
    assert run(p) == 1


# --- determinism ----------------------------------------------------------


# small HS configs: they share the enumeration, pattern, sector and pair
# energy structures between threads and, on a rerun, reuse them warm
SMALL_HS = [
    {"name": "hs-sandwich", "seeds": [0], "params": {"n": [5, 7]}},
    {"name": "potts-gap", "seeds": [0], "params": {"n": 3, "component_gap_sample": 16}},
]


def test_rerun_is_byte_identical(tmp_path):
    p = write_config(
        tmp_path, [{"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7]}}, *SMALL_HS]
    )
    assert run(p) == 0
    csv1 = (tmp_path / "r.csv").read_bytes()
    json1 = (tmp_path / "r.json").read_bytes()
    assert run(p) == 0
    assert (tmp_path / "r.csv").read_bytes() == csv1
    assert (tmp_path / "r.json").read_bytes() == json1


def test_output_independent_of_thread_count(tmp_path):
    exps = [
        {"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7]}},
        {
            "name": "balance-concentration",
            "seeds": [0],
            "params": {"redraws": 20, "m": [50, 200], "slope_window": [-2.0, 0.0]},
        },
        *SMALL_HS,
    ]
    p = write_config(tmp_path, exps)
    assert run(p, threads=1, out_override=str(tmp_path / "a.csv")) == 0
    assert run(p, threads=4, out_override=str(tmp_path / "b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_timings_flag_records_runtimes(tmp_path):
    p = write_config(
        tmp_path, [{"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7]}}]
    )
    assert run(p) == 0
    assert all(r[5] == 0.0 for r in read_rows(tmp_path / "r.csv"))
    assert run(p, timings=True) == 0
    timed = [r for r in read_rows(tmp_path / "r.csv") if r[2] == "lambda2"]
    assert timed[0][5] > 0.0


def test_out_override_beats_config_path(tmp_path):
    p = write_config(tmp_path, [], out="declared.csv")
    target = tmp_path / "sub" / "actual.csv"
    assert run(p, out_override=str(target)) == 0
    assert target.exists()
    assert not (tmp_path / "declared.csv").exists()


# --- catalog: spectra -----------------------------------------------------


def test_cw_gap_scaling_matches_direct_eigensolve(tmp_path):
    p = write_config(
        tmp_path,
        [{"name": "cw-gap-scaling", "seeds": [0], "params": {"n": [5, 7, 9, 11]}}],
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    # independent route: unit-rate eigensolve scaled to per-update rates
    from multimix.spectral import eigendecompose

    for n in (5, 7, 9, 11):
        spec = eigendecompose(
            build_glauber_generator(exact_distribution(curie_weiss(n, 1.5)))
        )
        lam2 = metric(rows, "lambda2", f"n={n} beta=1.5")[0]
        lam3 = metric(rows, "lambda3", f"n={n} beta=1.5")[0]
        assert lam2 == pytest.approx(spec.eigenvalues[1] / n, abs=1e-14)
        assert lam3 == pytest.approx(spec.eigenvalues[2] / n, abs=1e-14)
        cube = metric(rows, "n3_lambda3", f"n={n} beta=1.5")[0]
        assert cube == pytest.approx(n**3 * lam3, rel=1e-12)
    ratios = metric(rows, "lambda2_ratio")
    assert ratios == pytest.approx(
        [0.48232578442584906, 0.558381874514995, 0.6076433990896755], abs=1e-12
    )
    assert all(r <= 0.7 for r in ratios)


def test_cw_gap_scaling_fails_when_n3_lambda3_falls(tmp_path):
    # descending n: n^3 lambda3 falls from 60.6 to 45.4 to 32.0, below 0.9
    # of its first value, while every lambda2 ratio stays under the cap
    p = write_config(
        tmp_path,
        [
            {
                "name": "cw-gap-scaling",
                "seeds": [0],
                "params": {"n": [11, 9, 7], "ratio_cap": 100},
            }
        ],
    )
    assert run(p) == 1
    rows = read_rows(tmp_path / "r.csv")
    assert metric(rows, "n3_lambda3") == pytest.approx([60.6, 45.4, 32.0], abs=0.05)


def test_balance_concentration_slope_near_root_m(tmp_path):
    p = write_config(
        tmp_path,
        [
            {
                "name": "balance-concentration",
                "seeds": [0],
                "params": {"redraws": 50, "m": [50, 200, 800]},
            }
        ],
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    meds = metric(rows, "median_balance")
    assert meds[0] > meds[1] > meds[2]
    slope = metric(rows, "loglog_slope")[0]
    assert slope == pytest.approx(-0.4720707046877824, abs=1e-10)
    assert -0.65 <= slope <= -0.35


def test_balance_concentration_accepts_model_file(tmp_path):
    model = curie_weiss(6, 1.2)
    mpath = tmp_path / "model.txt"
    mpath.write_text(dump_ising_model(model))
    p = write_config(
        tmp_path,
        [
            {
                "name": "balance-concentration",
                "seeds": [3],
                "params": {
                    "model": str(mpath),
                    "redraws": 20,
                    "m": [100, 400],
                    "slope_window": [-2.0, 0.0],
                },
            }
        ],
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    assert rows[0][1].startswith("n=6 ")


def test_balance_concentration_missing_model_exits_2(tmp_path, capsys):
    p = write_config(
        tmp_path,
        [
            {
                "name": "balance-concentration",
                "seeds": [0],
                "params": {"model": str(tmp_path / "ghost.txt")},
            }
        ],
    )
    assert run_cli(p) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ghost.txt" in err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("potts-gap", {"component_gap_sample": 0}, "component_gap_sample"),
        ("potts-gap", {"component_gap_sample": -3}, "component_gap_sample"),
        ("balance-concentration", {"redraws": 0}, "redraws"),
        ("balance-concentration", {"m": [200]}, "m"),
        ("balance-concentration", {"m": [200, 200]}, "m"),
        ("balance-concentration", {"m": [0, 200]}, "m"),
        ("cw-gap-scaling", {"n": [5]}, "n"),
        ("cw-gap-scaling", {"n": [5, 5]}, "n"),
        ("score-robustness", {"eps_sc": [0.5]}, "eps_sc"),
        ("score-robustness", {"eps_sc": [0.0, 0.5]}, "eps_sc"),
        ("score-robustness", {"eps_sc": [0.0, 0.5, 0.5]}, "eps_sc"),
        ("score-robustness", {"eps_sc": [0.5, 0.2, 0.0]}, "eps_sc"),
        ("score-robustness", {"eps_sc": [0.0, 0.2, 0.2, 0.5]}, "eps_sc"),
        ("score-robustness", {"eps_sc": [-0.2, 0.0, 0.5]}, "eps_sc"),
        ("balance-concentration", {"k": 1}, "k"),
        ("cw-gap-scaling", {"n": [1, 2]}, "n"),
        ("balance-concentration", {"n": 3, "k": 9}, "k"),
    ],
)
def test_degenerate_parameters_exit_2_before_any_work(tmp_path, capsys, name, params, key):
    # each used to crash mid-run (ZeroDivisionError, IndexError), fit a
    # slope to one point and exit 1, the code of a failed predicate, or pass
    # a verdict that compared nothing
    p = write_config(tmp_path, [{"name": name, "seeds": [0], "params": params}])
    with (
        mock.patch("multimix.experiments.eigendecompose") as eig,
        mock.patch("multimix.experiments.lmc_run") as lmc,
    ):
        with pytest.raises(ValueError, match=f"^{name} parameter {key!r} (must be|needs) "):
            run(p)
        assert run_cli(p) == 2
    assert not eig.called and not lmc.called
    assert f"parameter {key!r}" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


# --- catalog: samplers ----------------------------------------------------


def bimodal_projection_tv(x: np.ndarray, chains: int) -> tuple[float, np.ndarray]:
    # the projection TV against the bimodal fixture (modes at -5 and +5 with
    # unit variance, weight 1/2 each), bin by bin in a loop; bins are closed
    # on the left and the outer bins take x < -9 and x >= 9. Returns the TV
    # and the bin counts.
    edges = np.linspace(-9.0, 9.0, 61)
    counts = np.zeros(62)
    for v in x:
        counts[int((edges <= v).sum())] += 1
    grid = np.concatenate([[-np.inf], edges, [np.inf]])
    exact = 0.5 * np.diff(ndtr(grid + 5.0)) + 0.5 * np.diff(ndtr(grid - 5.0))
    return 0.5 * np.abs(counts / chains - exact).sum(), counts


def test_projection_tv_counts_a_point_on_an_outer_edge_once():
    x = np.array([9.0, 0.3, -9.0, 12.0, -12.0, 8.7])
    expected, _ = bimodal_projection_tv(x, x.size)
    got = _projection_tv(x[:, None], _bimodal_fixture())
    assert got <= 1.0
    assert got == pytest.approx(expected, abs=1e-15)


def test_data_started_tv_counts_diverged_chains_as_missing_mass():
    # a drift of 1e12 on the right half line throws those chains past the
    # divergence guard at the first step; they stay out of every bin
    model = _bimodal_fixture()
    score = ScoreField(fn=lambda x: np.where(x > 0.0, 1e12, model.score(x)), kind="exact")
    tv = _data_started_tv(model, score, 0, 0.01, 0.05, 400)
    cfg = LmcConfig(step=0.01, horizon=0.05, seed=0, chains=400)
    res = lmc_run(sample_mixture(model, 500, 11), score, cfg)
    assert 0 < res.flagged.sum() < res.chains
    expected, counts = bimodal_projection_tv(res.samples.data[~res.flagged, 0], res.chains)
    assert tv == pytest.approx(expected, abs=1e-15)
    # the diverged mass is missing from every bin, the top one included,
    # so it adds at least half of itself to the TV
    assert counts[-1] == 0.0
    assert tv >= 0.5 * res.flagged.mean()


def test_langevin_metastability_small_run(tmp_path):
    p = write_config(
        tmp_path,
        [
            {
                "name": "langevin-metastability",
                "seeds": [0],
                "params": {"chains": 2000, "step": 5e-3, "horizon": 5.0},
            }
        ],
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    frac = metric(rows, "right_mode_fraction", "init=data seed=0")[0]
    assert frac == pytest.approx(0.5025, abs=1e-12)
    assert metric(rows, "stay_fraction", "init=single seed=0")[0] == 1.0


def test_score_robustness_is_monotone_in_perturbation(tmp_path):
    p = write_config(
        tmp_path,
        [{"name": "score-robustness", "seeds": [0], "params": {"chains": 4000}}],
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    tvs = [
        metric(rows, "terminal_tv", f"seed=0 eps_sc={e}")[0]
        for e in (0.0, 0.2, 0.5, 1.0)
    ]
    assert tvs == sorted(tvs)
    assert tvs[0] < 0.06 and tvs[-1] > 0.3
    assert metric(rows, "monotone", "seed=0")[0] == 1.0


def test_min_weight_component_does_not_move_terminal_law(tmp_path):
    p = write_config(
        tmp_path,
        [{"name": "min-weight-free", "seeds": [0], "params": {"chains": 2000}}],
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    assert metric(rows, "tv_shift", "seed=0")[0] < 0.01
    assert metric(rows, "dropped_score_error", "seed=0")[0] < 1e-3


# --- catalog: certificates ------------------------------------------------


def test_hs_sandwich_experiment_matches_frozen_certificate(tmp_path):
    p = write_config(
        tmp_path, [{"name": "hs-sandwich", "seeds": [0], "params": {"n": [5]}}]
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    label = "n=5 beta=1.5 c=2.0"
    assert metric(rows, "fields", label)[0] == 45.0
    assert metric(rows, "min_ratio", label)[0] == pytest.approx(
        0.9934207207773794, abs=1e-12
    )
    assert metric(rows, "max_ratio", label)[0] == pytest.approx(
        1.0098459853187105, abs=1e-12
    )
    assert metric(rows, "passed", label)[0] == 1.0
    assert metric(rows, "refine_error", label)[0] <= 1e-10


def test_potts_gap_pipeline_certifies(tmp_path):
    p = write_config(
        tmp_path,
        [
            {
                "name": "potts-gap",
                "seeds": [0],
                "params": {"n": 3, "component_gap_sample": 16},
            }
        ],
    )
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    label = "n=3 q=3 beta=1.2"
    assert metric(rows, "passed", label)[0] == 1.0
    assert metric(rows, "refine_error", label)[0] <= 1e-10
    assert metric(rows, "min_component_gap", label)[0] == pytest.approx(
        0.8696944196928365, abs=1e-10
    )
    assert metric(rows, "mixture_gap", label)[0] == pytest.approx(3.0, abs=1e-10)


def test_learn_ising_e2e_single_seed(tmp_path):
    p = write_config(tmp_path, [{"name": "learn-ising-e2e", "seeds": [0], "params": {}}])
    assert run(p) == 0
    rows = read_rows(tmp_path / "r.csv")
    assert [r[2] for r in rows] == ["epsilon_hat", "terminal_tv", "balance", "converged"]
    label = "n=8 m_fit=20000 seed=0"
    assert metric(rows, "epsilon_hat", label)[0] <= 0.01
    assert metric(rows, "terminal_tv", label)[0] <= 0.15
    assert metric(rows, "converged", label)[0] == 1.0


def test_learn_ising_e2e_above_certification_cap_exits_3(tmp_path, capsys):
    # n = 11 is past exact certification, and there is no estimate in its place
    p = write_config(tmp_path, [{"name": "learn-ising-e2e", "seeds": [0], "params": {"n": 11}}])
    assert run_cli(p) == 3
    assert "up to 10 spins, got 11" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


# --- shipped fixtures -----------------------------------------------------


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    configs, _ = _parse_config(path.read_text())
    assert configs


def test_shipped_gap_config_runs_clean(tmp_path):
    shipped = CONFIGS / "curie-weiss-gaps.json"
    assert run(shipped, out_override=str(tmp_path / "gaps.csv")) == 0
    rows = read_rows(tmp_path / "gaps.csv")
    assert {r[2] for r in rows} == {
        "lambda2",
        "lambda3",
        "n3_lambda3",
        "lambda2_ratio",
    }


def test_results_never_overwrite_the_config(tmp_path, monkeypatch, capsys):
    # the summary goes to out.with_suffix(".json"), which for out = cfg.csv
    # is the config itself
    calls = []
    monkeypatch.setitem(CATALOG, "cw-gap-scaling", lambda *a, **k: calls.append(a))
    p = write_config(tmp_path, [{"name": "cw-gap-scaling", "seeds": [0]}], out="cfg.csv")
    before = p.read_bytes()
    assert run_cli(p) == 2
    assert capsys.readouterr().err.startswith("error: results would overwrite the config")
    assert run_cli(p, "--out", str(tmp_path / "cfg.json")) == 2
    assert capsys.readouterr().err.startswith("error: results would overwrite the config")
    assert p.read_bytes() == before
    assert calls == []
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


def test_model_path_resolves_next_to_the_config(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "m.txt").write_text(dump_ising_model(curie_weiss(5, 1.2)))
    params = {"model": "m.txt", "redraws": 5, "m": [50, 100], "slope_window": [-5.0, 5.0]}
    write_config(sub, [{"name": "balance-concentration", "seeds": [0], "params": params}])
    monkeypatch.chdir(tmp_path)
    assert run("sub/cfg.json") == 0
    assert read_rows(sub / "r.csv")[0][1].startswith("n=5 ")
