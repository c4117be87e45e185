"""Command-line front end.

Subcommands mirror the library surface: `spectrum` and `sample` for spin
models, `learn` (an alias for `ple fit`) and `ple certify` for estimation,
`decompose` for the mixture construction, and `experiment run` for the
catalog runner. Exit codes follow one convention everywhere: 0 success,
1 a declared acceptance predicate failed, 2 parse or usage error,
3 capacity exceeded. The library raises and `main` alone maps an error to
its code: a CapacityError to 3, any other ValueError (ParseError included)
or OSError to 2, printing `error: <message>` to stderr. A command returns
0 or 1 itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CapacityError, ParseError
from .hs import (
    build_field_net,
    certify_sandwich,
    dump_field_net,
    mixture_density,
    split_spectrum,
)
from .ising import (
    dump_ising_model,
    dump_samples,
    empirical_distribution,
    exact_distribution,
    load_ising_model,
    load_samples,
    sample_exact,
)
from .langevin import load_mixture, sample_mixture
from .measures import _row
from .ple import (
    PleConfig,
    certify_terminal_tv,
    conditional_kl_diagnostic,
    fit,
    row_norms,
)
from .spectral import build_glauber_generator, eigendecompose
from . import experiments


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise ParseError(f"file {path} does not exist")
    return p.read_text()


def _load_model(path: str):
    text = _read(path)
    head = text.split(None, 1)[0] if text.strip() else ""
    if head == "ising":
        return load_ising_model(text)
    if head == "mixture":
        return load_mixture(text)
    raise ParseError(f"unrecognized model format in {path}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


def _cmd_spectrum(args) -> int:
    model = _load_model(args.model)
    if not hasattr(model, "J"):
        raise ParseError("spectrum needs a spin model; got a continuous mixture")
    pi = exact_distribution(model)
    if not 0 <= args.k <= pi.m:
        raise ParseError(f"--k must lie in 0..{pi.m} (0 = all), got {args.k}")
    spec = eigendecompose(build_glauber_generator(pi), args.k or None)
    lines = [repr(float(v)) for v in spec.eigenvalues]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    model = _load_model(args.model)
    if hasattr(model, "J"):
        X = sample_exact(model, args.count, args.seed)
        _emit(dump_samples(X), args.out)
    else:
        pts = sample_mixture(model, args.count, args.seed).data
        _emit("\n".join(map(_row, pts)) + "\n", args.out)
    return 0


def _fit_config(args) -> PleConfig:
    return PleConfig(
        radius=args.radius,
        step=args.step,
        max_iters=args.max_iters,
        tolerance=args.tolerance,
    )


def _cmd_fit(args) -> int:
    X = load_samples(_read(args.samples))
    report = fit(X, _fit_config(args))
    Path(args.out).write_text(dump_ising_model(report.model))
    summary = {
        "objective": report.objective,
        "iterations": report.iterations,
        "backtracks": report.backtracks,
        "converged": report.converged,
        "radius": report.radius,
        "max_row_norm": float(row_norms(report.model).max()),
        "model": args.out,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_certify(args) -> int:
    truth = load_ising_model(_read(args.truth))
    fitted = load_ising_model(_read(args.fitted))
    X = load_samples(_read(args.samples))
    eps = conditional_kl_diagnostic(truth, fitted, X)
    mu0 = empirical_distribution(X, truth.n)
    tv = certify_terminal_tv(fitted, truth, mu0, args.horizon)
    summary = {
        "epsilon_hat": eps,
        "horizon": args.horizon,
        "terminal_tv": tv,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_decompose(args) -> int:
    model = load_ising_model(_read(args.model))
    split = split_spectrum(model, args.c)
    net = build_field_net(split, args.support_radius, model.n, mesh=args.mesh)
    pi = exact_distribution(model)
    pi2, _ = mixture_density(net, split, model)
    cert = certify_sandwich(pi, pi2)
    if args.out is not None:
        Path(args.out).write_text(dump_field_net(net))
    summary = {
        "rank": split.r,
        "threshold": split.threshold,
        "negative_trace": split.negative_trace,
        "fields": net.count,
        "min_ratio": cert.min_ratio,
        "max_ratio": cert.max_ratio,
        "passed": cert.passed,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0 if cert.passed else 1


def _cmd_experiment_run(args) -> int:
    return experiments.run(
        args.config,
        threads=args.threads,
        timings=args.timings,
        out_override=args.out,
    )


def _add_fit_options(sub) -> None:
    sub.add_argument("--samples", required=True, help="sample file, one row per draw")
    sub.add_argument("--radius", required=True, type=float, help="row l1 budget")
    sub.add_argument("--out", required=True, help="where to write the fitted model")
    sub.add_argument("--step", type=float, default=None)
    sub.add_argument("--max-iters", type=int, default=5000, dest="max_iters")
    sub.add_argument("--tolerance", type=float, default=1e-6)
    sub.set_defaults(func=_cmd_fit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multimix")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalues of the heat-bath generator")
    sp.add_argument("--model", required=True)
    sp.add_argument("--k", type=int, default=0, help="how many to print (0 = all)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectrum)

    sa = subs.add_parser("sample", help="draw stationary samples from a model file")
    sa.add_argument("--model", required=True)
    sa.add_argument("--count", required=True, type=int)
    sa.add_argument("--seed", type=int, default=0)
    sa.add_argument("--out", default=None)
    sa.set_defaults(func=_cmd_sample)

    _add_fit_options(subs.add_parser("learn", help="fit a spin model from samples"))

    de = subs.add_parser("decompose", help="mixture decomposition with certificate")
    de.add_argument("--model", required=True)
    de.add_argument("--c", type=float, default=2.0, help="spectral split constant")
    de.add_argument("--support-radius", type=float, default=1.0, dest="support_radius")
    de.add_argument("--mesh", type=float, default=None)
    de.add_argument("--out", default=None, help="optional field-net export path")
    de.set_defaults(func=_cmd_decompose)

    ple = subs.add_parser("ple", help="pseudolikelihood estimation")
    ple_subs = ple.add_subparsers(dest="ple_command", required=True)
    _add_fit_options(ple_subs.add_parser("fit"))
    ce = ple_subs.add_parser("certify")
    ce.add_argument("--truth", required=True)
    ce.add_argument("--fitted", required=True)
    ce.add_argument("--samples", required=True)
    ce.add_argument("--horizon", type=float, default=10.0, help="time T; cost grows linearly in T")
    ce.set_defaults(func=_cmd_certify)

    ex = subs.add_parser("experiment", help="catalog experiment runner")
    ex_subs = ex.add_subparsers(dest="experiment_command", required=True)
    er = ex_subs.add_parser("run")
    er.add_argument("config", help="JSON experiment config")
    er.add_argument("--threads", type=int, default=4, help="worker-pool width")
    er.add_argument("--timings", action="store_true")
    er.add_argument("--out", default=None, help="override the CSV output path")
    er.set_defaults(func=_cmd_experiment_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapacityError) else 2


if __name__ == "__main__":
    sys.exit(main())
