"""Command-line surface: fit/score a detector, run the benchmark
protocol, run the ablation ladder, generate synthetic datasets, and
export decision-boundary score grids.

A config file (INI-style, one section per subcommand, flat key = value
entries) can set any flag, required ones included; explicit flags
override file values, and unknown keys are rejected.
"""

import argparse
import configparser
import math
import sys

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from . import plo as plo_mod


def _load_dataset(spec, seed):
    """--data accepts either a CSV path or synth:<name>."""
    if spec.startswith("synth:"):
        name = spec.split(":", 1)[1]
        try:
            gen = data_mod.SYNTHETIC_GENERATORS[name]
        except KeyError:
            raise ValueError(
                f"unknown synthetic dataset {name!r}; "
                f"choices: {sorted(data_mod.SYNTHETIC_GENERATORS)}"
            ) from None
        return gen(seed)
    return data_mod.load_csv(spec)


def cmd_fit(args):
    dataset = data_mod.load_csv(args.data)
    loss = plo_mod.LossSpec(args.loss, args.c if args.loss == "svm_like" else None)
    dc = plo_mod.DirectionConfig(
        n_random=args.n_random,
        include_basis=args.include_basis,
        n_one_point=args.n_one_point,
        n_two_points=args.n_two_points,
    )
    config = plo_mod.FitConfig(
        variant=args.variant,
        loss=loss,
        gamma=args.gamma,
        q=args.q,
        k=args.k,
        direction_config=dc,
        seed=args.seed,
    )
    model = plo_mod.fit(dataset.X, config)
    plo_mod.save_model(model, args.out)
    n_dirs = sum(len(u) for u in model.directions)
    q = model.kpca.q if model.kpca is not None else model.d
    print(
        f"fit variant={model.variant} q={q} k={len(model.centroids)} "
        f"directions={n_dirs} -> {args.out}"
    )
    return 0


def cmd_score(args):
    model = plo_mod.load_model(args.model)
    dataset = data_mod.load_csv(args.data)
    scores = plo_mod.score(model, dataset.X)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("row_index,score\n")
        for i, s in enumerate(scores.tolist()):
            fh.write(f"{i},{s!r}\n")
    print(f"scored {len(scores)} rows -> {args.out}")
    return 0


def cmd_benchmark(args):
    dataset = _load_dataset(args.data, args.seed)
    method = eval_mod.METHODS[args.method]()
    protocol = eval_mod.Protocol(
        k_folds=args.folds, n_trials=args.trials, seed=args.seed
    )
    report = eval_mod.evaluate_method(dataset, method, protocol)
    eval_mod.write_reports([report], args.out)
    print(f"{report.dataset} {report.method}: {report.mean:.3f} ± {report.std:.3f}")
    return 0


def cmd_ablation(args):
    specs = args.data or [f"synth:{name}" for name in data_mod.SYNTHETIC_GENERATORS]
    datasets = [_load_dataset(spec, args.seed) for spec in specs]
    protocol = eval_mod.Protocol(
        k_folds=args.folds, n_trials=args.trials, seed=args.seed
    )
    reports = eval_mod.run_ablation(datasets, protocol)
    eval_mod.write_reports(reports, args.out)
    header = f"{'dataset':<18}{'method':<12}{'mean':>8}{'std':>8}"
    print(header)
    for r in reports:
        print(f"{r.dataset:<18}{r.method:<12}{r.mean:>8.3f}{r.std:>8.3f}")
    return 0


def cmd_gen(args):
    dataset = data_mod.SYNTHETIC_GENERATORS[args.name](args.seed)
    data_mod.save_csv(dataset, args.out)
    print(f"wrote {dataset.name}: {len(dataset.y)} rows -> {args.out}")
    return 0


def cmd_boundary_grid(args):
    try:
        xmin, xmax, ymin, ymax = (float(v) for v in args.bounds.split(","))
    except ValueError:  # not four numbers
        xmin = xmax = ymin = ymax = math.nan
    finite = all(math.isfinite(v) for v in (xmin, xmax, ymin, ymax))
    if not (finite and xmin < xmax and ymin < ymax):
        raise ValueError("--bounds must be four finite numbers xmin,xmax,ymin,ymax "
                         f"with xmin < xmax and ymin < ymax, got {args.bounds!r}")
    r = args.resolution
    if r < 1:
        raise ValueError(f"--resolution must be >= 1, got {r}")
    model = plo_mod.load_model(args.model)
    if model.d != 2:
        raise ValueError(f"boundary grid needs a 2-D model, got d={model.d}")
    xs = np.linspace(xmin, xmax, r)
    ys = np.linspace(ymin, ymax, r)
    # Row-major: x varies slowest, y fastest.
    grid = np.column_stack([np.repeat(xs, r), np.tile(ys, r)])
    scores = plo_mod.score(model, grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y,score\n")
        for (x, y), s in zip(grid.tolist(), scores.tolist()):
            fh.write(f"{x!r},{y!r},{s!r}\n")
    print(f"wrote {r * r} grid scores -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lkplo",
        description="Two-stage localized kernel projection outlyingness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a detector on a training CSV")
    p.add_argument("--data", required=True, help="training CSV path")
    p.add_argument("--out", required=True, help="model output path (JSON)")
    p.add_argument("--variant", choices=plo_mod.VARIANTS, default="lkplo")
    p.add_argument("--loss", choices=plo_mod.LOSS_KINDS, default="svm_like")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--q", type=int, default=10)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--n-random", type=int, default=100)
    p.add_argument("--include-basis", type=int, choices=(0, 1), default=1)
    p.add_argument("--n-one-point", type=int, default=None)
    p.add_argument("--n-two-points", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="score a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True,
                   help="scores CSV (columns row_index,score)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "benchmark",
        help="cross-validated tuned evaluation; writes <out>.json and "
        "<out>.csv (columns dataset,method,mean,std,fold_aucs)",
    )
    p.add_argument("--data", required=True, help="CSV path or synth:<name>")
    p.add_argument("--method", default="lkplo-svm",
                   choices=sorted(eval_mod.METHODS))
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser(
        "ablation",
        help="plo/kplo/lkplo ladder over built-in synthetics or given CSVs",
    )
    p.add_argument("--data", nargs="*", default=None,
                   help="CSV paths or synth:<name>; default: all synthetics")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("gen", help="write a synthetic dataset CSV")
    p.add_argument("--name", required=True,
                   choices=sorted(data_mod.SYNTHETIC_GENERATORS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "boundary-grid",
        help="export an (x,y,score) lattice for a 2-D model",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", default="-6,6,-6,6",
                   help="xmin,xmax,ymin,ymax")
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_boundary_grid)

    return parser


def _config_flags(path, command):
    """{--key=value flag: key} for each entry of section [command] in the
    config file at path."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    if not cp.has_section(command):
        return {}
    if cp.has_option(command, "config"):
        raise ValueError(f"unknown config key 'config' in section [{command}]")
    return {f"--{key.replace('_', '-')}={value}": key
            for key, value in cp.items(command)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # --config is read first, and only when spelled out (so "--c 5.0" stays
    # the margin flag); the file's flags then go before the command line's,
    # where argparse lets the last one win.
    pre = argparse.ArgumentParser(prog="lkplo", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    try:
        from_file = _config_flags(config, argv[0]) if config else {}
        args, extra = parser.parse_known_args(argv[:1] + list(from_file) + argv[1:])
        unknown = [from_file[flag] for flag in extra if flag in from_file]
        if unknown:
            raise ValueError(
                f"unknown config key {unknown[0]!r} in section [{argv[0]}]"
            )
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.config != config:
            raise ValueError("--config must be spelled out in full")
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
