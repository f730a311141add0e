"""Command-line front end: fit, simulate, benchmark, stability.

All machine-readable output is JSON with sorted keys; every payload is
validated against a schema shipped with the package before it is written,
so two runs with the same configuration and seed emit byte-identical files
regardless of worker count.  Exit codes: 2 malformed input file, 3 invalid
configuration, inconsistent data or a path that cannot be opened or
created, 4 numeric failure.
"""

import argparse
import functools
import json
import os
import sys
from importlib import resources

import jsonschema
import numpy as np

from .boosting import fit as run_fit
from .data import (
    BoostConfig,
    NumericError,
    ParseError,
    ValidationError,
    load_bundles,
    read_groups_tsv,
)
from .losses import survival_sorted
from .metrics import benchmark, canonical_method, stability
from .simulate import SMALL_EXAMPLE_SCENARIOS, SimDesign, small_example_design, write_simulation
from .tuning import default_lambda_grid, hdbic, select_lambda, LambdaGrid

_PRESETS = {
    "standard": dict(n=200, p=1000, K=20),
    "reduced": dict(n=100, p=400, K=8),
    "table2": dict(n=200, p=1000, K=20),
}

# named designs: coefficient scheme x noise level
_DESIGNS = {
    "S1": ("random", 1.0),
    "S2": ("random", 3.0),
    "S3": ("fixed", 1.0),
    "S4": ("fixed", 3.0),
}

# config-file keys whose argparse destination differs
_KEY_ALIASES = {"lambda": "lam"}


def _workers_default() -> int:
    try:
        return max(1, int(os.environ.get("CDBOOST_WORKERS", "1")))
    except ValueError:
        return 1


@functools.cache
def _validator(name: str):
    """The validator of a schema shipped with the package, built once: the
    steps of ``jsonschema.validate`` that depend on the schema alone."""
    schema = json.loads(resources.files("cdboost.schemas").joinpath(name).read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(payload, schema_name: str) -> None:
    """Raise the error ``jsonschema.validate`` would raise, if any."""
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(payload))
    if error is not None:
        raise error


def _clean(obj):
    """JSON-safe copy: non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _emit(payload: dict, schema_name: str, path: str | None):
    payload = _clean(payload)
    _validate(payload, schema_name)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_outputs(*paths):
    """Refuse, before any fitting, an output path that cannot be created:
    one whose directory does not exist or that is itself a directory."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValidationError(f"{path}: no directory {parent!r} to write it in")
        if os.path.isdir(path):
            raise ValidationError(f"{path}: is a directory")


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        out[_KEY_ALIASES.get(key, key)] = value.strip()
    return out


def _config_value(action: argparse.Action, raw: str, where: str):
    """Convert one config-file value as its option would on the command line."""
    if action.nargs == 0:            # a store_true-style flag
        return action.const if raw.lower() in ("1", "true", "yes", "on") else action.default
    try:
        value = (action.type or str)(raw)
    except ValueError:
        raise ParseError(f"{where}: bad value {raw!r} for {action.dest!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ParseError(f"{where}: {action.dest!r} must be one of "
                         f"{', '.join(map(str, action.choices))}, got {raw!r}")
    return value


def _merge_config(args: argparse.Namespace, argv: list[str], parser: argparse.ArgumentParser):
    """Apply config-file values for options not given on the command line,
    and set ``args.given`` to the destinations of the options given on the
    command line or in the config file.

    ``parser`` is the subcommand's parser.  The options given are those
    whose action argparse ran: the subcommand's arguments are parsed again
    into a namespace holding a placeholder for every option, and argparse
    only replaces the placeholder of an action that consumed a token, so
    abbreviated and ``--opt=value`` forms count.  Each value is converted
    with its option's declared type and checked against its choices, as
    argparse would for the flag.
    """
    # argparse keeps the subcommand's option actions only in this attribute
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unset = object()
    probe = argparse.Namespace(**{dest: unset for dest in actions})
    parser.parse_args(argv[argv.index(args.command) + 1:], namespace=probe)
    args.given = {dest for dest in actions if getattr(probe, dest) is not unset}
    if not getattr(args, "config", None):
        return
    for key, raw in _read_config_file(args.config).items():
        if key in args.given:
            continue
        if key not in actions:
            raise ValidationError(f"{args.config}: unknown config key {key!r}")
        setattr(args, key, _config_value(actions[key], raw, args.config))
        args.given.add(key)


def _parse_rho(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"--rho wants three comma-separated values, got {text!r}")
    try:
        rho = tuple(float(x) for x in parts)
    except ValueError:
        raise ParseError(f"non-numeric --rho value in {text!r}") from None
    return rho


def _parse_lambda(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"--lambda wants a number or 'auto', got {text!r}") from None


def _parse_lambda_grid(text: str) -> LambdaGrid:
    try:
        values = sorted(float(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"non-numeric --grid value in {text!r}") from None
    return LambdaGrid(values=tuple(values))


def _boost_config(args, algorithm: str, model: str) -> BoostConfig:
    """The fit settings given by --nu, --iters, --lambda and --penalty-mode;
    lambda is 0.0 under ``auto`` until a grid search picks it.  Also checks
    --workers, which every command taking these settings has."""
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")
    lam = 0.0 if args.lam == "auto" else _parse_lambda(args.lam)
    return BoostConfig(nu=args.nu, T=args.iters, lam=lam, algorithm=algorithm,
                       model=model, penalty_mode=args.penalty_mode)


def _load_problem(args):
    """Datasets, groups and model named by --data, --groups and --model; the
    model ``auto`` is AFT when the files carry event indicators."""
    bundles, names = load_bundles(args.data, standardize=not args.no_standardize)
    groups = read_groups_tsv(args.groups, names)
    model = args.model
    if model == "auto":
        model = "aft" if bundles[0].delta is not None else "lr"
    return bundles, groups, model


def _methods(args) -> list[str]:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValidationError("no methods given")
    return methods


def _design_from_args(args) -> SimDesign:
    base = dict(_PRESETS[args.preset])
    for field in ("n", "p", "K"):
        value = getattr(args, field.lower())
        if value is not None:
            base[field] = value
    rho = _parse_rho(args.rho)
    scheme, sigma2 = _DESIGNS[args.design] if args.design else ("random", 1.0)
    return SimDesign(
        M=3, rho_f=rho[0], rho_p=rho[1], rho_n=rho[2],
        coef_scheme=args.scheme or scheme,
        sigma2=sigma2 if args.sigma2 is None else args.sigma2,
        model=args.model, seed=args.seed, **base,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    _check_outputs(args.output)
    method = canonical_method(args.method)
    if args.grid is not None and (args.lam != "auto" or method != "cd_sboost"):
        raise ValidationError("--grid applies only to cd-sboost with --lambda auto")
    bundles, groups, model = _load_problem(args)
    if model == "aft":
        bundles = [survival_sorted(b) for b in bundles]
    config = _boost_config(args, method, model)
    lam = config.lam
    if args.lam == "auto" and method == "cd_sboost":
        grid = (default_lambda_grid(bundles) if args.grid is None
                else _parse_lambda_grid(args.grid))
        lam, result = select_lambda(bundles, groups, config, grid=grid,
                                    workers=args.workers)
        score = grid.scores[grid.values.index(lam)]  # the winner's own grid score
    else:
        result = run_fit(bundles, groups, config)
        score = hdbic(result, bundles)

    nz = np.nonzero(result.beta_hat)
    payload = {
        "method": method,
        "model": model,
        "t_hat": result.t_hat,
        "lambda": lam,
        "coefficients": [
            [int(j), int(m), float(result.beta_hat[j, m])] for j, m in zip(*nz)
        ],
        "group_verdicts": [
            {"group": k, "verdict": verdict, "classes": [list(c) for c in part]}
            for k, (verdict, part) in enumerate(
                zip(result.group_verdicts(groups), result.partitions)
            )
        ],
        "objective_trace": [float(v) for v in result.objective_trace],
        "hdbic": score,
    }
    _emit(payload, "fit_result.schema.json", args.output)
    return 0


def cmd_simulate(args) -> int:
    scenarios = None
    if args.preset == "small-example":
        fixed = [dest for dest in ("rho", "design", "scheme", "sigma2", "n", "p", "k")
                 if dest in args.given]
        if fixed:
            raise ValidationError(
                f"{', '.join('--' + dest for dest in fixed)}: the small-example preset "
                f"has a fixed design")
        design = small_example_design(args.seed, args.model)
        scenarios = SMALL_EXAMPLE_SCENARIOS
    else:
        design = _design_from_args(args)
    paths, groups_path, truth_path = write_simulation(
        args.outdir, design, replicate=args.replicate, scenarios=scenarios
    )
    with open(truth_path) as fh:
        _validate(json.load(fh), "simulation_truth.schema.json")
    for path in [*paths, groups_path, truth_path]:
        print(path)
    return 0


def cmd_benchmark(args) -> int:
    _check_outputs(args.output, args.table)
    design = _design_from_args(args)
    methods = _methods(args)
    config = _boost_config(args, "cd_sboost", design.model)
    report = benchmark(design, methods, args.replicates, config=config,
                       tune=args.lam == "auto", workers=args.workers, verify=not args.no_verify)
    _emit(report.to_json(), "benchmark_report.schema.json", args.output)
    table = report.to_table()
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(table + "\n")
    if args.output:
        print(table)
    return 0


def cmd_stability(args) -> int:
    _check_outputs(args.output)
    bundles, groups, model = _load_problem(args)
    methods = _methods(args)
    config = _boost_config(args, "cd_sboost", model)
    results = stability(bundles, groups, config, methods,
                        n_splits=args.splits, seed=args.seed,
                        tune=args.lam == "auto", workers=args.workers)
    payload = {
        "model": model,
        "splits": args.splits,
        "seed": args.seed,
        "methods": methods,
        "results": results,
    }
    _emit(payload, "stability_report.schema.json", args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common_fit_flags(sub):
    sub.add_argument("--nu", type=float, default=0.1, help="step size (default 0.1)")
    sub.add_argument("--iters", type=int, default=500, metavar="T",
                     help="boosting iteration cap (default 500)")
    sub.add_argument("--lambda", dest="lam", default="auto",
                     help="commonality penalty weight, or 'auto' for HDBIC grid search")
    sub.add_argument("--penalty-mode", choices=("all_pairs", "ordered"),
                     default="all_pairs", help="dataset pairs counted by the penalty")
    sub.add_argument("--workers", type=int, default=_workers_default(),
                     help="parallel workers (default $CDBOOST_WORKERS or 1)")
    sub.add_argument("--config", help="key=value defaults file; flags win")


def _add_seed_flag(sub, **kwargs):
    sub.add_argument("--seed", type=int, **kwargs)


def _add_design_flags(sub, extra_presets=()):
    """The simulation design flags of ``simulate`` and ``benchmark``."""
    sub.add_argument("--preset", default="standard",
                     choices=("standard", "reduced", *extra_presets, "table2"),
                     help="design preset (default standard: n=200, p=1000, K=20)")
    sub.add_argument("--rho", default="0.8,0.2,0",
                     help="scenario proportions full,partial,none")
    sub.add_argument("--design", choices=sorted(_DESIGNS),
                     help="named scheme/noise pairing (overridden by --scheme/--sigma2)")
    sub.add_argument("--scheme", choices=("random", "fixed"))
    sub.add_argument("--sigma2", type=float)
    sub.add_argument("--model", choices=("lr", "aft"), default="lr")
    sub.add_argument("--n", type=int, help="override subjects per dataset")
    sub.add_argument("--p", type=int, help="override covariate count")
    sub.add_argument("--k", type=int, help="override group count")
    _add_seed_flag(sub, required=True)


def _add_data_flags(sub):
    """The input and output flags of ``fit`` and ``stability``."""
    sub.add_argument("--data", nargs="+", required=True, metavar="CSV",
                     help="one CSV per dataset, shared covariate columns")
    sub.add_argument("--groups", required=True, help="TSV: covariate<TAB>group id")
    sub.add_argument("--model", choices=("auto", "lr", "aft"), default="auto")
    sub.add_argument("--no-standardize", action="store_true",
                     help="skip column standardization on load")
    sub.add_argument("--output", help="output JSON path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdboost",
        description="Sparse boosting across multiple datasets with "
                    "commonality/difference detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one method on CSV datasets")
    _add_data_flags(p_fit)
    p_fit.add_argument("--method", default="cd-sboost",
                       help="cd-sboost | int-sboost | sep-sboost | pool-sboost | sboost")
    p_fit.add_argument("--grid", help="comma-separated lambda grid for --lambda auto")
    _add_common_fit_flags(p_fit)
    p_fit.set_defaults(handler=cmd_fit, subparser=p_fit)

    p_sim = sub.add_parser("simulate", help="write synthetic dataset files")
    _add_design_flags(p_sim, extra_presets=("small-example",))
    p_sim.add_argument("--replicate", type=int, default=0)
    p_sim.add_argument("--outdir", required=True)
    p_sim.add_argument("--config", help="key=value defaults file; flags win")
    p_sim.set_defaults(handler=cmd_simulate, subparser=p_sim)

    p_bench = sub.add_parser("benchmark", help="simulate, fit, and score methods")
    _add_design_flags(p_bench)
    p_bench.add_argument("--methods", default="cd,int,sep,pool")
    p_bench.add_argument("--replicates", type=int, default=20)
    p_bench.add_argument("--no-verify", action="store_true",
                         help="skip per-iteration partition cross-checks")
    p_bench.add_argument("--table", help="also write the text table here")
    p_bench.add_argument("--output", help="report JSON path (default stdout)")
    _add_common_fit_flags(p_bench)
    p_bench.set_defaults(handler=cmd_benchmark, subparser=p_bench)

    p_stab = sub.add_parser("stability", help="repeated-split selection stability")
    _add_data_flags(p_stab)
    p_stab.add_argument("--methods", default="cd")
    p_stab.add_argument("--splits", type=int, default=100)
    _add_seed_flag(p_stab, default=0)
    _add_common_fit_flags(p_stab)
    p_stab.set_defaults(handler=cmd_stability, subparser=p_stab)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, argv, args.subparser)
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        # OSError: a given path that cannot be opened or created (missing,
        # a directory, or under a regular file)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
