"""Command-line interface: single tests, batch screening, simulations, and
the bundled quartet demonstration.

Every command is reproducible from its flags and seed alone.  Output files
never embed timestamps, so identical invocations produce byte-identical
reports.  No command starts worker threads of its own: ``--threads`` and
the ``DCAL_THREADS`` environment variable are accepted and have no effect.
numpy's BLAS keeps its own pool (OpenBLAS: one thread per core by default),
which ``OPENBLAS_NUM_THREADS`` sets; reports are byte-identical at any BLAS
thread count, since :mod:`dcal.multitest` scores permutation columns in
blocks of a multiple of four.  ``python -m dcal`` and ``python -m dcal.cli``
run :func:`entry`.

``test --methods`` and ``anscombe`` score their pairs through the method
table of :mod:`dcal.methods`, whose classical p is the one they print.
``--x V`` and ``--y V`` are read as ``--x=V`` and ``--y=V``, so that a
value may start with '-'.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from .batchio import load_matrix, screen, write_report
from .core import DataPair
from .engine import OosScheme
from .errors import DcalError, ParseError, TargetError, raise_first
from .methods import CORRECTIONS, OUTLIER_METHODS, PAIR_METHODS, QUARTET_METHODS, TEST_METHODS
from .methods import Rows, check, pair_fields, quartet_row, score_rows, shuffles
from .multitest import PermutationPlan
from .simulate import (
    Contaminated,
    CorrelatedBattery,
    EffectGrid,
    NullBattery,
    OutlierKind,
    run_battery_experiment,
    run_effect_grid,
    run_oos_comparison,
    run_outlier_suite,
)

SCHEME_NAMES = ("loo", "cv10x10", "boot632")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TARGET = 3


def _scheme_from_name(name: str, seed: int) -> OosScheme:
    if name == "loo":
        return OosScheme.loo()
    if name == "cv10x10":
        return OosScheme.repeated_kfold(10, 10, seed)
    if name == "boot632":
        return OosScheme.boot632(100, seed)
    raise ParseError(f"unknown scheme {name!r}")


def _add_common(parser: argparse.ArgumentParser, with_alpha: bool, with_json: bool) -> None:
    if with_alpha:
        parser.add_argument("--alpha", type=float, default=0.05, help="significance level")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--scheme", choices=SCHEME_NAMES, default="loo",
        help="out-of-sample prediction scheme",
    )
    if with_json:
        parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--threads", type=int, default=None, help="accepted and ignored")


def _read_pair_file(path: str) -> DataPair:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ParseError(f"{path}: file is empty")
    xs, ys = [], []
    for i, line in enumerate(lines, start=1):
        parts = [p for p in line.replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ParseError(f"{path} line {i}: expected two columns, got {len(parts)}")
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
        except ValueError:
            if i == 1:
                continue  # header row
            raise ParseError(f"{path} line {i}: non-numeric value") from None
    return DataPair(xs, ys)


def _parse_inline(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"{flag}: expected comma-separated numbers") from None


def cmd_test(args) -> int:
    methods = check((m.strip() for m in args.methods.split(",") if m.strip()), TEST_METHODS)
    if args.input:
        pair = _read_pair_file(args.input)
    elif args.x and args.y:
        pair = DataPair(_parse_inline(args.x, "--x"), _parse_inline(args.y, "--y"))
    else:
        raise ParseError("provide either --input FILE or both --x and --y")
    scheme = _scheme_from_name(args.scheme, args.seed)
    rows = Rows(pair.x[None, :], pair.y, scheme, [scheme.seed], args.alpha, args.fast)
    res = rows.calibrated
    raise_first(res.errors)
    doc = {
        "n": pair.n,
        "r": float(res.r[0]),
        "p": float(res.p[0]),
        "r_dcal": float(res.r_dcal[0]),
        "p_dcal": float(res.p_dcal[0]),
        "sign_flip": bool(res.sign_flip[0]),
        "skipped_fast": bool(res.skipped[0]),
        "scheme": scheme.label,
        "alpha": args.alpha,
    }
    for method in methods:
        doc.update(pair_fields(method, rows))
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{key:>14}  {shown}")
    return EXIT_OK


def _permutation_plan(methods, permutations: int, seed: int) -> PermutationPlan:
    """The plan of a run; ``permutations`` is checked only when a method
    shuffles (the default plan is passed otherwise and never used)."""
    if shuffles(methods):
        return PermutationPlan(permutations, seed)
    return PermutationPlan()


def cmd_screen(args) -> int:
    corrections = tuple(c.strip() for c in args.corrections.split(",") if c.strip())
    matrix = load_matrix(
        args.matrix,
        delimiter=args.delimiter,
        orientation=args.orientation,
        missing_policy=args.missing_policy,
    )
    for warning in matrix.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    scheme = _scheme_from_name(args.scheme, args.seed)

    started = time.perf_counter()
    report = screen(
        matrix,
        args.target,
        alpha=args.alpha,
        scheme=scheme,
        corrections=corrections,
        fast=args.fast,
        plan=_permutation_plan(corrections, args.permutations, args.seed),
    )
    write_report(report, args.output, format=args.format)
    elapsed = time.perf_counter() - started
    print(f"screened {report.summary['tested']} features in {elapsed:.2f} s")
    for method, count in report.summary["significant"].items():
        print(f"  significant ({method}): {count}")
    print(f"report written to {args.output}")
    return EXIT_OK


_CONFIG_KEYS = {
    "design", "n", "seed", "repetitions", "alpha", "methods", "scheme", "schemes",
    "permutations", "m", "m_true", "m_null", "rho", "rho_list", "n_list",
    "kinds", "sd_list", "fraction", "magnitude",
}


def _parse_config(path: str) -> dict:
    cfg: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path} line {line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError(f"{path} line {line_no}: unknown config key {key!r}")
            cfg[key] = value.strip()
    if "design" not in cfg:
        raise ParseError(f"{path}: missing required key 'design'")
    return cfg


def _cfg(cfg: dict, key: str, kind, default=None):
    """Config value ``key`` read as ``kind`` (int, float, or list for a comma
    list of items); ``default`` when it is absent, an error without one."""
    if key not in cfg:
        if default is None:
            raise ParseError(f"config key {key!r} is required")
        return default
    if kind is list:
        items = [tok.strip() for tok in cfg[key].split(",") if tok.strip()]
        if not items:
            raise ParseError(f"config key {key!r}: expected at least one item")
        return items
    try:
        return kind(cfg[key])
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ParseError(f"config key {key!r}: expected {expected}") from None


def _battery_design(cfg: dict, design_name: str, seed: int) -> NullBattery | CorrelatedBattery:
    """The battery of a battery design; an oos_comparison with no planted
    columns (the default) is a null battery."""
    if design_name == "null_battery":
        return NullBattery(m=_cfg(cfg, "m", int), n=_cfg(cfg, "n", int), seed=seed)
    planted = design_name == "correlated_battery"
    design = CorrelatedBattery(
        m_true=_cfg(cfg, "m_true", int, None if planted else 0),
        m_null=_cfg(cfg, "m_null", int),
        rho=_cfg(cfg, "rho", float, None if planted else 0.0),
        n=_cfg(cfg, "n", int),
        seed=seed,
    )
    if not planted and design.m_true == 0:
        return NullBattery(m=design.m_null, n=design.n, seed=seed)
    return design


def _outlier_cells(cfg: dict, seed: int) -> list[Contaminated]:
    """Outlier-suite cells: one per sd in ``sd_list`` for high_variance, one
    per rho in ``rho_list`` for univariate and bivariate, in ``kinds`` order."""
    kinds = _cfg(cfg, "kinds", list)
    fraction = _cfg(cfg, "fraction", float, 0.1)
    magnitude = _cfg(cfg, "magnitude", float, 8.0)
    n = _cfg(cfg, "n", int)
    cells: list[Contaminated] = []
    for kind in kinds:
        if kind == "high_variance":
            rho = _cfg(cfg, "rho", float, 0.5)
            for sd in _cfg(cfg, "sd_list", list, ["2", "3", "5"]):
                cells.append(
                    Contaminated(
                        rho=rho,
                        outlier=OutlierKind("high_variance", sd_outlier=float(sd)),
                        fraction=fraction, n=n, seed=seed,
                    )
                )
        elif kind in ("univariate", "bivariate"):
            for rho in _cfg(cfg, "rho_list", list):
                cells.append(
                    Contaminated(
                        rho=float(rho),
                        outlier=OutlierKind(kind, magnitude=magnitude),
                        fraction=fraction, n=n, seed=seed,
                    )
                )
        else:
            raise ParseError(f"config key 'kinds': unknown outlier kind {kind!r}")
    return cells


def cmd_simulate(args) -> int:
    cfg = _parse_config(args.config)
    design_name = cfg["design"]
    seed = args.seed if args.seed is not None else _cfg(cfg, "seed", int, 0)
    alpha = args.alpha if args.alpha is not None else _cfg(cfg, "alpha", float, 0.05)
    repetitions = (
        args.repetitions if args.repetitions is not None else _cfg(cfg, "repetitions", int, 1)
    )

    if design_name in ("null_battery", "correlated_battery", "oos_comparison"):
        design = _battery_design(cfg, design_name, seed)
        if design_name == "oos_comparison":
            schemes = [
                _scheme_from_name(name, seed)
                for name in _cfg(cfg, "schemes", list, list(SCHEME_NAMES))
            ]
            report = run_oos_comparison(design, schemes, alpha=alpha, repetitions=repetitions)
        else:
            methods = _cfg(cfg, "methods", list, ["uncorrected", "holm", "bh", "dcal"])
            scheme = _scheme_from_name(cfg.get("scheme", "loo"), seed)
            report = run_battery_experiment(
                design, methods, alpha=alpha, repetitions=repetitions, scheme=scheme,
                plan=_permutation_plan(methods, _cfg(cfg, "permutations", int, 999), seed),
            )
    elif design_name == "effect_grid":
        design = EffectGrid(
            rho_list=tuple(float(v) for v in _cfg(cfg, "rho_list", list)),
            n_list=tuple(int(v) for v in _cfg(cfg, "n_list", list)),
            seed=seed,
        )
        methods = _cfg(cfg, "methods", list, list(PAIR_METHODS))
        report = run_effect_grid(design, methods, alpha=alpha, repetitions=repetitions)
    elif design_name == "outlier_suite":
        cells = _outlier_cells(cfg, seed)
        methods = _cfg(cfg, "methods", list, list(OUTLIER_METHODS))
        report = run_outlier_suite(cells, methods, alpha=alpha, repetitions=repetitions)
    else:
        raise ParseError(f"config key 'design': unknown design {design_name!r}")

    base = args.output
    csv_path = base if base.endswith(".csv") else base + ".csv"
    json_path = (base[: -len(".csv")] if base.endswith(".csv") else base) + ".json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    print(f"{len(report.records)} records written to {csv_path} and {json_path}")
    return EXIT_OK


def _anscombe_rows():
    ref = resources.files("dcal.fixtures").joinpath("anscombe.csv")
    datasets: dict[str, tuple[list[float], list[float]]] = {}
    for line in ref.read_text(encoding="utf-8").splitlines()[1:]:
        name, xs, ys = line.split(",")
        datasets.setdefault(name, ([], []))
        datasets[name][0].append(float(xs))
        datasets[name][1].append(float(ys))
    return datasets


def cmd_anscombe(args) -> int:
    datasets = _anscombe_rows()
    names = sorted(datasets)
    X, Y = zip(*(datasets[name] for name in names))
    scheme = _scheme_from_name(args.scheme, args.seed)
    rows = Rows(X, Y, scheme, [scheme.seed] * len(names))
    scored, _ = score_rows(rows, QUARTET_METHODS)
    results = {name: quartet_row(scored, rows, i) for i, name in enumerate(names)}
    if args.json:
        print(json.dumps(results, indent=2))
        return EXIT_OK

    def cell(value) -> str:
        return "NA".rjust(12) if value is None else f"{value:12.4f}"

    estimated = ("cor", "dcal", "skipped")
    print("r values")
    print("dataset" + "".join(f"{m:>13}" for m in estimated))
    for name, row in results.items():
        flip = "  (flip)" if row["dcal"]["flip"] else ""
        print(f"{name:>7}" + "".join(cell(row[m]["r"]) for m in estimated) + flip)
    print()
    print("p values")
    print("dataset" + "".join(f"{m:>13}" for m in QUARTET_METHODS))
    for name, row in results.items():
        print(f"{name:>7}" + "".join(cell(row[m]["p"]) for m in QUARTET_METHODS))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcal",
        description="Calibrated correlation testing, screening, and simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the calibrated test on one pair")
    _add_common(p_test, with_alpha=True, with_json=True)
    p_test.add_argument("--input", help="two-column file (x, y)")
    p_test.add_argument("--x", help="inline comma-separated x values")
    p_test.add_argument("--y", help="inline comma-separated y values")
    p_test.add_argument("--fast", action="store_true", help="skip OOS work when p >= alpha")
    p_test.add_argument(
        "--methods", default="",
        help="extra methods: comma list from sellke,bickel,ppbf,skipped",
    )
    p_test.set_defaults(func=cmd_test)

    p_screen = sub.add_parser("screen", help="screen a feature matrix against a target")
    _add_common(p_screen, with_alpha=True, with_json=False)
    p_screen.add_argument("--matrix", required=True, help="feature matrix CSV")
    p_screen.add_argument("--target", required=True, help="target feature name")
    p_screen.add_argument(
        "--corrections", default="holm,bh",
        help=f"comma list from {','.join(CORRECTIONS)}",
    )
    p_screen.add_argument("--output", required=True, help="report path")
    p_screen.add_argument("--format", choices=("csv", "json"), default="csv")
    p_screen.add_argument("--delimiter", default=",")
    p_screen.add_argument(
        "--orientation", choices=("features_in_rows", "samples_in_rows"),
        default="features_in_rows",
    )
    p_screen.add_argument(
        "--missing-policy", choices=("drop_feature", "fail"), default="drop_feature",
    )
    p_screen.add_argument("--permutations", type=int, default=999)
    fast_group = p_screen.add_mutually_exclusive_group()
    fast_group.add_argument("--fast", dest="fast", action="store_true")
    fast_group.add_argument("--no-fast", dest="fast", action="store_false")
    p_screen.set_defaults(fast=True, func=cmd_screen)

    p_sim = sub.add_parser("simulate", help="run a configured simulation experiment")
    p_sim.add_argument("--config", required=True, help="key = value design file")
    p_sim.add_argument("--output", required=True, help="report base path (.csv/.json)")
    p_sim.add_argument("--repetitions", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    p_sim.set_defaults(func=cmd_simulate)

    p_ans = sub.add_parser("anscombe", help="print the bundled quartet analysis")
    _add_common(p_ans, with_alpha=False, with_json=True)
    p_ans.set_defaults(func=cmd_anscombe)

    return parser


def _join_inline_values(argv: list[str]) -> list[str]:
    """``--x V`` and ``--y V`` as ``--x=V`` and ``--y=V``, so that a value
    that starts with '-', such as ``-1,2,3``, is not taken for an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in ("--x", "--y") else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_inline_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except TargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TARGET
    except (ParseError, DcalError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
