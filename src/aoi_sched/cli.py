"""Command-line front end.

Subcommands: `simulate` (Monte Carlo over a parameter grid), `solve` (exact
values and the optimality-gap report for one instance), `sweep` (one
figure-ready CSV per sweep axis), `verify` (numeric self-check suite).

Exit codes: 0 success, 1 config/usage error (I/O problems included),
2 verification failure, 3 a resource cap: the state cap, memory, or a grid
worker process that died.
AOI_SCHED_THREADS caps grid-point parallelism: unset = sequential, 0 = one
worker per CPU.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from datetime import datetime, timezone

from .config import (
    AXES,
    FIELDS,
    ConfigError,
    GridPoint,
    SweepConfig,
    base_point,
    grid_point_seed,
    grid_points,
    load_config,
    resolve_initial_state,
)
from .dp import (
    StateSpaceTooLarge,
    dump_table,
    evaluate_policy,
    gap_report,
    solve_optimal,
)
from .model import FAULT_MODES, format_state
from .policies import make_policy
from .simulate import (  # run_experiment stays importable from here
    compare_policies,
    run_experiment,
)
from .verify import SCALING_P_GRID, VALUE_TOL, run_suite

# a policy's statistics at a grid point; a sweep gives each policy one column of each
STATS = ("mean_total_cost", "stderr", "mean_sum_aaoi")

SIM_COLUMNS = (
    *(axis.column for axis in AXES), "policy", "replications",
    *STATS, "seed", "improvement_of_first_pct",
)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as config errors do; exit 2 means a failed check.
    A subcommand's parser adds its arguments, by its fill hook, the first
    time it parses or formats help, so a call builds only the one it runs."""

    commands: dict  # subcommand name -> its parser, set by build_parser
    _fill = None  # adds this parser's arguments; cleared once it has run

    def _fill_once(self):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def format_usage(self):
        self._fill_once()
        return super().format_usage()

    def format_help(self):
        self._fill_once()
        return super().format_help()

    def parse_known_args(self, args=None, namespace=None):
        self._fill_once()
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        # an unknown flag is reported with the usage line of its subcommand
        ns, extra = self.parse_known_args(args, namespace)
        if extra:
            self.commands[ns.command].error(f"unrecognized arguments: {' '.join(extra)}")
        return ns


def _add_arguments(name: str, sp: argparse.ArgumentParser) -> None:
    """Give sp, the parser of subcommand name, --config and the flag of each
    field that the subcommand reads."""
    sp.add_argument("--config", metavar="PATH", help="INI config file")
    for f in FIELDS:
        if name not in f.commands:
            continue
        if f.const is None:
            sp.add_argument(f.flag, dest=f.name, nargs=f.nargs, metavar=f.key.upper(),
                            help=f.help)
        else:
            sp.add_argument(f.flag, dest=f.name, action="store_const", const=f.const,
                            help=f.help)
    if name == "solve":
        sp.add_argument("--dump-tables", metavar="PATH",
                        help="also write the optimal value table as text")
    if name == "verify":
        sp.add_argument("--inject-fault", nargs="?", const="age-drift",
                        choices=FAULT_MODES[1:],
                        help="negative control: corrupt the transition law "
                             "and confirm the suite catches it")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="aoi-sched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "Monte Carlo runs over the configured grid"),
        ("solve", "exact DP values and gap report for one instance"),
        ("sweep", "one-dimensional sweeps, one CSV per axis"),
        ("verify", "run the numeric self-check suite"),
    ):
        # no prefix matching: a field a subcommand does not read must not
        # reach a longer flag it does, as --p would reach --p-grid
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp._fill = functools.partial(_add_arguments, name)
    parser.commands = sub.choices
    return parser


def resolve_config(args: argparse.Namespace) -> SweepConfig:
    """File config (if any) with the subcommand's CLI flags layered on top;
    each flag's text goes through the parser of its INI key."""
    cfg = load_config(args.config) if args.config else SweepConfig()
    for f in FIELDS:
        value = getattr(args, f.name, None)
        if value is not None:
            raw = " ".join(value) if f.nargs else value
            f.apply(cfg, raw, f"{f.flag} {raw!r}")
    return cfg


class WorkerDied(RuntimeError):
    """A grid worker process ended abruptly, as the out-of-memory killer ends one."""


def _thread_count() -> int:
    raw = os.environ.get("AOI_SCHED_THREADS")
    if raw is None:
        return 1
    try:
        v = int(raw)
    except ValueError:
        raise ConfigError(f"AOI_SCHED_THREADS={raw!r} is not an integer") from None
    if v < 0:
        raise ConfigError(f"AOI_SCHED_THREADS must be >= 0, got {v}")
    return (os.cpu_count() or 1) if v == 0 else v


def _run_points(cfg: SweepConfig, points: list[GridPoint]) -> list[list[dict]]:
    workers = _thread_count()
    if workers <= 1 or len(points) <= 1:
        return [_run_point(cfg, pt) for pt in points]
    # the pool's stack (multiprocessing, sockets, logging ...) loads only here
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            return list(pool.map(_run_point, [cfg] * len(points), points))  # order-preserving
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a grid worker process died, perhaps killed for memory: {exc}") from exc


def _run_point(cfg: SweepConfig, point: GridPoint) -> list[dict]:
    """Worker for one grid point: one row per listed policy, from one
    comparison of them all (a lone policy is compared with itself alone);
    module-level so process pools can pickle it."""
    params = point.params()
    x0 = resolve_initial_state(cfg.initial_state, params.n_sources)
    seed = grid_point_seed(cfg.base_seed, point)
    table = None
    if "optimal" in cfg.policies:
        table = solve_optimal(params, x0, cap=cfg.state_cap)
    policies = [make_policy(name, params, table=table) for name in cfg.policies]
    comp = compare_policies(policies, params, x0, cfg.replications, seed)
    cells = {axis.column: value for axis, value in zip(AXES, point)}
    rows = []
    for summary, imp in zip(comp.summaries, comp.improvements_vs_first):
        rows.append({
            **cells,
            "policy": summary.policy,
            "replications": cfg.replications,
            "mean_total_cost": summary.mean_total_cost,
            "stderr": summary.stderr_total_cost,
            "mean_sum_aaoi": summary.mean_sum_aaoi,
            "seed": seed,
            "improvement_of_first_pct": imp,
        })
    return rows


def _checked(cfg: SweepConfig, points: list[GridPoint]) -> list[GridPoint]:
    """The points, each validated, so that a caller can check all before running any."""
    for pt in points:
        resolve_initial_state(cfg.initial_state, pt.params().n_sources)
    return points


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _render_csv(cfg: SweepConfig, columns, rows, header_comment: str | None = None) -> str:
    buf = io.StringIO()
    if cfg.timestamp:
        buf.write(f"# generated {_now_iso()}\n")
    if header_comment:
        buf.write(header_comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(row[c]) for c in columns])
    return buf.getvalue()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(cfg: SweepConfig, body: dict) -> None:
    """Write a JSON data file: "generated" first unless suppressed, then body."""
    header = {"generated": _now_iso()} if cfg.timestamp else {}
    _write_text(cfg.out, json.dumps({**header, **body}, indent=2) + "\n")


def cmd_simulate(cfg: SweepConfig) -> None:
    results = _run_points(cfg, _checked(cfg, grid_points(cfg)))
    rows = [row for point_rows in results for row in point_rows]
    if cfg.fmt == "json":
        _write_json(cfg, {"rows": rows})
    else:
        _write_text(cfg.out, _render_csv(cfg, SIM_COLUMNS, rows))


def cmd_solve(cfg: SweepConfig, dump_path: str | None = None) -> None:
    params = base_point(cfg).params()
    x0 = resolve_initial_state(cfg.initial_state, params.n_sources)
    policies = {name: make_policy(name, params) for name in ("delta", *cfg.policies)
                if name != "optimal"}
    # the index rules ride the optimal pass; rr-strict idles channels, so it runs its own
    opt = solve_optimal(params, x0, cap=cfg.state_cap,
                        riders=[policy for policy in policies.values() if policy.rule is not None])
    values = {table.policy_name: table.root_value() for table in opt.riders}
    values.update((name, evaluate_policy(policy, params, x0, cap=cfg.state_cap).root_value())
                  for name, policy in policies.items() if name not in values)
    values["optimal"] = opt.root_value()
    gap = gap_report(params, x0, values["optimal"], values["delta"])
    if dump_path:
        dump_table(opt, dump_path)
    _write_json(cfg, {
        "N": params.n_sources,
        "d": params.n_channels,
        "p": params.p,
        "T": params.horizon,
        "q": list(params.q),
        "x0": format_state(x0),
        "v_star": gap.v_star,
        "v_delta": gap.v_delta,
        "policy_values": {name: values[name] for name in cfg.policies},
        "diff": gap.diff,
        "p_pd": gap.p_pd,
        "z": gap.z,
        "bound": gap.bound,
        "bound_holds": bool(gap.diff <= gap.bound + VALUE_TOL),
        "bound_constants": gap.constants._asdict() if gap.constants else None,
        "states_total": sum(len(stage) for stage in opt.stages),
    })


def cmd_sweep(cfg: SweepConfig) -> None:
    if cfg.out is None or cfg.out == "-":
        raise ConfigError("sweep derives one file per axis; give a real --out path")
    axes = [axis for axis in AXES if getattr(cfg, axis.grid)]
    if not axes:
        raise ConfigError("sweep needs at least one grid ([sweep] section or --*-grid)")
    base = base_point(cfg)
    root, ext = os.path.splitext(cfg.out)
    axis_points = [
        _checked(cfg, [base._replace(**{axis.field: v}) for v in getattr(cfg, axis.grid)])
        for axis in axes
    ]
    first = cfg.policies[0]
    stat_columns = [f"{stat}_{name}" for name in cfg.policies for stat in STATS]
    gain_columns = [f"improvement_of_{first}_over_{name}_pct" for name in cfg.policies[1:]]
    for axis, points in zip(axes, axis_points):
        results = _run_points(cfg, points)
        rows = []
        for point, point_rows in zip(points, results):
            row: dict = {axis.column: getattr(point, axis.field)}
            # a point's rows come in cfg.policies order, one per listed name
            for name, r in zip(cfg.policies, point_rows):
                row.update((f"{stat}_{name}", r[stat]) for stat in STATS)
            for gain, r in zip(gain_columns, point_rows[1:]):
                row[gain] = r["improvement_of_first_pct"]
            rows.append(row)
        fixed = (
            "# fixed: "
            + " ".join(f"{held.label}={_fmt_cell(getattr(base, held.field))}"
                       for held in AXES if held is not axis)
            + f" replications={cfg.replications} base_seed={cfg.base_seed}"
        )
        _write_text(f"{root}_{axis.label}{ext or '.csv'}",
                    _render_csv(cfg, [axis.column, *stat_columns, *gain_columns], rows,
                                header_comment=fixed))


def cmd_verify(cfg: SweepConfig, inject_fault: str | None) -> int:
    if cfg.base_seed < -1:
        raise ConfigError(
            f"seed {cfg.base_seed}: verify draws from seeds seed+1..seed+3, "
            "which must be >= 0"
        )
    checks = run_suite(seed=cfg.base_seed, scaling_p_grid=cfg.p_grid or SCALING_P_GRID,
                       fault=inject_fault)
    failed = [c.name for c in checks if c.failed]
    _write_json(cfg, {
        "fault_mode": inject_fault,
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail, "measured": c.measured}
            for c in checks
        ],
        "failed": failed,
    })
    return 2 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "simulate":
            cmd_simulate(cfg)
        elif args.command == "solve":
            cmd_solve(cfg, args.dump_tables)
        elif args.command == "sweep":
            cmd_sweep(cfg)
        elif args.command == "verify":
            return cmd_verify(cfg, args.inject_fault)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (StateSpaceTooLarge, WorkerDied) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = str(exc) or "an allocation failed"
        print(f"resource cap: out of memory: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
