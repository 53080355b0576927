"""Command-line behavior: outputs, exit codes, overrides, determinism."""

import csv
import hashlib
import json
import os
from pathlib import Path

import pytest

from aoi_sched import cli, simulate, verify
from aoi_sched.policies import StateNotInTable

from .conftest import run_cli
from .test_dp_grid import counting

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMANDS = ("simulate", "solve", "sweep", "verify")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not (r and r[0].startswith("#"))]
    return rows[0], rows[1:]


def test_simulate_row_count_and_echo(tmp_path):
    out = tmp_path / "grid.csv"
    res = run_cli([
        "simulate", "--p-grid", "0.35", "0.65", "--n-grid", "5", "30",
        "--horizon", "20", "--replications", "4", "--q", "uniform:0.5",
        "--policies", "delta,pi,rr", "--seed", "3",
        "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(out)
    assert header[:7] == ["N", "d", "p", "T", "q_spec", "policy", "replications"]
    assert len(rows) == 12  # 2 p-values x 2 source counts x 3 policies
    assert {r[4] for r in rows} == {"uniform:0.5"}
    assert [r[5] for r in rows[:3]] == ["delta", "pi", "rr"]
    # baseline improvement column is zero on delta rows
    for r in rows:
        if r[5] == "delta":
            assert float(r[-1]) == 0.0


def test_simulate_json_format(tmp_path):
    out = tmp_path / "grid.json"
    res = run_cli([
        "simulate", "--n-sources", "2", "--horizon", "10", "--replications", "3",
        "--policies", "delta,pi", "--format", "json",
        "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    obj = json.loads(out.read_text())
    assert "generated" not in obj
    assert len(obj["rows"]) == 2
    assert obj["rows"][0]["policy"] == "delta"


def test_config_file_with_flag_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\nn_sources = 2\nhorizon = 10\n"
        "[run]\npolicies = delta, pi\nreplications = 3\n"
    )
    out = tmp_path / "o.csv"
    res = run_cli([
        "simulate", "--config", str(ini), "--replications", "5",
        "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out)
    assert {r[6] for r in rows} == {"5"}  # flag beat the file value


def test_solve_report_fields(tmp_path):
    out = tmp_path / "solve.json"
    res = run_cli([
        "solve", "--n-sources", "2", "--p", "0.5", "--q", "0.7,0.3",
        "--horizon", "4", "--policies", "delta,pi",
        "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["v_star"] <= rep["v_delta"]
    assert rep["diff"] == rep["v_delta"] - rep["v_star"]
    assert rep["bound_holds"] is True
    assert set(rep["policy_values"]) == {"delta", "pi"}
    assert rep["x0"] == "g=[0,0];h=[1,1]"


def test_solve_degenerate_p_reports_null_z(tmp_path):
    out = tmp_path / "solve.json"
    res = run_cli([
        "solve", "--n-sources", "2", "--p", "0", "--horizon", "5",
        "--policies", "delta", "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["diff"] == 0.0 and rep["z"] is None and rep["bound"] == 0.0


def test_solve_underflowing_p_pd_reports_null_z(tmp_path):
    # p * p_d underflows to 0.0 although p > 0, so z is undefined there too
    out = tmp_path / "solve.json"
    res = run_cli([
        "solve", "--n-sources", "2", "--n-channels", "2", "--p", "1e-200",
        "--horizon", "4", "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["p"] == 1e-200 and rep["p_pd"] == 0.0 and rep["z"] is None


def test_solve_dump_tables(tmp_path):
    dump = tmp_path / "table.txt"
    res = run_cli([
        "solve", "--n-sources", "1", "--p", "0.5", "--q", "uniform:0.5",
        "--horizon", "3", "--policies", "delta", "--dump-tables", str(dump),
        "--no-header-timestamp", "--out", str(tmp_path / "s.json"),
    ])
    assert res.returncode == 0, res.stderr
    assert dump.read_text().startswith("# value table policy=optimal horizon=3")


# the exact_gap benchmark workload's solve argv, and the sha256 of its optimal
# table's dump, frozen from the solver that stored an action index per row
GAP_ARGV = ["solve", "--no-header-timestamp", "--n-sources", "2", "--n-channels", "1",
            "--p", "0.6", "--q", "uniform:0.5", "--horizon", "7", "--policies", "delta,pi,rr"]
GAP_DUMP_SHA256 = "01ec7f9ac3c6c7620bf7ffad8376aa1d6a3050fa0d1bf3539088f7e7cd2cdbf8"


def test_solve_dump_tables_bytes_are_frozen(tmp_path):
    dump = tmp_path / "gap.dump"
    argv = GAP_ARGV + ["--out", str(tmp_path / "gap.json"), "--dump-tables", str(dump)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == GAP_DUMP_SHA256


# sha256 of the exact_gap instance's solve report with --policies optimal,delta,
# frozen when solve still re-evaluated the optimal policy on its own table
OPT_DELTA_SHA256 = "b7bb2c24171f78e856c383cfa2053f64d2a168543f65ed05ed9e05236dc91902"


def test_solve_reports_optimal_without_reevaluating_it(tmp_path, monkeypatch):
    evaluated, evaluate = [], cli.evaluate_policy
    ridden, solve = [], cli.solve_optimal

    def record(policy, *args, **kwargs):
        evaluated.append(policy.name)
        return evaluate(policy, *args, **kwargs)

    def record_riders(*args, riders=(), **kwargs):
        ridden.append([policy.name for policy in riders])
        return solve(*args, riders=riders, **kwargs)

    monkeypatch.setattr(cli, "evaluate_policy", record)
    monkeypatch.setattr(cli, "solve_optimal", record_riders)
    out = tmp_path / "gap.json"
    argv = GAP_ARGV[:-1] + ["optimal,delta", "--out", str(out)]
    assert cli.main(argv) == 0
    # delta rides the one optimal solve, and optimal is its root value: no
    # pass of their own
    assert (ridden, evaluated) == ([["delta"]], [])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OPT_DELTA_SHA256


@pytest.mark.parametrize("policies, passes", [("delta,pi,rr", 1), ("delta,pi,rr,rr-strict", 2)])
def test_solve_runs_one_pass_unless_a_policy_idles(tmp_path, monkeypatch, policies, passes):
    """The index rules ride the optimal solve's one forward and one backward
    pass; rr-strict, which can idle a channel, adds a pass of each."""
    calls = counting(monkeypatch, "_forward", "_backward")
    argv = GAP_ARGV[:-1] + [policies, "--out", str(tmp_path / "gap.json")]
    assert cli.main(argv) == 0
    assert calls == {"_forward": passes, "_backward": passes}


def test_state_cap_counts_the_passes_that_run(tmp_path):
    """The exact_gap instance has 2404 states and rr 3152 (state, cursor)
    pairs; rr rides the optimal pass, so a cap between the two stops
    nothing, and the report keeps its bytes."""
    out = tmp_path / "gap.json"
    argv = GAP_ARGV[:-1] + ["rr", "--out", str(out)]
    assert cli.main(argv) == 0
    capped = tmp_path / "capped.json"
    assert cli.main(argv[:-1] + [str(capped), "--state-cap", "2404"]) == 0
    assert capped.read_bytes() == out.read_bytes()
    assert cli.main(argv[:-1] + [str(capped), "--state-cap", "2403"]) == 3


def test_sweep_one_file_per_axis(tmp_path):
    out = tmp_path / "sw.csv"
    res = run_cli([
        "sweep", "--p-grid", "0.3", "0.7", "--n-grid", "2", "3",
        "--n-sources", "2", "--horizon", "15", "--replications", "3",
        "--policies", "delta,pi", "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    p_header, p_rows = read_csv(tmp_path / "sw_p.csv")
    n_header, n_rows = read_csv(tmp_path / "sw_N.csv")
    assert p_header[0] == "p" and [r[0] for r in p_rows] == ["0.3", "0.7"]
    assert n_header[0] == "N" and [r[0] for r in n_rows] == ["2", "3"]
    assert p_header[-1] == "improvement_of_delta_over_pi_pct"
    assert "mean_total_cost_delta" in p_header and "stderr_pi" in p_header


def test_sweep_strict_round_robin_columns(tmp_path):
    out = tmp_path / "sw.csv"
    res = run_cli([
        "sweep", "--p-grid", "0.3", "0.7", "--n-sources", "2", "--horizon", "15",
        "--replications", "3", "--policies", "delta,rr-strict",
        "--no-header-timestamp", "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "sw_p.csv")
    assert header == [
        "p", "mean_total_cost_delta", "stderr_delta", "mean_sum_aaoi_delta",
        "mean_total_cost_rr-strict", "stderr_rr-strict", "mean_sum_aaoi_rr-strict",
        "improvement_of_delta_over_rr-strict_pct",
    ]
    assert len(rows) == 2


LONE_ARGV = ["--n-sources", "2", "--p", "0.6", "--horizon", "6", "--replications", "5",
             "--seed", "9", "--no-header-timestamp"]


def csv_dicts(path):
    header, rows = read_csv(path)
    return [dict(zip(header, r)) for r in rows]


@pytest.mark.parametrize("name", ["rr-strict", "optimal"])
def test_lone_policy_simulate_row_is_its_comparison_row(tmp_path, name):
    """A one-policy simulate row is the policy's row of a two-policy run at
    the same seed, but for an improvement over itself of 0."""
    for policies in (name, f"delta,{name}"):
        assert cli.main(["simulate", *LONE_ARGV, "--policies", policies,
                         "--out", str(tmp_path / f"{policies}.csv")]) == 0
    [lone] = csv_dicts(tmp_path / f"{name}.csv")
    _, pair = csv_dicts(tmp_path / f"delta,{name}.csv")
    assert lone["policy"] == name and lone["improvement_of_first_pct"] == "0"
    assert pair["improvement_of_first_pct"] != "0"
    assert lone == {**pair, "improvement_of_first_pct": "0"}


@pytest.mark.parametrize("name", ["rr-strict", "optimal"])
def test_lone_policy_sweep_column_is_its_comparison_column(tmp_path, name):
    """A one-policy sweep has the policy's three columns, with the values of
    its columns in a two-policy sweep at the same seed, and no improvement."""
    for policies in (name, f"delta,{name}"):
        assert cli.main(["sweep", *LONE_ARGV, "--p-grid", "0.3", "0.7",
                         "--policies", policies,
                         "--out", str(tmp_path / f"{policies}.csv")]) == 0
    lone = csv_dicts(tmp_path / f"{name}_p.csv")
    pair = csv_dicts(tmp_path / f"delta,{name}_p.csv")
    columns = ["p", f"mean_total_cost_{name}", f"stderr_{name}", f"mean_sum_aaoi_{name}"]
    assert list(lone[0]) == columns
    assert lone == [{c: row[c] for c in columns} for row in pair]


def test_sweep_usage_errors(tmp_path):
    res = run_cli(["sweep", "--out", str(tmp_path / "x.csv")])
    assert res.returncode == 1 and "grid" in res.stderr
    res = run_cli(["sweep", "--p-grid", "0.5", "--replications", "3"])
    assert res.returncode == 1 and "--out" in res.stderr
    res = run_cli([
        "sweep", "--p-grid", "0.5", "--format", "json",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert res.returncode == 1 and "--format" in res.stderr


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--n-sources", "2", "--horizon", "4", "--p-grid", "0.3", "0.7",
      "--replications", "9", "--seed", "3", "--format", "csv"], "--p-grid"),
    (["verify", "--n-sources", "9", "--horizon", "3", "--replications", "2"], "--n-sources"),
])
def test_flag_the_subcommand_ignores_is_usage_error(tmp_path, argv, flag):
    res = run_cli([*argv, "--out", str(tmp_path / "o.json")])
    assert res.returncode == 1 and "usage:" in res.stderr and flag in res.stderr
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--p-grid", "0.5", "--format", "json"], "--format json"),
    (["verify", "--p", "0.3"], "--p 0.3"),
])
def test_unknown_flag_reports_the_subcommand_usage(tmp_path, capsys, argv, flag):
    """The usage line printed is the subcommand's, listing the flags it takes."""
    name = argv[0]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and not (tmp_path / "o").exists()
    assert err.startswith(f"usage: aoi-sched {name} [-h] [--config PATH]")
    assert f"aoi-sched {name}: error: unrecognized arguments: {flag}" in err


def test_parsing_fills_only_the_subcommand_it_runs():
    """A subcommand's parser adds its arguments only when it is used; a
    parser left unfilled holds nothing but its -h."""
    parser = cli.build_parser()
    assert parser.parse_args(["simulate", "--horizon", "5"]).horizon == "5"
    filled = {name: len(sp._actions) > 1 for name, sp in parser.commands.items()}
    assert filled == {"simulate": True, "solve": False, "sweep": False, "verify": False}


@pytest.mark.parametrize("name", COMMANDS)
def test_subcommand_help_is_frozen(monkeypatch, capsys, name):
    """--help prints the frozen text at 80 columns, and so does formatting
    the help of a subcommand's parser that has not parsed yet."""
    monkeypatch.setenv("COLUMNS", "80")
    golden = (GOLDEN_DIR / f"help_{name}.txt").read_text()
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == golden
    assert cli.build_parser().commands[name].format_help() == golden


@pytest.mark.parametrize("name", COMMANDS)
def test_unknown_flag_exits_with_each_subcommands_usage(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith(f"usage: aoi-sched {name} [-h] [--config PATH]")
    assert err.endswith(f"aoi-sched {name}: error: unrecognized arguments: --bogus\n")


def test_verify_ignores_model_p_of_a_shared_config(tmp_path):
    ini = tmp_path / "shared.ini"
    ini.write_text("[model]\np = 0.65\n")
    out = tmp_path / "verify.json"
    assert cli.main([
        "verify", "--config", str(ini), "--no-header-timestamp", "--out", str(out),
    ]) == 0
    scaling = {c["name"]: c for c in json.loads(out.read_text())["checks"]}[
        "gap_quadratic_scaling"]
    assert scaling["status"] == "pass"
    assert scaling["measured"]["p_grid"] == [0.02, 0.04, 0.08, 0.16]


def test_bad_grid_point_fails_before_any_run(tmp_path):
    # the N=0 point sits on the second axis; the p axis must not be written first
    res = run_cli([
        "sweep", "--p-grid", "0.3", "0.7", "--n-grid", "2", "0",
        "--horizon", "5", "--replications", "2", "--out", str(tmp_path / "sw.csv"),
    ])
    assert res.returncode == 1
    assert res.stderr.startswith("config error:") and "n_sources" in res.stderr
    assert not (tmp_path / "sw_p.csv").exists()


def test_exit_codes(tmp_path):
    assert run_cli(["simulate", "--config", "/does/not/exist.ini"]).returncode == 1
    assert run_cli(["solve", "--p", "1.5"]).returncode == 1
    assert run_cli(["simulate", "--policies", "delta,fifo"]).returncode == 1
    res = run_cli(["simulate", "--n-sources", "abc"])
    assert res.returncode == 1 and "config error: --n-sources 'abc'" in res.stderr
    res = run_cli(["sweep", "--p-grid", "0.3", "--policies", "delta,delta",
                   "--out", str(tmp_path / "x.csv")])
    assert res.returncode == 1 and "config error: --policies" in res.stderr
    assert "'delta' listed twice" in res.stderr
    res = run_cli(["simulate", "--policies", ","])
    assert res.returncode == 1 and "empty list" in res.stderr
    # usage errors exit 1 too; 2 is kept for a failed verification check.
    # Flags are never abbreviated: --p would otherwise reach --p-grid.
    for argv in (["solve", "--bogus"], ["verify", "--inject-fault", "nope"],
                 ["simulate", "--rr-mode", "strict"], [],
                 ["verify", "--p", "0.3"], ["simulate", "--rep", "3"]):
        res = run_cli(argv)
        assert res.returncode == 1 and "usage:" in res.stderr, argv
    assert run_cli(["solve", "--help"]).returncode == 0
    res = run_cli([
        "solve", "--n-sources", "6", "--n-channels", "2", "--horizon", "12",
        "--state-cap", "1000",
    ])
    assert res.returncode == 3


def test_single_replication_is_config_error():
    res = run_cli(["simulate", "--n-sources", "2", "--horizon", "5", "--replications", "1"])
    assert res.returncode == 1
    assert res.stderr.startswith("config error:") and "replications" in res.stderr


@pytest.mark.parametrize("error", [ValueError, StateNotInTable])
def test_internal_value_error_is_not_a_config_error(monkeypatch, capsys, tmp_path, error):
    # an engine fault (numpy raises ValueError on shape bugs, a table lookup
    # raises the KeyError StateNotInTable) must surface as a bug, whether the
    # block runs one policy or a fused comparison
    def broken(*args, **kwargs):
        raise error("operands could not be broadcast together")

    monkeypatch.setattr(simulate, "_block_totals", broken)
    for policies in ("delta", "delta,pi"):
        with pytest.raises(error, match="broadcast"):
            cli.main([
                "simulate", "--n-sources", "2", "--horizon", "5", "--replications", "2",
                "--policies", policies, "--out", str(tmp_path / "o.csv"),
            ])
        assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("site", ["draw", "kernel"])
def test_internal_value_error_in_verify_is_not_a_config_error(monkeypatch, capsys, tmp_path,
                                                              site):
    # a ValueError inside the randomized battery is a bug, whether the batch
    # validation rejects a broken draw (every random() 1.5) or the kernel
    # raises: it surfaces as the exception, never as a config error
    if site == "draw":
        monkeypatch.setattr(verify._Pcg64Draws, "random", lambda self: 1.5)
        match = "must lie in"
    else:
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(verify, "transition_law", broken)
        match = "broadcast"
    with pytest.raises(ValueError, match=match):
        cli.main(["verify", "--no-header-timestamp", "--out", str(tmp_path / "v.json")])
    assert "config error" not in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_out_of_memory_is_a_resource_cap(monkeypatch, capsys, tmp_path):
    # a failed allocation is a resource cap (exit 3), like the state cap,
    # whether the solver or a block engine path runs out
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.53 GiB")

    monkeypatch.setattr(cli, "solve_optimal", exhausted)
    monkeypatch.setattr(simulate, "_block_totals", exhausted)
    small = ["--n-sources", "2", "--horizon", "5"]
    for argv in (["solve", *small, "--policies", "delta"],
                 ["simulate", *small, "--replications", "2", "--policies", "delta"],
                 ["simulate", *small, "--replications", "2", "--policies", "delta,pi"]):
        assert cli.main([*argv, "--out", str(tmp_path / "o.txt")]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("resource cap: out of memory: Unable to allocate"), argv
        assert "config error" not in err


def test_dead_grid_worker_is_a_resource_cap(monkeypatch, capsys, tmp_path):
    # a worker the out-of-memory killer ends breaks the pool: exit 3, not a
    # traceback with the config-error code; the patched map starts no process
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def broken(*args, **kwargs):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(ProcessPoolExecutor, "map", broken)
    monkeypatch.setenv("AOI_SCHED_THREADS", "2")
    rc = cli.main(["simulate", "--n-sources", "2", "--horizon", "5", "--replications", "2",
                   "--policies", "delta", "--p-grid", "0.3", "0.7",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: a grid worker process died"), err
    assert "terminated abruptly" in err


def test_byte_determinism_and_timestamp(tmp_path):
    args = [
        "simulate", "--n-sources", "2", "--horizon", "15", "--replications", "4",
        "--policies", "delta,pi", "--seed", "9", "--no-header-timestamp",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli([*args, "--out", str(a)]).returncode == 0
    assert run_cli([*args, "--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    res = run_cli([*args[:-1], "--out", str(c)])  # timestamp kept
    assert res.returncode == 0
    first = c.read_text().splitlines()[0]
    assert first.startswith("# generated ")


def test_thread_env_does_not_change_output(tmp_path):
    args = [
        "simulate", "--p-grid", "0.3", "0.7", "--n-sources", "2",
        "--horizon", "15", "--replications", "4", "--policies", "delta,pi",
        "--no-header-timestamp",
    ]
    a, b = tmp_path / "seq.csv", tmp_path / "par.csv"
    env_seq = {**os.environ, "AOI_SCHED_THREADS": "1"}
    env_par = {**os.environ, "AOI_SCHED_THREADS": "2"}
    assert run_cli([*args, "--out", str(a)], env=env_seq).returncode == 0
    assert run_cli([*args, "--out", str(b)], env=env_par).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_thread_env_does_not_change_sweep_output(tmp_path):
    # the pool pickles each GridPoint that base._replace derives for the axis
    args = [
        "sweep", "--p-grid", "0.3", "0.7", "--n-sources", "2", "--horizon", "15",
        "--replications", "4", "--policies", "delta,rr", "--no-header-timestamp",
    ]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads / "sw.csv"
        out.parent.mkdir()
        res = run_cli([*args, "--out", str(out)], env={**os.environ, "AOI_SCHED_THREADS": threads})
        assert res.returncode == 0, res.stderr
        assert sorted(p.name for p in out.parent.iterdir()) == ["sw_p.csv"]
        outputs.append((out.parent / "sw_p.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_bad_thread_env_is_config_error():
    res = run_cli(
        ["simulate", "--n-sources", "1", "--replications", "2", "--horizon", "5"],
        env={**os.environ, "AOI_SCHED_THREADS": "many"},
    )
    assert res.returncode == 1
    assert "AOI_SCHED_THREADS" in res.stderr
