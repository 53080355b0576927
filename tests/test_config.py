"""Config parsing, grid expansion, and derived per-point seeds."""

import dataclasses
import re

import pytest

from aoi_sched.cli import build_parser, main, resolve_config
from aoi_sched.config import (
    COMMANDS,
    FIELDS,
    ConfigError,
    GridPoint,
    SweepConfig,
    expand_q,
    grid_point_seed,
    grid_points,
    load_config,
    resolve_initial_state,
    validate_q_spec,
)
from aoi_sched.model import EMPTY, new_state


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_full_file_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, """
[model]
n_sources = 3
n_channels = 2
p = 0.4
q = uniform:0.25
horizon = 50

[sweep]
p = 0.2, 0.8

[run]
policies = delta, rr
replications = 64
base_seed = 7
initial_state = g=[0,psi,1];h=[2,4,6]
state_cap = 1000

[output]
path = out.csv
format = json
timestamp = false
"""))
    assert cfg.n_sources == 3 and cfg.n_channels == 2
    assert cfg.p == 0.4 and cfg.q_spec == "uniform:0.25" and cfg.horizon == 50
    assert cfg.p_grid == (0.2, 0.8)
    assert cfg.policies == ("delta", "rr")
    assert cfg.replications == 64 and cfg.base_seed == 7
    assert cfg.state_cap == 1000
    assert cfg.initial_state.startswith("g=[0,psi,1]")
    assert cfg.out == "out.csv" and cfg.fmt == "json" and cfg.timestamp is False


def test_defaults_without_file():
    cfg = SweepConfig()
    assert cfg.p == 0.5 and cfg.policies == ("delta", "pi", "rr")
    assert cfg.fmt == "csv" and cfg.timestamp


@pytest.mark.parametrize(
    "body",
    [
        "[model]\nn_sources = zero\n",
        "[model]\np = 1.5\n",
        "[modle]\nn_sources = 2\n",
        "[model]\nn_souces = 2\n",
        "[run]\npolicies = delta, fifo\n",
        "[run]\npolicies = delta, delta\n",
        "[run]\nreplications = 1\n",
        "[run]\nrr_mode = polite\n",
        "[run]\nrr_mode = strict\n",
        "[output]\nformat = yaml\n",
        "[model]\nq = uniform:1.2\n",
        "[model]\nq = 0.2, nope\n",
    ],
)
def test_rejections_name_the_offender(tmp_path, body):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, body))


# per field: raw text that sets a non-default value, and raw text its parser
# rejects (None where every text parses; those fields are checked at run time)
SAMPLES = {
    "n_sources": ("3", "three"),
    "n_channels": ("2", "2.5"),
    "p": ("0.25", "1.5"),
    "q_spec": ("0.1,0.9", "uniform:1.2"),
    "horizon": ("7", "7x"),
    "p_grid": ("0.2 0.8", "0.2 1.5"),
    "n_grid": ("2 3", "2 x"),
    "d_grid": ("1 2", "1.5"),
    "t_grid": ("4 8", "4 T"),
    "q_grid": ("uniform:0.3 0.1,0.9", "uniform:0.3 uniform:2"),
    "policies": ("delta,rr-strict", "delta,fifo"),
    "replications": ("9", "nine"),
    "base_seed": ("7", "0x7"),
    "initial_state": ("g=[psi,0];h=[3,1]", None),
    "state_cap": ("1000", "1e3"),
    "out": ("o.csv", None),
    "fmt": ("json", "yaml"),
    "timestamp": ("false", "maybe"),
}


def test_table_declares_each_field_once():
    assert sorted(f.name for f in FIELDS) == sorted(
        f.name for f in dataclasses.fields(SweepConfig)
    )
    assert len({(f.section, f.key) for f in FIELDS}) == len(FIELDS)
    assert len({f.flag for f in FIELDS}) == len(FIELDS)
    reads = {cmd: sum(cmd in f.commands for f in FIELDS) for cmd in COMMANDS}
    assert reads == {"simulate": 18, "sweep": 17, "solve": 10, "verify": 4}


def _flag_argv(field, text):
    words = [] if field.const else text.split() if field.nargs else [text]
    return [field.flag, *words]


def _from_flag(field, text):
    return resolve_config(build_parser().parse_args(["simulate", *_flag_argv(field, text)]))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_ini_key_and_flag_set_the_same_value(tmp_path, field):
    good, bad = SAMPLES[field.name]
    assert field.const in (None, good)  # a switch flag stands for its const
    from_file = load_config(write(tmp_path, f"[{field.section}]\n{field.key} = {good}\n"))
    from_flag = _from_flag(field, good)
    assert from_flag == from_file
    assert getattr(from_file, field.name) != getattr(SweepConfig(), field.name)
    if bad is None:
        return
    origin = f"[{field.section}] {field.key} = {bad!r}: "
    with pytest.raises(ConfigError, match=re.escape(origin)):
        load_config(write(tmp_path, f"[{field.section}]\n{field.key} = {bad}\n"))
    if field.const is None:
        with pytest.raises(ConfigError, match=re.escape(f"{field.flag} {bad!r}: ")):
            _from_flag(field, bad)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_subcommand_takes_only_the_flags_it_reads(capsys, command, field):
    argv = [command, *_flag_argv(field, SAMPLES[field.name][0])]
    if command in field.commands:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {field.flag}" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_state_cap_below_one_is_a_config_error(tmp_path, capsys, raw):
    with pytest.raises(ConfigError, match=re.escape(f"[run] state_cap = {raw!r}: must be >= 1")):
        load_config(write(tmp_path, f"[run]\nstate_cap = {raw}\n"))
    with pytest.raises(ConfigError, match=re.escape(f"--state-cap {raw!r}: must be >= 1")):
        resolve_config(build_parser().parse_args(["solve", "--state-cap", raw]))
    assert main(["solve", "--state-cap", raw]) == 1
    assert capsys.readouterr().err.startswith(f"config error: --state-cap {raw!r}")


def test_q_spec_forms():
    validate_q_spec("uniform:0.5")
    validate_q_spec("0.1,0.9")
    with pytest.raises(ValueError):
        validate_q_spec("uniform:2")
    with pytest.raises(ValueError):
        validate_q_spec("")
    assert expand_q("uniform:0.25", 3) == (0.25, 0.25, 0.25)
    assert expand_q("0.1,0.9", 2) == (0.1, 0.9)
    with pytest.raises(ConfigError):
        expand_q("0.1,0.9", 3)


def test_initial_state_forms():
    assert resolve_initial_state("fresh", 2) == new_state((0, 0), (1, 1))
    assert resolve_initial_state("g=[psi,1];h=[4,3]", 2) == new_state((EMPTY, 1), (4, 3))
    with pytest.raises(ConfigError):
        resolve_initial_state("g=[0];h=[2]", 2)  # wrong length
    with pytest.raises(ConfigError):
        resolve_initial_state("not-a-state", 1)


def test_grid_expansion_order():
    cfg = SweepConfig()
    cfg.p_grid = (0.35, 0.65)
    cfg.n_grid = (5, 30)
    points = grid_points(cfg)
    assert len(points) == 4
    # p varies fastest, sources slowest
    assert [(pt.n_sources, pt.p) for pt in points] == [
        (5, 0.35), (5, 0.65), (30, 0.35), (30, 0.65),
    ]


def test_point_seed_is_stable_and_distinct():
    a = GridPoint(3, 1, 0.6, 50, "uniform:0.5")
    assert grid_point_seed(42, a) == 4006772547827418649
    b = GridPoint(2, 1, 0.35, 1000, "uniform:0.5")
    assert grid_point_seed(42, b) == 8990279077260337917
    assert grid_point_seed(43, a) != grid_point_seed(42, a)
