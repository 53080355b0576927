"""Experiment configuration: INI-style files with CLI-flag overrides.

FIELDS declares every settable field once: its INI key, its CLI flag, the
parser that both feed their raw text through, and the subcommands that read
it.  A subcommand takes only the flags of its fields.  A config file is shared
by all subcommands: every key in it is validated, and each subcommand uses
the keys it reads (`verify` reads only base_seed, the p grid as its scaling
grid, and [output] path and timestamp).

Grammar (all sections and keys optional; flags win over file values):

    [model]
    n_sources = 5            # N
    n_channels = 1           # d
    p = 0.65                 # transfer success probability
    q = uniform:0.5          # or an explicit vector: 0.5,0.4,0.3
    horizon = 1000           # T

    [sweep]
    p = 0.2, 0.5, 0.8        # grids; `simulate` crosses them,
    n_sources = 5, 25, 100   # `sweep` runs one axis at a time
    n_channels = 1, 3
    horizon = 500, 1000
    q = uniform:0.3 uniform:0.7   # space-separated q specs

    [run]
    policies = delta, pi, rr # first listed is the improvement baseline
    replications = 200       # at least 2
    base_seed = 42
    initial_state = fresh       # or a literal like g=[psi,0];h=[3,1]
    state_cap = 5000000

    [output]
    path = results.csv
    format = csv             # or: json; read by `simulate` only
    timestamp = true         # first header line; suppress for byte-stable diffs
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .dp import DEFAULT_STATE_CAP
from .model import InvalidState, ModelParams, SystemState, fresh_state, parse_state
from .policies import POLICY_NAMES

FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Bad configuration value; the message names the offending field."""


@dataclass
class SweepConfig:
    n_sources: int = 5
    n_channels: int = 1
    p: float = 0.5
    q_spec: str = "uniform:0.5"
    horizon: int = 1000
    p_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    d_grid: tuple[int, ...] | None = None
    t_grid: tuple[int, ...] | None = None
    q_grid: tuple[str, ...] | None = None
    policies: tuple[str, ...] = ("delta", "pi", "rr")
    replications: int = 200
    base_seed: int = 42
    initial_state: str = "fresh"
    state_cap: int = DEFAULT_STATE_CAP
    out: str | None = None
    fmt: str = "csv"
    timestamp: bool = True


def _words(raw: str) -> list[str]:
    """A comma- or space-separated list, which must not be empty."""
    words = raw.replace(",", " ").split()
    if not words:
        raise ValueError("empty list")
    return words


def _prob(raw: str) -> float:
    v = float(raw)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"probability {v} outside [0,1]")
    return v


def _prob_list(raw: str) -> tuple[float, ...]:
    return tuple(_prob(tok) for tok in _words(raw))


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _words(raw))


def _q_spec(raw: str) -> str:
    validate_q_spec(raw.strip())
    return raw.strip()


def _q_spec_list(raw: str) -> tuple[str, ...]:
    specs = tuple(raw.split())  # a spec may hold commas, so only spaces separate
    if not specs:
        raise ValueError("empty list")
    for spec in specs:
        validate_q_spec(spec)
    return specs


def _policy_list(raw: str) -> tuple[str, ...]:
    names = tuple(_words(raw))
    for i, name in enumerate(names):
        if name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
        if name in names[:i]:
            raise ValueError(f"policy {name!r} listed twice")
    return names


def _replications(raw: str) -> int:
    v = int(raw)
    if v < 2:
        raise ValueError(f"must be >= 2 for a standard error, got {v}")
    return v


def _state_cap(raw: str) -> int:
    v = int(raw)
    if v < 1:
        raise ValueError(f"must be >= 1, got {v}")
    return v


def _format(raw: str) -> str:
    if raw not in FORMATS:
        raise ValueError(f"must be one of {FORMATS}")
    return raw


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


class ConfigField(NamedTuple):
    """One settable SweepConfig field, set by the INI key [section] key or by
    the CLI flag; both hand their raw text to parse.  Only the subcommands in
    commands read the field and take the flag.  A grid flag (nargs "+") joins
    its words with spaces; a flag with a const takes no value and stands for
    that raw text."""

    name: str
    section: str
    key: str
    flag: str
    parse: Callable[[str], object]
    commands: tuple[str, ...]
    help: str
    nargs: str | None = None
    const: str | None = None

    def apply(self, cfg: SweepConfig, raw: str, origin: str) -> None:
        """Set the field from raw text; a bad value is a ConfigError naming origin."""
        try:
            setattr(cfg, self.name, self.parse(raw))
        except ValueError as exc:
            raise ConfigError(f"{origin}: {exc}") from None


# the subcommands that read a field; each parser takes only its fields' flags
MODEL = ("simulate", "sweep", "solve")
MONTE_CARLO = ("simulate", "sweep")
SEEDED = ("simulate", "sweep", "verify")  # verify reads the p grid as its scaling grid
COMMANDS = ("simulate", "sweep", "solve", "verify")

FIELDS = (
    ConfigField("n_sources", "model", "n_sources", "--n-sources", int, MODEL,
                "number of sources N"),
    ConfigField("n_channels", "model", "n_channels", "--n-channels", int, MODEL,
                "number of channels d"),
    ConfigField("p", "model", "p", "--p", _prob, MODEL,
                "transfer success probability (default 0.5)"),
    ConfigField("q_spec", "model", "q", "--q", _q_spec, MODEL,
                "arrival probabilities: uniform:<v> or a vector v1,v2,..."),
    ConfigField("horizon", "model", "horizon", "--horizon", int, MODEL, "horizon T"),
    ConfigField("p_grid", "sweep", "p", "--p-grid", _prob_list, SEEDED, "grid of p values", "+"),
    ConfigField("n_grid", "sweep", "n_sources", "--n-grid", _int_list, MONTE_CARLO,
                "grid of N values", "+"),
    ConfigField("d_grid", "sweep", "n_channels", "--d-grid", _int_list, MONTE_CARLO,
                "grid of d values", "+"),
    ConfigField("t_grid", "sweep", "horizon", "--t-grid", _int_list, MONTE_CARLO,
                "grid of T values", "+"),
    ConfigField("q_grid", "sweep", "q", "--q-grid", _q_spec_list, MONTE_CARLO,
                "grid of q specs", "+"),
    ConfigField("policies", "run", "policies", "--policies", _policy_list, MODEL,
                "comma-separated; the first is the improvement baseline"),
    ConfigField("replications", "run", "replications", "--replications", _replications,
                MONTE_CARLO, "episodes per policy and grid point (at least 2)"),
    ConfigField("base_seed", "run", "base_seed", "--seed", int, SEEDED, "base seed (default 42)"),
    ConfigField("initial_state", "run", "initial_state", "--initial-state", str.strip, MODEL,
                '"fresh" or a g=[...];h=[...] literal'),
    ConfigField("state_cap", "run", "state_cap", "--state-cap", _state_cap, MODEL,
                "most states (or state-cursor pairs) an exact pass may reach"),
    ConfigField("out", "output", "path", "--out", str.strip, COMMANDS,
                "output path ('-' = stdout)"),
    ConfigField("fmt", "output", "format", "--format", _format, ("simulate",), "csv or json"),
    ConfigField("timestamp", "output", "timestamp", "--no-header-timestamp", _bool, COMMANDS,
                "suppress the generated-at header for byte-stable output", const="false"),
)
_BY_KEY = {(f.section, f.key): f for f in FIELDS}


def load_config(path: str) -> SweepConfig:
    """Parse an INI config file into a SweepConfig, validating every field."""
    import configparser  # only --config reads INI text

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None
    cfg = SweepConfig()
    for section in parser.sections():
        if section not in {f.section for f in FIELDS}:
            raise ConfigError(f"unknown section [{section}] in {path!r}")
        for key in parser.options(section):
            field = _BY_KEY.get((section, key))
            if field is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path!r}")
            raw = parser.get(section, key)
            field.apply(cfg, raw, f"[{section}] {key} = {raw!r}")
    return cfg


def _q_values(spec: str) -> tuple[bool, tuple[float, ...]]:
    """The q spec grammar: (True, (v,)) for uniform:<v>, or (False, (v1, v2,
    ...)) for a comma vector, empty tokens skipped; float's ValueError for a
    token that is not a number."""
    if spec.startswith("uniform:"):
        return True, (float(spec.split(":", 1)[1]),)
    return False, tuple(float(tok) for tok in spec.split(",") if tok)


def validate_q_spec(spec: str) -> None:
    uniform, vals = _q_values(spec)
    if uniform:
        if not 0.0 <= vals[0] <= 1.0:
            raise ValueError(f"uniform q value {vals[0]} outside [0,1]")
        return
    if not vals:
        raise ValueError(f"empty q spec {spec!r}")
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise ValueError(f"q entries outside [0,1] in {spec!r}")


def expand_q(spec: str, n_sources: int) -> tuple[float, ...]:
    """Turn a q spec into a length-N vector."""
    uniform, vals = _q_values(spec)
    if uniform:
        return vals * n_sources
    if len(vals) != n_sources:
        raise ConfigError(
            f"q vector {spec!r} has {len(vals)} entries but n_sources = {n_sources}"
        )
    return vals


def resolve_initial_state(spec: str, n_sources: int) -> SystemState:
    if spec == "fresh":
        return fresh_state(n_sources)
    try:
        x0 = parse_state(spec)
    except InvalidState as exc:
        raise ConfigError(f"initial_state {spec!r}: {exc}") from None
    if len(x0.g) != n_sources:
        raise ConfigError(
            f"initial_state {spec!r} has {len(x0.g)} sources but n_sources = {n_sources}"
        )
    return x0


class GridPoint(NamedTuple):
    n_sources: int
    n_channels: int
    p: float
    horizon: int
    q_spec: str

    def params(self) -> ModelParams:
        q = expand_q(self.q_spec, self.n_sources)
        try:
            return ModelParams(self.n_sources, self.n_channels, self.p, q, self.horizon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


class Axis(NamedTuple):
    """One model axis: its CSV column, its label in sweep file names and
    `# fixed:` comments, the field that holds its value (in GridPoint and,
    as the base value, in SweepConfig) and the SweepConfig grid over it."""

    column: str
    label: str
    field: str
    grid: str


# the model axes, in GridPoint order
AXES = (
    Axis("N", "N", "n_sources", "n_grid"),
    Axis("d", "d", "n_channels", "d_grid"),
    Axis("p", "p", "p", "p_grid"),
    Axis("T", "T", "horizon", "t_grid"),
    Axis("q_spec", "q", "q_spec", "q_grid"),
)


def base_point(cfg: SweepConfig) -> GridPoint:
    """The point of the config's base values, which no grid moves."""
    return GridPoint(*(getattr(cfg, axis.field) for axis in AXES))


def grid_points(cfg: SweepConfig) -> list[GridPoint]:
    """Cross product of all grids (base values where no grid is given), in a
    fixed documented order: n_sources, n_channels, horizon, q, p (p fastest)."""
    ns, ds, ps, ts, qs = (getattr(cfg, axis.grid) or (getattr(cfg, axis.field),) for axis in AXES)
    return [
        GridPoint(n, d, p, t, q)
        for n in ns
        for d in ds
        for t in ts
        for q in qs
        for p in ps
    ]


def grid_point_seed(base_seed: int, point: GridPoint) -> int:
    """Stable per-point seed: adding grid points never shifts other points' streams."""
    import hashlib  # only a seeded grid point hashes

    q = expand_q(point.q_spec, point.n_sources)
    canon = (
        f"N={point.n_sources};d={point.n_channels};p={point.p!r};"
        f"T={point.horizon};q=" + ",".join(repr(v) for v in q)
    )
    digest = hashlib.sha256(f"{base_seed}|{canon}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
