"""Experiment corpus, config handling, CSV/plot emission, run manifests.

Corpus entries are declarative (family name, parameters, seed) and realize
to samples deterministically given (n, L, N).  Function families: step,
sawtooth, sine, log-spike, random-martingale.  Weight families: constant,
power-regularized, piecewise.  Singular profiles are regularized at a
resolution-independent epsilon so that refining the grid resamples the same
underlying object; weight families keep a dynamic range below e so that
stopping-time measure decay has slack at every generation.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import math
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .grid import GridFunction, grid_function
from .weights import Weight

__all__ = [
    "FUNCTION_FAMILIES",
    "WEIGHT_FAMILIES",
    "FunctionSpec",
    "WeightSpec",
    "CorpusEntry",
    "default_corpus",
    "realize_function",
    "realize_weight",
    "load_config",
    "RunConfig",
    "Table",
    "table_csv",
    "emit_report",
    "RunManifest",
    "StageTimer",
]

FUNCTION_FAMILIES = ("step", "sawtooth", "sine", "log-spike",
                     "random-martingale")
WEIGHT_FAMILIES = ("constant", "power-regularized", "piecewise")


@dataclass(frozen=True)
class FunctionSpec:
    family: str
    params: tuple[tuple[str, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.family not in FUNCTION_FAMILIES:
            raise ValueError(
                f"unknown function family {self.family!r}; "
                f"valid: {', '.join(FUNCTION_FAMILIES)}")


@dataclass(frozen=True)
class WeightSpec:
    family: str
    params: tuple[tuple[str, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.family not in WEIGHT_FAMILIES:
            raise ValueError(
                f"unknown weight family {self.family!r}; "
                f"valid: {', '.join(WEIGHT_FAMILIES)}")


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    function: FunctionSpec
    weight: WeightSpec

    def realize(self, n: int, L: float, N: int,
                base_seed: int = 0) -> tuple[GridFunction, Weight]:
        """The entry's function and weight on the grid; a function that
        realizes to all zeros is refused, since every oscillation ratio
        divides by its norm."""
        f = realize_function(self.function, n, L, N, base_seed)
        if not f.values.any():
            raise ValueError(f"corpus entry {self.name!r}: the function "
                             f"realizes to zero on the {n}D N={N} grid")
        w = realize_weight(self.weight, n, L, N, base_seed)
        return f, w


def _params(spec) -> dict[str, float]:
    return dict(spec.params)


def _axis(n: int, L: float, N: int):
    x = np.arange(N) * (L / N)
    if n == 1:
        return (x,)
    return np.meshgrid(x, x, indexing="ij")


def _periodic_dist(coords, x0, L):
    parts = [((c - x0 + L / 2) % L) - L / 2 for c in coords]
    if len(parts) == 1:
        return np.abs(parts[0])
    return np.sqrt(parts[0] ** 2 + parts[1] ** 2)


def _rng(base_seed: int, seed: int) -> np.random.Generator:
    return np.random.default_rng((base_seed, seed))


def _dyadic_noise(n: int, N: int, depth: int, rng) -> np.ndarray:
    """Seeded dyadic martingale: symmetric increments per refinement level."""
    depth = min(depth, int(math.log2(N)))
    if n == 1:
        vals = np.zeros(1)
        for _ in range(depth):
            vals = np.repeat(vals, 2)
            vals += rng.uniform(-1.0, 1.0, vals.size)
        return np.repeat(vals, N // vals.size)
    vals = np.zeros((1, 1))
    for _ in range(depth):
        vals = np.repeat(np.repeat(vals, 2, axis=0), 2, axis=1)
        vals += rng.uniform(-1.0, 1.0, vals.shape)
    r = N // vals.shape[0]
    return np.repeat(np.repeat(vals, r, axis=0), r, axis=1)


def realize_function(spec: FunctionSpec, n: int, L: float, N: int,
                     base_seed: int = 0) -> GridFunction:
    p = _params(spec)
    coords = _axis(n, L, N)
    if spec.family == "step":
        a = p.get("a", 1.0)
        x0 = p.get("x0", 0.25) * L
        width = p.get("width", 0.25) * L
        vals = np.ones_like(coords[0])
        for c in coords:
            d = (c - x0) % L
            vals = vals * (d < width)
        vals = a * vals
    elif spec.family == "sawtooth":
        k = p.get("k", 3.0)
        a = p.get("a", 1.0)
        x0 = p.get("x0", 0.0) * L
        vals = a * (((coords[0] - x0) * k / L) % 1.0 - 0.5)
    elif spec.family == "sine":
        k = p.get("k", 3.0)
        a = p.get("a", 1.0)
        phase = p.get("phase", 0.0)
        vals = np.ones_like(coords[0]) * a
        for c in coords:
            vals = vals * np.sin(2 * np.pi * k * c / L + phase)
    elif spec.family == "log-spike":
        x0 = p.get("x0", 0.3) * L
        eps = p.get("eps", 1.0 / 1024.0) * L
        d = _periodic_dist(coords, x0, L)
        vals = -np.log(np.maximum(d, eps) / L)
    elif spec.family == "random-martingale":
        depth = int(p.get("depth", 8))
        vals = _dyadic_noise(n, N, depth, _rng(base_seed, spec.seed))
    else:  # pragma: no cover - guarded by FunctionSpec
        raise ValueError(spec.family)
    return grid_function(n, L, N, np.asarray(vals, dtype=float))


def realize_weight(spec: WeightSpec, n: int, L: float, N: int,
                   base_seed: int = 0) -> Weight:
    p = _params(spec)
    coords = _axis(n, L, N)
    if spec.family == "constant":
        c = p.get("c", 1.0)
        if c <= 0:
            raise ValueError("constant weight must be positive")
        vals = np.full_like(coords[0], c)
    elif spec.family == "power-regularized":
        alpha = p.get("alpha", 0.25)
        x0 = p.get("x0", 0.5) * L
        eps = p.get("eps", 1.0 / 64.0) * L
        d = _periodic_dist(coords, x0, L)
        vals = (np.maximum(d, eps) / L) ** alpha
    elif spec.family == "piecewise":
        level = int(p.get("level", 3))
        lo = p.get("lo", 2.0 / 3.0)
        hi = p.get("hi", 1.5)
        rng = _rng(base_seed, spec.seed)
        B = 1 << level
        if n == 1:
            palette = rng.uniform(lo, hi, B)
            vals = np.repeat(palette, N // B)
        else:
            palette = rng.uniform(lo, hi, (B, B))
            r = N // B
            vals = np.repeat(np.repeat(palette, r, axis=0), r, axis=1)
    else:  # pragma: no cover - guarded by WeightSpec
        raise ValueError(spec.family)
    return Weight(grid_function(n, L, N, np.asarray(vals, dtype=float)))


def default_corpus() -> tuple[CorpusEntry, ...]:
    """Twelve pairs covering every function and weight family."""
    def fs(family, seed=0, **kw):
        return FunctionSpec(family, tuple(sorted(kw.items())), seed)

    def ws(family, seed=0, **kw):
        return WeightSpec(family, tuple(sorted(kw.items())), seed)

    return (
        CorpusEntry("step-const", fs("step"), ws("constant")),
        CorpusEntry("step-powreg",
                    fs("step", x0=0.1, width=0.35),
                    ws("power-regularized", alpha=0.28, x0=0.7)),
        CorpusEntry("sawtooth-const", fs("sawtooth", k=4.0), ws("constant")),
        CorpusEntry("sawtooth-piecewise", fs("sawtooth", k=5.0, x0=0.1),
                    ws("piecewise", seed=2)),
        CorpusEntry("sine-const", fs("sine", k=3.0), ws("constant")),
        CorpusEntry("sine-powreg", fs("sine", k=8.0, a=1.5),
                    ws("power-regularized", alpha=-0.25, x0=0.7)),
        CorpusEntry("logspike-const", fs("log-spike", x0=0.3),
                    ws("constant")),
        CorpusEntry("logspike-powreg", fs("log-spike", x0=0.62),
                    ws("power-regularized", alpha=0.25, x0=0.2)),
        CorpusEntry("logspike-piecewise", fs("log-spike", x0=0.3),
                    ws("piecewise", seed=3)),
        CorpusEntry("martingale-const", fs("random-martingale", seed=5),
                    ws("constant")),
        CorpusEntry("martingale-powreg", fs("random-martingale", seed=11),
                    ws("power-regularized", alpha=0.2, x0=0.45)),
        CorpusEntry("martingale-piecewise", fs("random-martingale", seed=17),
                    ws("piecewise", seed=7)),
    )


_ENTRY_RE = re.compile(
    r"^\s*(?P<ff>[a-z-]+)\s*\((?P<fp>[^)]*)\)\s*\|\s*"
    r"(?P<wf>[a-z-]+)\s*\((?P<wp>[^)]*)\)\s*$")


def _parse_params(name: str,
                  text: str) -> tuple[tuple[tuple[str, float], ...], int]:
    params = []
    seed = 0
    for item in filter(None, (s.strip() for s in text.split(","))):
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        if key == "seed":
            seed = int(val)
            continue
        value = float(val)
        # a step at x0=nan or x0=inf would realize the zero function
        if not math.isfinite(value):
            raise ValueError(f"corpus entry {name!r}: {key}={val!r} is not "
                             "finite")
        params.append((key, value))
    return tuple(sorted(params)), seed


def _parse_entry(name: str, text: str) -> CorpusEntry:
    # the name becomes part of output file names
    if name in ("", ".", "..") or "/" in name or "\0" in name:
        raise ValueError(f"corpus entry name {name!r} is not a plain "
                         "file name")
    m = _ENTRY_RE.match(text)
    if not m:
        raise ValueError(
            f"corpus entry {name!r} must look like "
            "'family(k=v, ...) | family(k=v, ...)'")
    fp, fseed = _parse_params(name, m.group("fp"))
    wp, wseed = _parse_params(name, m.group("wp"))
    return CorpusEntry(name, FunctionSpec(m.group("ff"), fp, fseed),
                       WeightSpec(m.group("wf"), wp, wseed))


def _corpus_of(section: dict[str, str]) -> tuple[CorpusEntry, ...]:
    """The entries of a [corpus] section; its seed key is not an entry."""
    return tuple(_parse_entry(k, v) for k, v in section.items()
                 if k != "seed")


def _read_ini(path: str | Path) -> dict[str, dict[str, str]]:
    """section -> key -> text of an INI file; a missing or unparsable file
    is a ValueError."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        if not parser.read(str(path)):
            raise ValueError(f"config file {path} not found")
        return {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# config


# section -> key -> (type, default text).  Each value lands in the RunConfig
# field named after its key; a key whose default is empty may stay empty,
# which makes its field None.
_SCHEMA: dict[str, dict[str, tuple[type, str]]] = {
    "grid": {"n": (int, "1"), "L": (float, "1.0"), "N": (int, "2048")},
    "scales": {"M": (int, "64"), "t_min": (float, ""), "t_max": (float, "")},
    "family": {"max_level": (int, "6")},
    "corpus": {"seed": (int, "1234")},
    "tolerances": {
        "vanish": (float, "1e-6"),
        "kernel": (str, "poisson-derivative"),
        "sigma": (float, "2.718281828459045"),
        "max_gen": (int, "5"),
        "lambda_nodes": (int, "32"),
    },
    "output": {"dir": (str, "out")},
}

# Ranges checked here, so that every subcommand refuses a value out of range
# whether or not it reads the key: (key, test, rule), tested in this order.
# Each test is a comparison that NaN fails; _convert refuses NaN for every
# other float key.  An empty t_min or t_max is not tested.  The code using a
# value keeps its own checks (GridFunction, ScaleGrid, dyadic_cubes,
# cz_decompose, certify).
_RANGE = (
    ("L", lambda v: v > 0, "must be positive"),
    ("N", lambda v: v >= 1, "must be at least 1"),
    ("N", lambda v: v & (v - 1) == 0, "must be a power of two"),
    ("M", lambda v: v >= 2, "must be at least 2"),
    ("t_min", lambda v: v > 0, "must be positive"),
    ("t_max", lambda v: v > 0, "must be positive"),
    ("max_level", lambda v: v >= 0, "must be at least 0"),
    ("max_gen", lambda v: v >= 1, "must be at least 1"),
    ("lambda_nodes", lambda v: v >= 1, "must be at least 1"),
    ("vanish", lambda v: v > 0, "must be positive"),
    ("sigma", lambda v: v > 1, "must exceed 1"),
)


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, each converted and checked once by load_config.

    text keeps every setting as section -> key -> text, the form the
    manifest records; corpus is the [corpus] entries, or the built-in
    corpus when the section declares none.
    """

    n: int
    L: float
    N: int
    M: int
    t_min: float | None
    t_max: float | None
    max_level: int
    seed: int
    vanish: float
    kernel: str
    sigma: float
    max_gen: int
    lambda_nodes: int
    dir: str
    corpus: tuple[CorpusEntry, ...]
    text: dict[str, dict[str, str]]


def _convert(section: str, key: str, text: str):
    kind, default = _SCHEMA[section][key]
    if text == "" and default == "":
        return None
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{section}.{key}={text!r} is not a valid "
                         f"{kind.__name__}") from None
    if kind is float and math.isinf(value):
        raise ValueError(f"{section}.{key}={text!r} is not finite")
    for name, test, rule in _RANGE:
        if name == key and not test(value):
            raise ValueError(f"{section}.{key} {rule}")
    if kind is float and math.isnan(value):
        raise ValueError(f"{section}.{key}={text!r} is not a number")
    return value


def load_config(path: str | Path | None = None,
                overrides: tuple[str, ...] = ()) -> RunConfig:
    """Defaults, then the INI file at path, then section.key=value
    overrides; a refused setting is a ValueError naming its key."""
    text = {s: {k: d for k, (_, d) in keys.items()}
            for s, keys in _SCHEMA.items()}
    settings = []
    if path is not None:
        ini = _read_ini(path)
        settings += [(s, k, v) for s, kv in ini.items() for k, v in kv.items()]
    for item in overrides:
        dotted, eq, value = item.partition("=")
        section, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ValueError(f"override {item!r} must be section.key=value")
        settings.append((section, key, value))
    for section, key, value in settings:
        if section not in text:
            raise ValueError(f"unknown config section [{section}]")
        # corpus entry names are free-form
        if section != "corpus" and key not in text[section]:
            raise ValueError(f"unknown config key {section}.{key}")
        text[section][key] = value
    values = {key: _convert(section, key, text[section][key])
              for section, keys in _SCHEMA.items() for key in keys}
    return RunConfig(**values,
                     corpus=_corpus_of(text["corpus"]) or default_corpus(),
                     text=text)


# ---------------------------------------------------------------------------
# tables, CSVs, plot scripts


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    plot: str | None = None  # "tail" or "hist"

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width mismatch in table {self.name!r}")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def table_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


_PLOT_TAIL = """\
# Tail-curve plot for {csv}; run with any matplotlib-equipped interpreter.
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(Path(__file__).parent.joinpath("{csv}").open()))
lam = [float(r["lambda"]) for r in rows]
plt.semilogy(lam, [max(float(r["measured"]), 1e-300) for r in rows],
             marker="o", label="measured")
plt.semilogy(lam, [float(r["bound"]) for r in rows], label="bound")
plt.xlabel("lambda")
plt.ylabel("measure")
plt.legend()
plt.title("{name}")
plt.savefig("{name}.png", dpi=150)
"""

_PLOT_HIST = """\
# Ratio histogram for {csv}; run with any matplotlib-equipped interpreter.
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(Path(__file__).parent.joinpath("{csv}").open()))
plt.hist([float(r["ratio"]) for r in rows], bins=20)
plt.xlabel("ratio")
plt.ylabel("count")
plt.title("{name}")
plt.savefig("{name}.png", dpi=150)
"""


def emit_report(tables: list[Table], out_dir: str | Path) -> list[Path]:
    """One CSV per table plus a plain-text plot script per flagged table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for table in tables:
        csv_path = out / f"{table.name}.csv"
        csv_path.write_text(table_csv(table))
        written.append(csv_path)
        if table.plot is not None:
            template = _PLOT_TAIL if table.plot == "tail" else _PLOT_HIST
            script = template.format(csv=csv_path.name, name=table.name)
            script_path = out / f"{table.name}_plot.py"
            script_path.write_text(script)
            written.append(script_path)
    return written


# ---------------------------------------------------------------------------
# manifests


class StageTimer:
    """Collects named wall-time measurements for the manifest."""

    def __init__(self):
        self.stages: list[tuple[str, float]] = []

    @contextlib.contextmanager
    def measure(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages.append((name, time.perf_counter() - t0))


@dataclass
class RunManifest:
    command: str
    config: dict[str, dict[str, str]]
    grid: dict = field(default_factory=dict)
    family: dict = field(default_factory=dict)
    kernels: list = field(default_factory=list)
    timings: list = field(default_factory=list)
    criteria: list = field(default_factory=list)
    entries: list = field(default_factory=list)  # per corpus entry records
    seed: int = 0

    def record(self, name: str, passed: bool, detail: str = "") -> bool:
        self.criteria.append(
            {"name": name, "passed": bool(passed), "detail": detail})
        return bool(passed)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.criteria)

    def write(self, path: str | Path) -> None:
        # the fields in order, then all_passed, are the JSON keys
        payload = asdict(self)
        payload["timings"] = [{"stage": s, "seconds": t}
                              for s, t in self.timings]
        payload["all_passed"] = self.all_passed
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
