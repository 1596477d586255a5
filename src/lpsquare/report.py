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
import json
import math
import re
import time
from dataclasses import dataclass, field
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
    "Corpus",
    "default_corpus",
    "build_corpus",
    "corpus_from_config",
    "realize_function",
    "realize_weight",
    "DEFAULT_CONFIG",
    "load_config",
    "apply_overrides",
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
        f = realize_function(self.function, n, L, N, base_seed)
        w = realize_weight(self.weight, n, L, N, base_seed)
        return f, w


@dataclass(frozen=True)
class Corpus:
    entries: tuple[CorpusEntry, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


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


def default_corpus() -> Corpus:
    """Twelve pairs covering every function and weight family."""
    def fs(family, seed=0, **kw):
        return FunctionSpec(family, tuple(sorted(kw.items())), seed)

    def ws(family, seed=0, **kw):
        return WeightSpec(family, tuple(sorted(kw.items())), seed)

    entries = (
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
    return Corpus(entries)


_ENTRY_RE = re.compile(
    r"^\s*(?P<ff>[a-z-]+)\s*\((?P<fp>[^)]*)\)\s*\|\s*"
    r"(?P<wf>[a-z-]+)\s*\((?P<wp>[^)]*)\)\s*$")


def _parse_params(text: str) -> tuple[tuple[tuple[str, float], ...], int]:
    params = []
    seed = 0
    for item in filter(None, (s.strip() for s in text.split(","))):
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        if key == "seed":
            seed = int(val)
        else:
            params.append((key, float(val)))
    return tuple(sorted(params)), seed


def _parse_entry(name: str, text: str) -> CorpusEntry:
    m = _ENTRY_RE.match(text)
    if not m:
        raise ValueError(
            f"corpus entry {name!r} must look like "
            "'family(k=v, ...) | family(k=v, ...)'")
    fp, fseed = _parse_params(m.group("fp"))
    wp, wseed = _parse_params(m.group("wp"))
    return CorpusEntry(name, FunctionSpec(m.group("ff"), fp, fseed),
                       WeightSpec(m.group("wf"), wp, wseed))


def corpus_from_config(cfg: dict[str, dict[str, str]]) -> Corpus:
    section = cfg.get("corpus", {})
    entries = [(k, v) for k, v in section.items() if k != "seed"]
    if not entries:
        return default_corpus()
    return Corpus(tuple(_parse_entry(k, v) for k, v in entries))


def build_corpus(spec_file: str | Path) -> Corpus:
    """Corpus from exactly the [corpus] entries of a spec file.

    An empty file (or one without a [corpus] section) gives an empty corpus;
    the built-in 12-pair corpus is only substituted at the command layer.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str
    if not parser.read(str(spec_file)):
        raise ValueError(f"corpus spec file {spec_file} not found")
    if not parser.has_section("corpus"):
        return Corpus(())
    entries = [(k, v) for k, v in parser.items("corpus") if k != "seed"]
    return Corpus(tuple(_parse_entry(k, v) for k, v in entries))


# ---------------------------------------------------------------------------
# config


DEFAULT_CONFIG: dict[str, dict[str, str]] = {
    "grid": {"n": "1", "L": "1.0", "N": "2048"},
    "scales": {"M": "64", "t_min": "", "t_max": ""},
    "family": {"max_level": "6"},
    "corpus": {"seed": "1234"},
    "tolerances": {
        "vanish": "1e-6",
        "rel": "1e-12",
        "stability": "0.10",
        "kernel": "poisson-derivative",
        "sigma": "2.718281828459045",
        "max_gen": "5",
        "lambda_nodes": "32",
    },
    "output": {"dir": "out"},
}


def load_config(path: str | Path | None = None,
                overrides: tuple[str, ...] = ()) -> dict[str, dict[str, str]]:
    """Defaults, then the config file, then key=value overrides."""
    cfg = {s: dict(kv) for s, kv in DEFAULT_CONFIG.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        read = parser.read(str(path))
        if not read:
            raise ValueError(f"config file {path} not found")
        for section in parser.sections():
            if section not in cfg:
                raise ValueError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                _check_key(section, key)
                cfg[section][key] = value
    for item in overrides:
        cfg = apply_overrides(cfg, item)
    return cfg


def _check_key(section: str, key: str) -> None:
    if section == "corpus":
        return  # entry names are free-form
    if key not in DEFAULT_CONFIG[section]:
        raise ValueError(f"unknown config key {section}.{key}")


def apply_overrides(cfg: dict[str, dict[str, str]],
                    item: str) -> dict[str, dict[str, str]]:
    if "=" not in item or "." not in item.split("=", 1)[0]:
        raise ValueError(f"override {item!r} must be section.key=value")
    dotted, value = item.split("=", 1)
    section, key = dotted.split(".", 1)
    if section not in cfg:
        raise ValueError(f"unknown config section [{section}]")
    _check_key(section, key)
    out = {s: dict(kv) for s, kv in cfg.items()}
    out[section][key] = value
    return out


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

    def measure(self, name: str):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                timer.stages.append((name, time.perf_counter() - self.t0))
                return False

        return _Ctx()


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
        payload = {
            "command": self.command,
            "config": self.config,
            "grid": self.grid,
            "family": self.family,
            "kernels": self.kernels,
            "timings": [{"stage": s, "seconds": t} for s, t in self.timings],
            "criteria": self.criteria,
            "entries": self.entries,
            "seed": self.seed,
            "all_passed": self.all_passed,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
