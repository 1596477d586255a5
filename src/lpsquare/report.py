"""Experiment corpus, config handling, CSV/plot emission, run manifests.

Corpus entries are declarative (family name, parameters, seed) and realize
to samples deterministically given (n, L, N).  Each family is one realizer
in FUNCTION_FAMILIES or WEIGHT_FAMILIES, whose keyword defaults are the
family's parameters.  Singular profiles are regularized at a
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
import sys
import time
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

import numpy as np

from . import SHIPPED_KERNELS
from .grid import GridFunction, periodic_displacement
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
    "unwritable",
    "RunManifest",
    "StageTimer",
]

# ---------------------------------------------------------------------------
# corpus families
#
# Each family is one realizer: it maps the sample coordinates (one array
# per axis, in the shape of the grid), the box side L and the entry's
# seeds (base seed, entry seed) to sample values.  Its keyword-only
# parameters are the family's parameters and their defaults the family's
# defaults; positions and widths are fractions of L.


def _repeat(blocks: np.ndarray, r: int) -> np.ndarray:
    """Each entry of blocks repeated r times along every axis."""
    for axis in range(blocks.ndim):
        blocks = np.repeat(blocks, r, axis=axis)
    return blocks


def _step(coords, L, seeds, *, a=1.0, x0=0.25, width=0.25):
    vals = np.ones_like(coords[0])
    for c in coords:
        vals = vals * ((c - x0 * L) % L < width * L)
    return a * vals


def _sawtooth(coords, L, seeds, *, k=3.0, a=1.0, x0=0.0):
    return a * (((coords[0] - x0 * L) * k / L) % 1.0 - 0.5)


def _sine(coords, L, seeds, *, k=3.0, a=1.0, phase=0.0):
    vals = np.ones_like(coords[0]) * a
    for c in coords:
        vals = vals * np.sin(2 * np.pi * k * c / L + phase)
    return vals


def _distance_to(coords, L, x0, eps, family, singular):
    """|x - x0 L| / L on the periodic box, floored at eps; refused where it
    is 0 if singular, when the caller takes its log or a negative power."""
    d = np.sqrt(sum(periodic_displacement(c, x0 * L, L) ** 2 for c in coords))
    r = np.maximum(d, eps * L) / L
    if singular and not r.min() > 0:
        raise ValueError(f"{family} eps={eps} leaves the distance to "
                         f"x0={x0} at 0 on a sample")
    return r


def _log_spike(coords, L, seeds, *, x0=0.3, eps=1.0 / 1024.0):
    return -np.log(_distance_to(coords, L, x0, eps, "log-spike", True))


def _random_martingale(coords, L, seeds, *, depth=8):
    """Seeded dyadic martingale: symmetric increments per refinement level."""
    N = coords[0].shape[0]
    vals = np.zeros((1,) * len(coords))
    rng = np.random.default_rng(seeds)
    for _ in range(min(int(depth), N.bit_length() - 1)):
        vals = _repeat(vals, 2)
        vals += rng.uniform(-1.0, 1.0, vals.shape)
    return _repeat(vals, N // vals.shape[0])


def _constant(coords, L, seeds, *, c=1.0):
    return np.full_like(coords[0], c)


def _power_regularized(coords, L, seeds, *, alpha=0.25, x0=0.5,
                       eps=1.0 / 64.0):
    return _distance_to(coords, L, x0, eps, "power-regularized",
                        alpha < 0) ** alpha


def _piecewise(coords, L, seeds, *, level=3, lo=2.0 / 3.0, hi=1.5):
    """Seeded constants on the level-`level` dyadic blocks."""
    N = coords[0].shape[0]
    level = int(level)
    # checked before drawing: a deep level asks for 2^(n*level) draws
    if not 0 <= level <= N.bit_length() - 1:
        raise ValueError(f"piecewise level={level} must lie between 0 and "
                         f"log2(N)={N.bit_length() - 1}")
    if lo > hi:
        raise ValueError(f"piecewise lo={lo} must not exceed hi={hi}")
    B = 1 << level
    palette = np.random.default_rng(seeds).uniform(lo, hi, (B,) * len(coords))
    return _repeat(palette, N // B)


FUNCTION_FAMILIES = {"step": _step, "sawtooth": _sawtooth, "sine": _sine,
                     "log-spike": _log_spike,
                     "random-martingale": _random_martingale}
WEIGHT_FAMILIES = {"constant": _constant,
                   "power-regularized": _power_regularized,
                   "piecewise": _piecewise}


@dataclass(frozen=True)
class _FamilySpec:
    """A family of the subclass's families map, parameters that family
    declares, and a seed."""

    family: str
    params: tuple[tuple[str, float], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.family not in self.families:
            raise ValueError(
                f"unknown {self.kind} family {self.family!r}; "
                f"valid: {', '.join(self.families)}")
        declared = self.families[self.family].__kwdefaults__
        for key, _ in self.params:
            if key not in declared:
                raise ValueError(
                    f"{self.family} has no parameter {key!r}; "
                    f"valid: {', '.join(declared)}, seed")

    def sample(self, n: int, L: float, N: int,
               base_seed: int = 0) -> np.ndarray:
        """The family's samples on the grid, not yet validated."""
        x = np.arange(N) * (L / N)
        coords = np.meshgrid(*(x,) * n, indexing="ij")
        return self.families[self.family](coords, L, (base_seed, self.seed),
                                          **dict(self.params))


class FunctionSpec(_FamilySpec):
    kind, families = "function", FUNCTION_FAMILIES


class WeightSpec(_FamilySpec):
    kind, families = "weight", WEIGHT_FAMILIES


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    function: FunctionSpec
    weight: WeightSpec

    def realize(self, n: int, L: float, N: int,
                base_seed: int = 0) -> tuple[GridFunction, Weight]:
        """The entry's function and weight on the grid; a refusal names
        the entry."""
        return (self.function_on(n, L, N, base_seed),
                self.weight_on(n, L, N, base_seed))

    def function_on(self, n: int, L: float, N: int,
                    base_seed: int = 0) -> GridFunction:
        """The entry's function alone, as realize gives it."""
        return self._named(realize_function, self.function, n, L, N,
                           base_seed)

    def weight_on(self, n: int, L: float, N: int,
                  base_seed: int = 0) -> Weight:
        """The entry's weight alone, as realize gives it."""
        return self._named(realize_weight, self.weight, n, L, N, base_seed)

    def _named(self, realizer, spec, *grid):
        """realizer(spec, *grid); a refusal names the entry."""
        try:
            return realizer(spec, *grid)
        except ValueError as exc:
            raise ValueError(f"corpus entry {self.name!r}: {exc}") from None


def realize_function(spec: FunctionSpec, n: int, L: float, N: int,
                     base_seed: int = 0) -> GridFunction:
    """spec's samples on the grid; a constant is refused, since every
    oscillation ratio divides by the function's oscillation."""
    f = GridFunction(n, L, N, spec.sample(n, L, N, base_seed))
    lo, hi = f.values.min(), f.values.max()
    if lo == hi:
        what = "zero" if hi == 0 else f"the constant {float(hi)!r}"
        raise ValueError(f"the function realizes to {what} on the {n}D "
                         f"N={N} grid")
    return f


def realize_weight(spec: WeightSpec, n: int, L: float, N: int,
                   base_seed: int = 0) -> Weight:
    """spec's samples as a weight; Weight refuses one with a sample below
    EPS_MIN."""
    return Weight(n, L, N, spec.sample(n, L, N, base_seed))


# The built-in corpus: twelve [corpus] entries covering every function and
# weight family.
_DEFAULT_CORPUS = {
    "step-const": "step() | constant()",
    "step-powreg": "step(x0=0.1, width=0.35) | "
                   "power-regularized(alpha=0.28, x0=0.7)",
    "sawtooth-const": "sawtooth(k=4) | constant()",
    "sawtooth-piecewise": "sawtooth(k=5, x0=0.1) | piecewise(seed=2)",
    "sine-const": "sine(k=3) | constant()",
    "sine-powreg": "sine(k=8, a=1.5) | power-regularized(alpha=-0.25, x0=0.7)",
    "logspike-const": "log-spike(x0=0.3) | constant()",
    "logspike-powreg": "log-spike(x0=0.62) | "
                       "power-regularized(alpha=0.25, x0=0.2)",
    "logspike-piecewise": "log-spike(x0=0.3) | piecewise(seed=3)",
    "martingale-const": "random-martingale(seed=5) | constant()",
    "martingale-powreg": "random-martingale(seed=11) | "
                         "power-regularized(alpha=0.2, x0=0.45)",
    "martingale-piecewise": "random-martingale(seed=17) | piecewise(seed=7)",
}


def default_corpus() -> tuple[CorpusEntry, ...]:
    return _corpus_of(_DEFAULT_CORPUS)


_ENTRY_RE = re.compile(
    r"^\s*(?P<ff>[a-z-]+)\s*\((?P<fp>[^)]*)\)\s*\|\s*"
    r"(?P<wf>[a-z-]+)\s*\((?P<wp>[^)]*)\)\s*$")


def _parse_params(name: str, kind: type, family: str,
                  text: str) -> FunctionSpec | WeightSpec:
    """kind(family, params, seed) from an entry's "k=v, ..." text; seed= is
    accepted on every family, and a refusal names the entry."""
    params = []
    seed = 0
    try:
        for item in filter(None, (s.strip() for s in text.split(","))):
            if "=" not in item:
                raise ValueError(f"malformed parameter {item!r}")
            key, val = (s.strip() for s in item.split("=", 1))
            if key == "seed":
                seed = int(val)
                if seed < 0:
                    raise ValueError(f"seed={val!r} must be non-negative")
                continue
            value = float(val)
            # a step at x0=nan or x0=inf would realize the zero function
            if not math.isfinite(value):
                raise ValueError(f"{key}={val!r} is not finite")
            params.append((key, value))
        return kind(family, tuple(sorted(params)), seed)
    except ValueError as exc:
        raise ValueError(f"corpus entry {name!r}: {exc}") from None


# Characters an entry name may not hold: the name becomes part of output
# file names, a CSV cell, and string literals of the plot scripts.
_NAME_FORBIDDEN = '/\0,"\\\r\n'


def _parse_entry(name: str, text: str) -> CorpusEntry:
    if name in ("", ".", "..") or any(c in name for c in _NAME_FORBIDDEN):
        raise ValueError(f"corpus entry name {name!r} is not a plain "
                         "file name")
    m = _ENTRY_RE.match(text)
    if not m:
        raise ValueError(
            f"corpus entry {name!r} must look like "
            "'family(k=v, ...) | family(k=v, ...)'")
    return CorpusEntry(
        name, _parse_params(name, FunctionSpec, m.group("ff"), m.group("fp")),
        _parse_params(name, WeightSpec, m.group("wf"), m.group("wp")))


def _corpus_of(section: dict[str, str]) -> tuple[CorpusEntry, ...]:
    """The entries of a [corpus] section; its seed key is not an entry."""
    return tuple(_parse_entry(k, v) for k, v in section.items()
                 if k != "seed")


def _read_ini(path: str | Path) -> dict[str, dict[str, str]]:
    """section -> key -> text of an INI file, each value as written: no
    section is a default one, so [DEFAULT] is refused as unknown, and "%"
    is literal, as under --set.  A missing or unparsable file is a
    ValueError."""
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    parser.optionxform = str
    try:
        if not parser.read(str(path)):
            raise ValueError(f"config file {path} not found")
        return {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# config


# Range rules that several keys share: (test, message) pairs.
def _at_least(k: int) -> tuple:
    return (lambda v: v >= k, f"must be at least {k}")


_POSITIVE = (lambda v: v > 0, "must be positive")

# section -> key -> (type, default text, *rules).  A rule is a (test,
# message) pair, tested in order, so that every subcommand refuses a value
# out of range whether or not it reads the key.  Each float test is a
# comparison that NaN fails; _convert refuses NaN for every other float key.
# A key whose default is empty may stay empty, which makes its field None
# and is not tested.  An empty output.dir would mean the current directory.
# The code using a value keeps its own checks (GridFunction, ScaleGrid,
# dyadic_cubes, cz_decompose).
_SCHEMA: dict[str, dict[str, tuple]] = {
    "grid": {"n": (int, "1", (lambda v: v in (1, 2), "must be 1 or 2")),
             "L": (float, "1.0", _POSITIVE),
             "N": (int, "2048", _at_least(1),
                   (lambda v: v & (v - 1) == 0, "must be a power of two"))},
    "scales": {"M": (int, "64", _at_least(2)),
               "t_min": (float, "", _POSITIVE),
               "t_max": (float, "", _POSITIVE)},
    "family": {"max_level": (int, "6", _at_least(0))},
    "corpus": {"seed": (int, "1234", (lambda v: v >= 0,
                                      "must be non-negative"))},
    "tolerances": {
        "kernel": (str, "poisson-derivative"),
        "sigma": (float, "2.718281828459045",
                  (lambda v: v > 1, "must exceed 1")),
        "max_gen": (int, "5", _at_least(1)),
        "lambda_nodes": (int, "32", _at_least(1)),
    },
    "output": {"dir": (str, "out", (lambda v: v != "", "must not be empty"))},
}

# One run's settings, each converted and checked once by load_config: one
# field per _SCHEMA key, in its order.  text keeps every setting as
# section -> key -> text, the form the manifest records; corpus is the
# [corpus] entries, or the built-in corpus when the section declares none.
RunConfig = make_dataclass(
    "RunConfig",
    [*((key, kind) for keys in _SCHEMA.values()
       for key, (kind, *_) in keys.items()),
     ("corpus", tuple[CorpusEntry, ...]),
     ("text", dict[str, dict[str, str]])],
    frozen=True)
RunConfig.__module__ = __name__


def _convert(section: str, key: str, text: str):
    kind, default, *rules = _SCHEMA[section][key]
    if text == "" and default == "":
        return None
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{section}.{key}={text!r} is not a valid "
                         f"{kind.__name__}") from None
    if kind is float and math.isinf(value):
        raise ValueError(f"{section}.{key}={text!r} is not finite")
    for test, message in rules:
        if not test(value):
            raise ValueError(f"{section}.{key} {message}")
    if kind is float and math.isnan(value):
        raise ValueError(f"{section}.{key}={text!r} is not a number")
    return value


def _normal_power(x: float, n: int) -> bool:
    """Whether x**n is a positive normal float."""
    try:
        return sys.float_info.min <= x**n <= sys.float_info.max
    except OverflowError:
        return False


def _check_scaling(n: int, L: float, N: int, t_min: float | None,
                   t_max: float | None) -> None:
    """Refuses a grid whose squared spacing (L/N)^2 or squared side L^2, or
    a set scale window endpoint whose t^n, is not a positive normal float.
    Every squared distance of the grid lies between the first two, which
    in 2D are the cell and box volumes and in 1D bound them; sampled
    kernels scale by t^-n.  The default endpoints 2h and L/4 lie between
    L/N and L wherever the default window is not empty (N >= 16).  Refuses
    too a window whose ratio t_max/t_min overflows, since the scale weights
    are its logarithm over M-1."""
    if not (_normal_power(L / N, 2) and _normal_power(L, 2)):
        raise ValueError(f"grid.L={L!r}: the squared spacing (L/N)^2 or the "
                         f"squared side L^2 of the N={N} grid is not a "
                         f"positive normal float")
    for key, t in (("t_min", t_min), ("t_max", t_max)):
        if t is not None and not _normal_power(t, n):
            raise ValueError(f"scales.{key}={t!r}: t^{n} on the {n}D grid "
                             f"is not a positive normal float")
    lo = 2.0 * (L / N) if t_min is None else t_min
    hi = L / 4.0 if t_max is None else t_max
    if math.isinf(hi / lo):
        raise ValueError(f"scales.t_min={lo!r} and scales.t_max={hi!r}: the "
                         f"ratio t_max/t_min of the scale window overflows")


def load_config(path: str | Path | None = None,
                overrides: tuple[str, ...] = ()) -> RunConfig:
    """Defaults, then the INI file at path, then section.key=value
    overrides; a refused setting is a ValueError naming its key."""
    text = {s: {k: d for k, (_, d, *_) in keys.items()}
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
    _check_scaling(*(values[k] for k in ("n", "L", "N", "t_min", "t_max")))
    shipped = [name for names in SHIPPED_KERNELS[values["n"]]
               for name in names]
    if values["kernel"] not in shipped:
        raise ValueError(f"tolerances.kernel: no kernel {values['kernel']!r} "
                         f"ships in dimension {values['n']}; valid: "
                         f"{', '.join(shipped)}")
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
    # a NumPy float's repr names its type under NumPy 2
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
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


def unwritable(out_dir: str | Path, exc: OSError) -> str:
    """The refusal of an output directory that cannot be created or
    written."""
    return f"output.dir {str(out_dir)!r} cannot be written: {exc}"


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
    # peak resident set size in MiB of the launching process and of each
    # forked chunk child, in corpus order; no chunks when none was forked
    peak_rss_mib: dict = field(
        default_factory=lambda: {"launcher": None, "chunks": []})
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
        # the fields in order, then all_passed, are the JSON keys; json
        # reads the records in place, so they are not copied first
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["timings"] = [{"stage": s, "seconds": t}
                              for s, t in self.timings]
        payload["all_passed"] = self.all_passed
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
