"""Corpus realization, config handling, and report emission tests."""

import json
import math
import re
from dataclasses import FrozenInstanceError, asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsquare.grid import periodic_displacement
from lpsquare.report import (
    FUNCTION_FAMILIES,
    WEIGHT_FAMILIES,
    CorpusEntry,
    FunctionSpec,
    RunConfig,
    RunManifest,
    StageTimer,
    Table,
    WeightSpec,
    _SCHEMA,
    _corpus_of,
    _read_ini,
    default_corpus,
    emit_report,
    load_config,
    realize_function,
    realize_weight,
    table_csv,
)

FN = FunctionSpec
WT = WeightSpec


# ---------------------------------------------------------------------------
# corpus


def test_default_corpus_covers_every_family():
    corpus = default_corpus()
    assert len(corpus) == 12
    fams = {e.function.family for e in corpus}
    wfams = {e.weight.family for e in corpus}
    assert fams == {"step", "sawtooth", "sine", "log-spike",
                    "random-martingale"}
    assert wfams == {"constant", "power-regularized", "piecewise"}
    assert len({e.name for e in corpus}) == 12


def test_default_corpus_realizes_deterministically():
    for entry in default_corpus():
        f1, w1 = entry.realize(1, 1.0, 256, base_seed=1234)
        f2, w2 = entry.realize(1, 1.0, 256, base_seed=1234)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(w1.values, w2.values)
        assert np.all(np.isfinite(f1.values))
        assert np.all(w1.values > 0)


def test_corpus_weights_have_small_dynamic_range():
    # measure-decay slack at deep generations needs flat-ish weights
    for entry in default_corpus():
        _, w = entry.realize(1, 1.0, 512, base_seed=1234)
        ratio = float(w.values.max() / w.values.min())
        assert ratio < math.e, entry.name


def test_martingale_seed_sensitivity():
    spec_a = FN("random-martingale", seed=5)
    spec_b = FN("random-martingale", seed=6)
    fa = realize_function(spec_a, 1, 1.0, 128, base_seed=0)
    fb = realize_function(spec_b, 1, 1.0, 128, base_seed=0)
    fa2 = realize_function(spec_a, 1, 1.0, 128, base_seed=0)
    assert not np.array_equal(fa.values, fb.values)
    assert np.array_equal(fa.values, fa2.values)
    fc = realize_function(spec_a, 1, 1.0, 128, base_seed=9)
    assert not np.array_equal(fa.values, fc.values)


def test_profiles_are_resolution_consistent():
    # all families sample fixed underlying objects: refining by 2 repeats
    # step/piecewise/martingale samples and agrees elsewhere
    for fam, kw in (("random-martingale", {"seed": 3}),
                    ("step", {}),):
        spec = FN(fam, seed=kw.get("seed", 0))
        coarse = realize_function(spec, 1, 1.0, 256, base_seed=1).values
        fine = realize_function(spec, 1, 1.0, 512, base_seed=1).values
        assert np.array_equal(fine.reshape(256, 2)[:, 0], coarse)


def test_logspike_profile_shape():
    f = realize_function(FN("log-spike"), 1, 1.0, 4096)
    assert f.values.max() == pytest.approx(math.log(1024.0), rel=1e-12)
    assert f.values.min() >= 0.0


def test_two_dimensional_realization():
    f = realize_function(FN("sine", (("k", 2.0),)), 2, 1.0, 32)
    w = realize_weight(WT("piecewise", seed=4), 2, 1.0, 32)
    assert f.values.shape == (32, 32)
    assert w.values.shape == (32, 32)
    assert float(w.values.max() / w.values.min()) < math.e


def test_unknown_families_rejected_with_listing():
    with pytest.raises(ValueError, match="random-martingale"):
        FN("brownian")
    with pytest.raises(ValueError, match="piecewise"):
        WT("lognormal")
    with pytest.raises(ValueError, match="valid: a, x0, width, seed"):
        FN("step", (("xo", 0.3),))


def test_readme_table_lists_every_declared_parameter_and_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (function|weight) \| ([^|]*) \|",
                      readme, re.MULTILINE)
    declared = {**{f: ("function", r) for f, r in FUNCTION_FAMILIES.items()},
                **{f: ("weight", r) for f, r in WEIGHT_FAMILIES.items()}}
    assert [family for family, _, _ in rows] == list(declared)
    for family, kind, params in rows:
        assert kind == declared[family][0], family
        defaults = declared[family][1].__kwdefaults__
        table = re.findall(r"`(\w+)=([^`]+)`", params)
        assert [key for key, _ in table] == list(defaults), family
        for key, text in table:
            assert float(Fraction(text)) == defaults[key], (family, key)


@pytest.mark.parametrize("n", [1, 2])
def test_distance_families_read_the_periodic_distance(n):
    # |x - x0| is the absolute periodic displacement in 1D, the Euclidean
    # norm of the per-axis displacements in 2D
    L, N = 2.0, 32
    x = np.arange(N) * (L / N)
    parts = [periodic_displacement(c, 0.3 * L, L)
             for c in np.meshgrid(*(x,) * n, indexing="ij")]
    d = np.abs(parts[0]) if n == 1 else np.sqrt(parts[0] ** 2 + parts[1] ** 2)
    f = realize_function(FN("log-spike", (("x0", 0.3),)), n, L, N)
    w = realize_weight(WT("power-regularized", (("alpha", 0.5), ("x0", 0.3))),
                       n, L, N)
    assert f.values.tobytes() == \
        (-np.log(np.maximum(d, L / 1024.0) / L)).tobytes()
    assert w.values.tobytes() == \
        ((np.maximum(d, L / 64.0) / L) ** 0.5).tobytes()


# ---------------------------------------------------------------------------
# corpus files


def test_build_corpus_from_file(tmp_path):
    path = tmp_path / "corpus.ini"
    path.write_text(
        "[corpus]\n"
        "seed = 7\n"
        "mypair = sine(k=4, a=2.0) | power-regularized(alpha=0.3, seed=2)\n"
        "other = random-martingale(seed=9) | constant(c=1.5)\n")
    cfg = load_config(path)
    corpus = cfg.corpus
    assert cfg.seed == 7
    assert [e.name for e in corpus] == ["mypair", "other"]
    first = corpus[0]
    assert first.function.family == "sine"
    assert dict(first.function.params) == {"k": 4.0, "a": 2.0}
    assert first.weight.seed == 2
    assert corpus[1].weight.params == (("c", 1.5),)
    assert corpus[1].function.seed == 9


def test_build_corpus_empty_file_gives_empty_corpus(tmp_path):
    # the file itself declares no entries; load_config then substitutes
    # the built-in corpus (test_config_corpus_defaults_when_no_entries)
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert len(_corpus_of(_read_ini(path).get("corpus", {}))) == 0
    path2 = tmp_path / "nocorpus.ini"
    path2.write_text("[grid]\nN = 64\n")
    assert len(_corpus_of(_read_ini(path2).get("corpus", {}))) == 0
    assert len(_corpus_of(load_config(path2).text["corpus"])) == 0


def test_build_corpus_errors(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[corpus]\npair = gaussian(k=1) | constant()\n")
    with pytest.raises(ValueError, match="sawtooth"):
        load_config(bad)
    malformed = tmp_path / "malformed.ini"
    malformed.write_text("[corpus]\npair = sine k=1\n")
    with pytest.raises(ValueError, match="must look like"):
        load_config(malformed)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
@pytest.mark.parametrize("side", ["function", "weight"])
def test_non_finite_corpus_parameter_is_refused(value, side):
    # step(x0=nan) would realize the zero function
    text = (f"step(x0={value}) | constant()" if side == "function"
            else f"step() | power-regularized(alpha={value})")
    key = "x0" if side == "function" else "alpha"
    with pytest.raises(ValueError) as err:
        load_config(overrides=(f"corpus.pair={text}",))
    assert str(err.value) == \
        f"corpus entry 'pair': {key}={value!r} is not finite"


@pytest.mark.parametrize("n", [1, 2])
def test_zero_function_is_refused_when_realized(n):
    entry = CorpusEntry("flat", FunctionSpec("step", (("width", 0.0),)),
                        WeightSpec("constant"))
    with pytest.raises(ValueError, match="corpus entry 'flat'"):
        entry.realize(n, 1.0, 32)


def _entry(text: str) -> CorpusEntry:
    [entry] = load_config(overrides=(f"corpus.e={text}",)).corpus
    return entry


@pytest.mark.parametrize("text, message", [
    ("step(xo=0.3) | constant()",
     "step has no parameter 'xo'; valid: a, x0, width, seed"),
    ("log-spike(eps=0.1, X0=0.2) | constant()",
     "log-spike has no parameter 'X0'; valid: x0, eps, seed"),
    ("step() | piecewise(levels=2)",
     "piecewise has no parameter 'levels'; valid: level, lo, hi, seed"),
])
def test_undeclared_corpus_parameter_is_refused(text, message):
    with pytest.raises(ValueError) as err:
        _entry(text)
    assert str(err.value) == f"corpus entry 'e': {message}"


def test_every_family_accepts_a_seed():
    for family in FUNCTION_FAMILIES:
        assert _entry(f"{family}(seed=3) | constant()").function.seed == 3
    for family in WEIGHT_FAMILIES:
        assert _entry(f"step() | {family}(seed=4)").weight.seed == 4


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("function, value", [
    ("step(width=1)", "1.0"), ("step(width=3, a=-2)", "-2.0"),
    ("sawtooth(k=0)", "-0.5"),
    ("sine(k=0, phase=1)", ""),  # sin(1), whatever its last bit
    ("random-martingale(depth=0)", None)])
def test_constant_function_is_refused_when_realized(n, function, value):
    with pytest.raises(ValueError) as err:
        _entry(f"{function} | constant()").realize(n, 1.0, 32)
    what = "zero" if value is None else f"the constant {value}"
    assert str(err.value).startswith(
        f"corpus entry 'e': the function realizes to {what}")
    assert str(err.value).endswith(f" on the {n}D N=32 grid")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("weight", [
    "constant(c=0)", "constant(c=-1)", "piecewise(lo=-1, hi=-0.5)",
    "power-regularized(alpha=0.5, x0=0.5, eps=0)"])
def test_weight_not_strictly_positive_is_refused_when_realized(n, weight):
    with pytest.raises(ValueError) as err:
        _entry(f"step() | {weight}").realize(n, 1.0, 32)
    assert str(err.value).startswith(
        f"corpus entry 'e': the weight is not strictly positive on the "
        f"{n}D N=32 grid")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("level", [-1, 6, 9])
def test_piecewise_level_off_the_grid_is_refused_before_drawing(
        n, level, monkeypatch):
    def draw(*args):
        raise AssertionError("drew values")

    entry = _entry(f"step() | piecewise(level={level})")
    monkeypatch.setattr(np.random, "default_rng", draw)
    with pytest.raises(ValueError) as err:
        entry.realize(n, 1.0, 32)
    assert str(err.value) == (f"corpus entry 'e': piecewise level={level} "
                              "must lie between 0 and log2(N)=5")


def test_config_corpus_defaults_when_no_entries(tmp_path):
    assert load_config().corpus == default_corpus()
    # a file with no [corpus] entries, or none at all, keeps the default
    for name, text in (("empty.ini", ""), ("nocorpus.ini", "[grid]\nN = 64\n"),
                       ("seedonly.ini", "[corpus]\nseed = 3\n")):
        path = tmp_path / name
        path.write_text(text)
        assert load_config(path).corpus == default_corpus()


def test_config_accepts_every_default_entry_name():
    names = [e.name for e in default_corpus()] + ["v1.2 b", "..a", "-"]
    cfg = load_config(overrides=tuple(
        f"corpus.{name}=sine(k=2) | constant()" for name in names))
    assert [e.name for e in cfg.corpus] == names
    with pytest.raises(ValueError, match="'x/y' is not a plain file name"):
        load_config(overrides=("corpus.x/y=sine(k=2) | constant()",))


# ---------------------------------------------------------------------------
# config


def test_load_config_defaults_and_file(tmp_path):
    cfg = load_config()
    assert cfg.N == 2048
    assert cfg.text["grid"]["N"] == "2048"
    path = tmp_path / "run.ini"
    path.write_text("[grid]\nN = 128\n[output]\ndir = results\n")
    cfg = load_config(path)
    assert cfg.N == 128
    assert cfg.n == 1
    assert cfg.dir == "results"
    assert cfg.text["grid"]["N"] == "128"
    shipped = Path(__file__).parents[1] / "configs" / "default.ini"
    assert load_config(shipped) == load_config()


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nresolution = 64\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)
    # kernels are certified at the one tolerance kernels.TOL_VANISH
    path.write_text("[tolerances]\nvanish = 1e-6\n")
    for kwargs in ({"path": path},
                   {"overrides": ("tolerances.vanish=1e-6",)}):
        with pytest.raises(ValueError,
                           match=r"unknown config key tolerances\.vanish"):
            load_config(**kwargs)
    path2 = tmp_path / "bad2.ini"
    path2.write_text("[plotting]\nstyle = dark\n")
    with pytest.raises(ValueError, match="unknown config section"):
        load_config(path2)
    with pytest.raises(ValueError, match="not found"):
        load_config(tmp_path / "missing.ini")
    headless = tmp_path / "headless.ini"
    headless.write_text("N = 64\n")
    with pytest.raises(ValueError, match="no section headers"):
        load_config(headless)


@pytest.mark.parametrize("text", ["[DEFAULT]\nN = 64\n",
                                  "[DEFAULT]\nN = 64\n[grid]\nn = 1\n"])
def test_ini_default_section_is_refused(tmp_path, text):
    # configparser would ignore its keys alone and leak them into [grid]
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError,
                       match=r"unknown config section \[DEFAULT\]"):
        load_config(path)


def test_ini_values_are_read_as_written(tmp_path):
    # "%" is literal, as under --set, and names no other key
    path = tmp_path / "run.ini"
    path.write_text("[output]\ndir = run%1\n")
    assert load_config(path).dir == "run%1"
    assert load_config(path) == load_config(overrides=("output.dir=run%1",))
    path.write_text("[grid]\nN = 64\nL = %(N)s\n")
    with pytest.raises(ValueError,
                       match=re.escape("grid.L='%(N)s' is not a valid float")):
        load_config(path)


def test_shipped_config_lists_every_key_at_its_default():
    shipped = Path(__file__).parents[1] / "configs" / "default.ini"
    assert _read_ini(shipped) == {
        section: {key: default for key, (_, default, *_) in keys.items()}
        for section, keys in _SCHEMA.items()}


def test_run_config_has_one_field_per_schema_key_in_order():
    assert [f.name for f in fields(RunConfig)] == [
        *(key for keys in _SCHEMA.values() for key in keys),
        "corpus", "text"]
    assert RunConfig.__module__ == "lpsquare.report"
    with pytest.raises(FrozenInstanceError):
        load_config().N = 64


def test_overrides():
    cfg = load_config(overrides=("grid.N=4096", "tolerances.sigma=2.0"))
    assert cfg.N == 4096
    assert cfg.sigma == 2.0
    assert cfg.text["tolerances"]["sigma"] == "2.0"
    with pytest.raises(ValueError, match="section.key=value"):
        load_config(overrides=("N=4096",))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(overrides=("grid.mesh=5",))
    cfg2 = load_config(overrides=("corpus.extra=sine(k=1) | constant()",))
    assert [e.name for e in cfg2.corpus] == ["extra"]
    assert cfg2.text["corpus"]["extra"] == "sine(k=1) | constant()"
    assert "extra" not in load_config().text["corpus"]


KEYS = [f"{s}.{k}" for s, keys in load_config().text.items() for k in keys]
AWKWARD = ["", "0", "-1", "1.5", "inf", "-inf", "nan", "1e999", "abc", " 7 ",
           "sine(k=2) | constant()", "sine(k=x) | constant()"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.builds("{}={}".format, st.sampled_from(KEYS + ["corpus.pair"]),
              st.one_of(st.sampled_from(AWKWARD), st.text()))))
def test_any_override_gives_a_config_or_a_value_error(item):
    try:
        cfg = load_config(overrides=(item,))
    except ValueError:
        return
    assert isinstance(cfg, RunConfig)


# ---------------------------------------------------------------------------
# tables and emission


def test_table_csv_schema_and_floats():
    t = Table("demo", ("name", "value"), (("a", 0.5), ("b", 1.0 / 3.0)))
    text = table_csv(t)
    lines = text.split("\n")
    assert lines[0] == "name,value"
    assert lines[1] == "a,0.5"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0
    assert text.endswith("\n")
    with pytest.raises(ValueError, match="row width"):
        Table("bad", ("a", "b"), ((1.0,),))


def test_table_csv_writes_numpy_floats_as_plain_numbers():
    t = Table("demo", ("a", "b", "c"),
              ((np.float64(0.5), np.float32(0.25), np.float64(1.0 / 3.0)),))
    assert table_csv(t) == f"a,b,c\n0.5,0.25,{1.0 / 3.0!r}\n"


def test_emit_report_deterministic(tmp_path):
    tables = [
        Table("tail", ("lambda", "measured", "bound", "margin"),
              ((0.1, 0.5, 0.9, 1.8),), plot="tail"),
        Table("ratios", ("pair", "ratio"), (("x", 1.25),), plot="hist"),
        Table("plain", ("k", "v"), ((1, 2.0),)),
    ]
    first = emit_report(tables, tmp_path / "out")
    snapshots = {p.name: p.read_bytes() for p in first}
    second = emit_report(tables, tmp_path / "out")
    assert {p.name: p.read_bytes() for p in second} == snapshots
    names = sorted(snapshots)
    assert names == ["plain.csv", "ratios.csv", "ratios_plot.py",
                     "tail.csv", "tail_plot.py"]
    assert b"tail.csv" in snapshots["tail_plot.py"]
    assert b"semilogy" in snapshots["tail_plot.py"]


def test_emit_report_unwritable_destination(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(OSError):
        emit_report([Table("t", ("a",), ((1.0,),))], blocker / "sub")


# ---------------------------------------------------------------------------
# manifest


def test_manifest_roundtrip(tmp_path):
    m = RunManifest("theorem-suite", load_config().text, seed=1234)
    m.grid = {"n": 1, "L": 1.0, "N": 2048}
    m.kernels.append({"name": "poisson-derivative", "certified": True})
    timer = StageTimer()
    with timer.measure("corpus"):
        pass
    m.timings = timer.stages
    assert m.record("ratios-finite", True, "sup=3.2")
    assert not m.record("stability", False, "drift=0.2")
    assert not m.all_passed
    path = tmp_path / "manifest.json"
    m.write(path)
    payload = json.loads(path.read_text())
    assert payload["command"] == "theorem-suite"
    assert payload["all_passed"] is False
    assert payload["criteria"][0] == {
        "name": "ratios-finite", "passed": True, "detail": "sup=3.2"}
    assert payload["timings"][0]["stage"] == "corpus"
    assert payload["config"]["grid"]["N"] == "2048"


def test_manifest_text_equals_the_deep_copy_text(tmp_path):
    m = RunManifest("jn", load_config().text, seed=5)
    m.grid = {"n": 2, "L": 1.0, "N": 64}
    m.family = {"kind": "dyadic", "max_level": 5}
    m.kernels.append({"name": "poisson-derivative", "n": 2,
                      "certified": True, "residual": 1.5e-11,
                      "lambda_star": 8.0})
    m.timings = [("jn", 0.25), ("report", 0.0125)]
    m.record("tree-invariants:a", True, "nodes=3")
    m.record("tail-blo:a", False, "worst-margin=0.5000")
    cube = {"center": [0.25, 0.75], "side": 0.5, "level": 1}
    m.entries.append({"name": "a", "witnesses": {"blo": cube,
                                                 "blo_p:1.5": dict(cube)},
                      "tree": {"nodes_per_gen": [1, 2],
                               "blocks_visited": 7},
                      "tail_bounds": {"g": 1e-3, "gstar_8": 2e-3}})
    path = tmp_path / "manifest.json"
    m.write(path)
    expected = asdict(m)
    expected["timings"] = [{"stage": s, "seconds": t} for s, t in m.timings]
    expected["all_passed"] = m.all_passed
    assert path.read_text() == json.dumps(expected, indent=2) + "\n"
