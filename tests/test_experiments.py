import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymerlab.dynamics as dynamics
import polymerlab.experiments as ex
from polymerlab.experiments import (ConfigError, Report, StudyConfig,
                                    emit_report, load_config,
                                    parse_config_text,
                                    parse_report_csv, quantize12,
                                    read_report_jsonl, rows_to_csv,
                                    run_scaling_study, run_tail_probes,
                                    run_validation_suite,
                                    scaling_exact_r2, validation_manifest)
from polymerlab.dynamics import counter_rng, mode_innovation_std
from polymerlab.gibbs import SamplerDegeneracyError
from polymerlab.spectral import MAX_J, Convention, build_basis


def test_parse_config_text():
    text = """
# comment
J_list = 4, 8
T=32
beta = 0.1   # inline noise is not stripped, keep values clean
convention = paper
"""
    got = parse_config_text("J_list = 4,8\nT=32\nbeta=0.1\n# c\n\n"
                            "convention=paper\n")
    assert got == {"J_list": (4, 8), "T": 32, "beta": 0.1,
                   "convention": Convention.PAPER}
    assert text  # silence the unused literal


def test_parse_config_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("T=4\nbeta=0\nwat=1\n")


def test_parse_config_bad_value_and_shape():
    with pytest.raises(ConfigError):
        parse_config_text("replicates=abc\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a bare line\n")


def test_load_config_overrides(tmp_path):
    p = tmp_path / "study.cfg"
    p.write_text("T=64\nbeta=0.2\nseed=5\n")
    cfg = load_config(str(p), {"beta": 0.3, "T": None})
    assert cfg.T == 64          # None override means "not given"
    assert cfg.beta == 0.3
    assert cfg.seed == 5
    assert load_config(None, {"J_list": (4, 8)}).J_list == (4, 8)


@pytest.mark.parametrize("overrides", [{"T": "x"}, {"beta": "high"},
                                       {"seed": "1.5"}],
                         ids=["T", "beta", "seed"])
def test_load_config_bad_override_is_a_config_error(overrides):
    # the same error as the value in a config file
    with pytest.raises(ConfigError, match="override: bad value for"):
        load_config(overrides=overrides)


def test_load_config_defaults_rank_below_file_and_overrides(tmp_path):
    p = tmp_path / "study.cfg"
    p.write_text("J_list = 16\n")
    one = {"J_list": (8,)}
    assert load_config(None, {}, one).one_width() == 8
    assert load_config(str(p), {}, one).one_width() == 16
    assert load_config(str(p), {"J_list": "4"}, one).one_width() == 4
    with pytest.raises(ConfigError, match="one width expected"):
        load_config(None, {"J_list": "8,16"}, one).one_width()


def test_config_fields_and_parsers_name_the_same_keys():
    # a key in one only is either unreadable from a config file or
    # rejected by StudyConfig
    fields = {f.name for f in dataclasses.fields(StudyConfig)}
    assert fields == set(ex._FIELD_PARSERS)


def test_config_validation():
    for kw in ({"kappa": 0.7}, {"beta": -0.1}, {"epsilon": 0.0},
               {"J_list": ()}, {"J_list": (1, 4)},
               {"J_list": (8, MAX_J + 1)}, {"T": 0},
               {"sampler": "bogus"}, {"replicates": 0},
               {"T_list": (0, 4)}, {"T_list": (4, 8, 4)},
               {"ess_floor": 0.0},
               {"beta": np.inf}, {"beta": np.nan}, {"epsilon": np.inf},
               {"epsilon": np.nan}):
        with pytest.raises(ConfigError):
            StudyConfig(**kw)


def test_config_accepts_convention_string():
    assert StudyConfig(convention="paper").convention is Convention.PAPER
    assert StudyConfig().convention is Convention.LITERAL


def test_quantize12():
    x = 1.0 / 3.0
    q = quantize12(x)
    assert q == float(f"{q:.12g}")
    assert quantize12(q) == q
    assert abs(q - x) < 1e-12


def test_exact_r2_stationary_closed_forms():
    for J in (4, 8, 16):
        b = build_basis(J)
        got = scaling_exact_r2(b, T=64)
        assert got == pytest.approx((J ** 2 - 1) / (3 * J), rel=1e-12)
    for J, val in ((8, 7.0), (16, 35.0), (32, 155.0), (64, 651.0)):
        b = build_basis(J)
        got = scaling_exact_r2(b, T=16, conv=Convention.PAPER)
        assert got == pytest.approx(val, rel=1e-12)


def test_exact_r2_zero_init_matches_recursion():
    b = build_basis(6)
    T = 40
    # independent accumulation: per-mode variance recursion
    sig2 = mode_innovation_std(b, Convention.LITERAL)[1:] ** 2
    var = np.zeros(5)
    acc = 0.0
    for _ in range(T):
        var = b.rho[1:] ** 2 * var + sig2
        acc += var.sum()
    assert scaling_exact_r2(b, T, init="zero") == pytest.approx(
        acc / (T * 6), rel=1e-12)
    assert scaling_exact_r2(b, T, init="zero") < scaling_exact_r2(b, T)
    with pytest.raises(ValueError):
        scaling_exact_r2(b, T, init="warm")


def _stationary_mode_r_oracle(basis, T, reps, rng, conv):
    """The stationary mode loop as it was before it ran in place: fresh
    mode and noise arrays at every step, from the stationary deviation
    sig / sqrt(1 - rho^2) of each mode m >= 1."""
    sig = mode_innovation_std(basis, conv)[1:]
    rho = basis.rho[1:]
    sd = sig / np.sqrt(1.0 - rho ** 2)
    X = sd * rng.standard_normal((reps, len(rho)))
    acc = np.zeros(reps)
    for _ in range(T):
        X = rho * X + sig * rng.standard_normal((reps, len(rho)))
        acc += np.einsum("ij,ij->i", X, X)
    return np.sqrt(acc / (T * basis.J))


@pytest.mark.parametrize("conv", [Convention.LITERAL, Convention.PAPER])
@pytest.mark.parametrize("J", [1, 2, 9, 64])
def test_stationary_mode_r_equals_allocating_oracle(conv, J):
    b = build_basis(J)
    got = ex._stationary_mode_r(b, 17, 41, counter_rng(4, 10, J), conv)
    want = _stationary_mode_r_oracle(b, 17, 41, counter_rng(4, 10, J), conv)
    assert np.array_equal(got, want)


def _small_cfg(**kw):
    base = dict(J_list=(4, 8, 16), T=32, replicates=300, seed=3)
    base.update(kw)
    return StudyConfig(**base)


def test_scaling_free_study():
    rep = run_scaling_study(_small_cfg())
    assert rep.meta["n_used"] == 3
    assert all(r["sampler"] == "direct" for r in rep.rows)
    assert [r["J"] for r in rep.rows] == [4, 8, 16]
    for r in rep.rows:
        assert r["R_mean"] == pytest.approx(r["R_exact"], rel=0.05)
    assert 0.3 < rep.meta["fitted_exponent"] < 0.7


def test_scaling_study_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    r1 = run_scaling_study(_small_cfg(output_dir=str(d1)))
    r2 = run_scaling_study(_small_cfg(output_dir=str(d2)))
    assert r1 == r2
    assert (d1 / "scaling.csv").read_bytes() == \
        (d2 / "scaling.csv").read_bytes()
    assert (d1 / "scaling_summary.jsonl").read_bytes() == \
        (d2 / "scaling_summary.jsonl").read_bytes()
    header, rows = read_report_jsonl(str(d1 / "scaling_summary.jsonl"))
    assert header == {"schema_version": ex.SCHEMA_VERSION, "kind": "scaling",
                      **r1.meta}
    assert tuple(rows) == r1.rows


def test_scaling_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    # one worker shows the start order; at more, threads may record
    # their starts out of order
    cell = ex._scaling_cell
    started = []

    def recording_cell(config, J):
        started.append(J)
        return cell(config, J)

    monkeypatch.setattr(ex, "_scaling_cell", recording_cell)
    outputs = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(dynamics, "usable_cpus", lambda: workers)
        started.clear()
        d = tmp_path / str(workers)
        rep = run_scaling_study(_small_cfg(J_list=(8, 4, 16),
                                           output_dir=str(d)))
        assert [r["J"] for r in rep.rows] == [8, 4, 16]
        if workers == 1:
            assert started == [16, 8, 4]
        assert sorted(started) == [4, 8, 16]
        outputs.append([(d / name).read_bytes() for name in
                        ("scaling.csv", "scaling_summary.jsonl")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_scaling_importance_degenerates_and_raises():
    cfg = _small_cfg(beta=5.0, epsilon=1.0, replicates=80,
                     sampler="importance", T=16)
    with pytest.raises(SamplerDegeneracyError):
        run_scaling_study(cfg)


def test_scaling_auto_falls_back_to_metropolis():
    cfg = _small_cfg(beta=5.0, epsilon=0.5, replicates=60, sampler="auto",
                     T=16)
    # at beta = 5 the chain's whole-row moves are accepted about 3 % of
    # the time, under the tuning warning's 5 %
    with pytest.warns(RuntimeWarning, match="acceptance rate"):
        rep = run_scaling_study(cfg)
    assert all(r["sampler"] == "metropolis" for r in rep.rows)
    assert rep.meta["n_used"] == 3


def test_weighted_rms_quantiles_takes_weights():
    # the weights come max-shifted from gibbs._checked_weights, so they are
    # used as they are, not exponentiated again
    R = np.array([1.0, 2.0, 3.0, 4.0])
    rms, (q05, q95) = ex._weighted_rms_quantiles(R, np.array([0., 1, 0, 1]))
    assert rms == pytest.approx(np.sqrt((2.0 ** 2 + 4.0 ** 2) / 2), rel=1e-15)
    assert (q05, q95) == (2.0, 4.0)


@pytest.mark.parametrize("conv", ["literal", "paper"])
def test_scaling_importance_samples_the_stationary_law(conv):
    # importance must sample the same law as Metropolis and R_exact: the
    # stationary start under the configured convention
    cfg = StudyConfig(J_list=(8, 16, 32), T=64, beta=1e-6, replicates=400,
                      sampler="importance", convention=conv, seed=0)
    rep = run_scaling_study(cfg)
    for r in rep.rows:
        assert r["sampler"] == "importance"
        assert r["R_mean"] == pytest.approx(r["R_exact"], rel=0.05)


def test_tail_probe_requires_horizons():
    with pytest.raises(ConfigError):
        run_tail_probes(_small_cfg(), 0.1, 0.2)
    cfg = _small_cfg(J_list=(8,), T_list=(8, 16))
    with pytest.raises(ConfigError):
        run_tail_probes(cfg, 0.3, 0.2)
    with pytest.raises(ConfigError):
        run_tail_probes(cfg, -0.1, 0.2)


def test_tail_probe_trivial_thresholds():
    cfg = _small_cfg(J_list=(8,), T_list=(16, 32), replicates=1500)
    out = run_tail_probes(cfg, 0.0, 100.0)
    assert [r["T"] for r in out.rows] == [16, 32]
    for r in out.rows:
        assert r["lower_count"] == 0 and r["lower_prob"] == 0.0
        assert r["upper_count"] == 0 and r["upper_prob"] == 0.0
        assert r["sampler"] == "direct"
    assert (out.meta["lower_nonincreasing"]
            and out.meta["upper_nonincreasing"])


def test_tail_probe_interior_thresholds():
    cfg = _small_cfg(J_list=(8,), T_list=(16, 32), replicates=4000)
    out = run_tail_probes(cfg, 0.2, 0.25)
    # rms ~ 1.62 at J=8: both tails populated at these cuts
    assert all(r["lower_count"] > 0 for r in out.rows)
    assert all(r["upper_count"] > 0 for r in out.rows)
    for r in out.rows:
        assert r["lower_se"] > 0 and r["upper_se"] > 0


def test_validation_suite_green_and_manifested():
    rep = run_validation_suite(StudyConfig(seed=1))
    assert rep.meta["passed"]
    assert tuple(r["name"] for r in rep.rows) == validation_manifest()
    assert len(rep.rows) >= 12


def test_validation_crashed_check_is_failure(monkeypatch):
    def boom(config):
        raise RuntimeError("kaput")
    monkeypatch.setattr(ex, "_CHECKS", ex._CHECKS + [("boom", boom)])
    rep = run_validation_suite(StudyConfig(seed=1))
    assert not rep.meta["passed"]
    row = rep.rows[-1]
    assert row["name"] == "boom" and not row["passed"]
    assert "kaput" in row["detail"]


def test_rows_to_csv_empty_and_format():
    assert rows_to_csv(("a", "b"), []) == "a,b\n"
    text = rows_to_csv(("x", "flag", "miss"),
                       [{"x": 1.5, "flag": True, "miss": None}])
    assert text == "x,flag,miss\n1.5,true,\n"


def test_parse_report_csv_typing():
    rows = parse_report_csv("a,b,c,d\n3,2.5,true,word\n,,false,\n")
    assert rows[0] == {"a": 3, "b": 2.5, "c": True, "d": "word"}
    assert rows[1] == {"a": None, "b": None, "c": False, "d": None}


def test_emit_report_csv_round_trip(tmp_path):
    rep = run_scaling_study(_small_cfg())
    path = emit_report(rep, "csv", str(tmp_path))
    back = parse_report_csv(Path(path).read_text())
    for orig, parsed in zip(rep.rows, back):
        for k in ("J", "R_mean", "R_exact", "flagged"):
            if isinstance(orig[k], float):
                assert parsed[k] == pytest.approx(orig[k], abs=1e-12)
            else:
                assert parsed[k] == orig[k]


def test_emit_report_jsonl_schema(tmp_path):
    rep = run_validation_suite(StudyConfig(seed=1,
                                           output_dir=str(tmp_path)))
    meta, rows = read_report_jsonl(str(tmp_path / "validation.jsonl"))
    assert meta["schema_version"] == "1.0"
    assert meta["kind"] == "validation"
    assert meta["passed"] is True
    assert len(rows) == len(rep.rows)
    assert all(set(r) == {"name", "passed", "detail"} for r in rows)


def test_emit_report_bad_format(tmp_path):
    rep = run_validation_suite(StudyConfig(seed=1))
    with pytest.raises(ValueError):
        emit_report(rep, "xml", str(tmp_path))
    with pytest.raises(TypeError):
        emit_report(object(), "csv", str(tmp_path))


def test_json_lines_are_compact_and_sorted():
    line = ex._json_line({"b": 1.0 / 3.0, "a": "paper"})
    obj = json.loads(line)
    assert " " not in line
    assert obj["a"] == "paper"
    assert obj["b"] == quantize12(1.0 / 3.0)


# Round trips of the report and config formats.  Report floats are stored
# at 12 significant digits, so generated floats are quantize12'd first.

_report_floats = st.floats(allow_subnormal=False).map(quantize12)
_report_cells = st.one_of(st.none(), st.booleans(),
                          st.integers(-2 ** 62, 2 ** 62), _report_floats)


def _same(a, b):
    """Equal values of the same kind: nan matches nan, and a bool stays
    a bool (True == 1 would hide a bool read back as an int)."""
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _same_rows(a, b):
    return (len(a) == len(b)
            and all(ra.keys() == rb.keys()
                    and all(_same(ra[k], rb[k]) for k in ra)
                    for ra, rb in zip(a, b)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       fields=st.lists(st.text("abcdefgh_", min_size=1, max_size=6),
                       min_size=1, max_size=6, unique=True))
def test_csv_round_trip(data, fields):
    rows = data.draw(st.lists(st.fixed_dictionaries(
        {k: _report_cells for k in fields}), max_size=5))
    back = parse_report_csv(rows_to_csv(fields, rows))
    assert _same_rows(back, rows)


# each report kind's row fields, and its header keys with their values
_REPORT_KINDS = {
    "scaling": (ex._SCALING_FIELDS, {
        "convention": st.sampled_from([c.value for c in Convention]),
        "T": st.integers(1, 10 ** 9), "beta": _report_floats,
        "fitted_exponent": _report_floats, "exponent_se": _report_floats,
        "n_used": st.integers(0, 10 ** 6)}),
    "tails": (ex._TAIL_FIELDS, {
        "K1": _report_floats, "K2": _report_floats,
        "lower_nonincreasing": st.booleans(),
        "upper_nonincreasing": st.booleans()}),
    "validation": (("name", "passed", "detail"), {
        "passed": st.booleans(), "n_checks": st.integers(0, 10 ** 6),
        "manifest": st.lists(st.text(max_size=8), max_size=4)}),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_REPORT_KINDS)))
def test_jsonl_round_trip(data, kind):
    fields, meta_values = _REPORT_KINDS[kind]
    rows = data.draw(st.lists(st.fixed_dictionaries(
        {k: _report_cells for k in fields}), max_size=5), label="rows")
    meta = data.draw(st.fixed_dictionaries(meta_values), label="meta")
    report = Report(kind, fields, tuple(rows), meta)
    with tempfile.TemporaryDirectory() as out:
        header, back = read_report_jsonl(emit_report(report, "jsonl", out))
    assert list(header) == ["schema_version", "kind", *meta]
    assert header["schema_version"] == ex.SCHEMA_VERSION
    assert header["kind"] == kind
    assert all(_same(header[k], meta[k]) for k in meta)
    assert _same_rows(back, rows)


_config_text = st.text(st.characters(codec="ascii", categories=("L", "N"),
                                     include_characters="/._-=+ "),
                       max_size=12).map(str.strip)
_config_values = {
    "J_list": st.lists(st.integers(0, 10 ** 6)).map(tuple),
    "T": st.integers(-10 ** 9, 10 ** 9),
    "T_list": st.lists(st.integers(0, 10 ** 6)).map(tuple),
    "kappa": st.floats(),
    "beta": st.floats(),
    "epsilon": st.floats(),
    "convention": st.sampled_from(list(Convention)),
    "sampler": _config_text,
    "seed": st.integers(0, 2 ** 63),
    "replicates": st.integers(-10 ** 9, 10 ** 9),
    "ess_floor": st.floats(),
    "output_dir": _config_text,
}


def _config_line(key, value, pad, upper, comment):
    if isinstance(value, tuple):
        text = (", " if pad else ",").join(map(str, value))
    elif isinstance(value, Convention):
        text = value.value.upper() if upper else value.value
    else:
        text = repr(value) if isinstance(value, float) else str(value)
    sp = " " * pad
    return (f"{sp}{key}{sp}={sp}{text}{sp}"
            + (f"# {comment}" if comment is not None else ""))


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       keys=st.lists(st.sampled_from(sorted(_config_values)), unique=True))
def test_config_text_round_trip(data, keys):
    values = {k: data.draw(_config_values[k], label=k) for k in keys}
    lines = []
    for key, value in values.items():
        if data.draw(st.booleans(), label="comment line"):
            lines.append("# " + data.draw(st.text(max_size=8).filter(
                lambda c: len(c.splitlines()) <= 1), label="comment"))
        lines.append(_config_line(
            key, value, data.draw(st.integers(0, 2), label="pad"),
            data.draw(st.booleans(), label="upper"),
            data.draw(st.none() | _config_text, label="trailing comment")))
    back = parse_config_text("\n".join(lines) + "\n")
    assert back.keys() == values.keys()
    assert all(_same(back[k], values[k]) for k in values)
