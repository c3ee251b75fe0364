"""Batch front end: config parsing, dispatch, exit codes, reproducible CSVs."""

import csv
import hashlib
import os

import pytest

import diffeolab as dl
from diffeolab.action import PROBE_KINDS, ProbeReport
from diffeolab.cli import main
from diffeolab.config import load_config, parse_generator_spec
from diffeolab.errors import ConfigError
from diffeolab.reports import emit_probe
from diffeolab.zassenhaus import FlattenParams, flatten

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_flatten_end_to_end(tmp_path):
    out = tmp_path / "run"
    rc = main(["flatten", "--config", cfg_path("flatten_pp_eps05.ini"),
               "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["flatten_detail.csv", "flatten_summary.csv"]
    header = (out / "flatten_summary.csv").read_text().splitlines()[0]
    assert header == "n,candidates,buckets,best_certified,status"


def test_unknown_command_is_config_error(tmp_path):
    rc = main(["frobnicate", "--config", cfg_path("flatten_pp_eps05.ini"),
               "--out", str(tmp_path)])
    assert rc == 4


def test_command_mismatch_is_config_error(tmp_path):
    rc = main(["probe", "--config", cfg_path("flatten_pp_eps05.ini"),
               "--out", str(tmp_path)])
    assert rc == 4


def test_missing_config_is_config_error(tmp_path):
    rc = main(["flatten", "--config", str(tmp_path / "nope.ini")])
    assert rc == 4


def test_equal_generators_precondition(tmp_path):
    cfg = tmp_path / "dup.ini"
    cfg.write_text(
        "[experiment]\ncommand = flatten\n\n[generators]\n"
        "f = spline knots=0:0,0.1:0.251,0.9:0.349,1:1\n"
        "g = spline knots=0:0,0.1:0.251,0.9:0.349,1:1\n\n"
        "[flatten]\nepsilon = 0.5\n")
    rc = main(["flatten", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3


@pytest.mark.parametrize("grid_n", [0, 1, -3])
def test_flatten_grid_n_below_two_is_a_precondition_error(tmp_path, grid_n):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(
        "[experiment]\ncommand = flatten\n\n[generators]\npreset = pp\n\n"
        f"[flatten]\nepsilon = 0.5\nn_max = 3\ngrid_n = {grid_n}\n")
    out = tmp_path / "o"
    assert main(["flatten", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists() or os.listdir(out) == []


def test_generator_spec_parsing():
    built = {}
    m = parse_generator_spec("f", "mobius lam=2", built)
    assert m.family == "mobius"
    built["s"] = parse_generator_spec(
        "s", "spline knots=0:0,0.1:0.251,0.9:0.349,1:1 end_slopes=1,1", built)
    b = parse_generator_spec("h", "blend base=s t=0.01", built)
    assert b.family == "blend"
    with pytest.raises(ConfigError):
        parse_generator_spec("x", "warp a=1", built)
    with pytest.raises(ConfigError):
        parse_generator_spec("x", "mobius", built)
    with pytest.raises(ConfigError):
        parse_generator_spec("x", "blend base=nope t=0.1", built)


def test_config_validation(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\ncommand = nothing\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text("[flatten]\nepsilon = 0.5\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize("command, text", [
    ("certify", "[generators]\npreset = pp\n\n[certify]\ni = 0.25,abc\n"),
    ("transport", "[generators]\npreset = wreath\n\n[wreath]\ncore = 0.40,zz\n\n"
                  "[transport]\nx0 = 0.41\ndelta_len = 0.05\nepsilon = 0.1\n"
                  "lambda = 1.1\n"),
    ("transport", "[generators]\npreset = wreath\n\n[wreath]\nepsilon = abc\n\n"
                  "[transport]\nx0 = 0.41\ndelta_len = 0.05\nepsilon = 0.1\n"
                  "lambda = 1.1\n"),
    ("wreath", "[wreath]\ncore = 0.40,zz\n"),
    ("wreath", "[wreath]\nk = three\n"),
], ids=["certify-i", "transport-core", "transport-epsilon", "wreath-core", "wreath-k"])
def test_malformed_numbers_are_config_errors(tmp_path, command, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[experiment]\ncommand = {command}\n\n{text}")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_config_error(tmp_path, capsys, threads):
    rc = main(["probe", "--config", cfg_path("probe_pp.ini"),
               "--out", str(tmp_path / "o"), "--threads", threads])
    assert rc == 4
    assert "threads must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


PROBE_TAIL = "[generators]\npreset = pp\n\n[probe]\nx0 = 0.5\nn = 3\n"


@pytest.mark.parametrize("text", [
    b"[experiment]\ncommand = probe\nthreads = abc\n\n" + PROBE_TAIL.encode(),
    b"[experiment]\ncommand = probe\nthreads = 2.5\n\n" + PROBE_TAIL.encode(),
    b"[experiment]\ncommand = probe\ntime_budget = soon\n\n" + PROBE_TAIL.encode(),
    b"[experiment]\ncommand = probe\n\n[generators\npreset = pp\n",
    b"[experiment]\ncommand = probe\ncommand = probe\n\n" + PROBE_TAIL.encode(),
    b"[experiment]\ncommand = probe\nout = \xff\n\n" + PROBE_TAIL.encode(),
    b"[experiment]\ncommand = probe\nout = 50%\n\n" + PROBE_TAIL.encode(),
], ids=["threads-abc", "threads-2.5", "budget-soon", "missing-bracket",
        "duplicate-key", "non-utf8", "bare-percent"])
def test_malformed_config_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text)
    rc = main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("budget", ["0", "-1", "0.0", "nan"])
def test_time_budget_not_positive_is_config_error(tmp_path, capsys, budget):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[experiment]\ncommand = probe\ntime_budget = {budget}\n\n"
                   + PROBE_TAIL)
    rc = main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "time_budget must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("budget, seconds", [("none", None), ("", None),
                                             ("1e-9", 1e-9), ("30", 30.0)])
def test_time_budget_values(tmp_path, budget, seconds):
    cfg = tmp_path / "ok.ini"
    cfg.write_text(f"[experiment]\ncommand = probe\ntime_budget = {budget}\n\n"
                   + PROBE_TAIL)
    assert load_config(str(cfg)).time_budget_s == seconds


@pytest.mark.parametrize("kind", ["displacment", "none", ""])
def test_unknown_probe_kind_is_config_error(tmp_path, capsys, monkeypatch, kind):
    # The message lists the kinds from the table, so a new kind joins it.
    monkeypatch.setitem(PROBE_KINDS, "c0", PROBE_KINDS["displacement"])
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\ncommand = probe\n\n[generators]\npreset = pp\n\n"
                   f"[probe]\nx0 = 0.5\nn = 3\nkind = {kind}\n")
    rc = main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "probe kind must be one of both, displacement, deriv_gap, c0" \
        in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("tail", [
    "[generators]\npreset = pp\n\n[probe]\nx0 = 0.41\nn = 7\n",
    "[generators]\npreset = pp\n\n[probe]\nx0 = 0.5\nn = 8\ncap = 200\n",
    "[generators]\npreset = wreath\n\n[wreath]\nepsilon = 0.1\ncore = 0.40,0.42\n"
    "k = 3\n\n[probe]\nx0 = 0.405\nn = 6\n",
], ids=["pp", "pp-capped", "wreath"])
def test_single_kind_probe_is_its_lines_of_both(tmp_path, tail, threads):
    # No shipped config pins a single-kind probe.csv; this pins its bytes to
    # the both-kind file's, which the shipped digests do pin.
    lines = {}
    for kind in ("both", "displacement", "deriv_gap"):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(f"[experiment]\ncommand = probe\n\n{tail}kind = {kind}\n")
        out = tmp_path / kind
        rc = main(["probe", "--config", str(cfg), "--out", str(out), "--threads", threads])
        assert rc == (2 if "cap" in tail else 0)
        lines[kind] = (out / "probe.csv").read_text().splitlines(keepends=True)
    header, *both = lines.pop("both")
    for kind, got in lines.items():
        mine = [line for line in both if line.startswith(kind + ",")]
        assert mine and mine[-1].split(",")[4] != ""  # the argmin on the last row
        assert got == [header] + mine


def test_empty_probe_report_header_only(tmp_path):
    rep = ProbeReport(x0=0.5, n=0, complete=True)
    paths = emit_probe(rep, str(tmp_path))
    text = open(paths[0]).read()
    assert text == "kind,n,x0,min_value,argmin,min_positive,zero_words,complete\n"


def test_capped_probe_writes_its_argmins_on_the_last_rows(tmp_path):
    rep = dl.probe_ball(dl.build_pp(), 8, 0.5, cap=200)
    assert not rep.complete and len(rep.rows) == 4
    with open(emit_probe(rep, str(tmp_path))[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["kind"], r["n"], r["argmin"]) for r in rows[-2:]] == [
        ("displacement", "4", rep.minima["displacement"].argmin.text),
        ("deriv_gap", "4", rep.minima["deriv_gap"].argmin.text)]
    assert all(r["argmin"] == "" for r in rows[:-2])


def test_probe_stops_at_its_time_budget(tmp_path):
    # The cap alone lets four levels run; the budget is spent before the first.
    cfg = tmp_path / "budget.ini"
    cfg.write_text("[experiment]\ncommand = probe\ntime_budget = 0.000001\n\n"
                   "[generators]\npreset = pp\n\n[probe]\nx0 = 0.5\nn = 8\ncap = 200\n")
    assert main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    text = (tmp_path / "o" / "probe.csv").read_text()
    assert text == "kind,n,x0,min_value,argmin,min_positive,zero_words,complete\n"


def test_explicit_zero_c1_meets_validation(tmp_path, capsys):
    # An explicit 0 used to stand for "use the default".
    cfg = tmp_path / "c1.ini"
    cfg.write_text("[experiment]\ncommand = collision\n\n[generators]\n"
                   "preset = wreath\n\n[collision]\nx0 = 0.5\nc = 0.5\n"
                   "lambda = 1.1\nepsilon = 0.0911\nn_max = 6\nc1 = 0\n")
    assert main(["collision", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "C1 must be positive" in capsys.readouterr().out


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["probe", "--config", cfg_path("probe_pp.ini"),
                     "--out", str(out)]) == 0
    assert hash_dir(a) == hash_dir(b)


def test_thread_count_invariant(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t8"
    for out, k in ((a, "1"), (b, "8")):
        assert main(["probe", "--config", cfg_path("probe_pp.ini"),
                     "--out", str(out), "--threads", k]) == 0
    assert hash_dir(a) == hash_dir(b)


def test_growth_and_certify(tmp_path):
    assert main(["growth", "--config", cfg_path("growth_pp.ini"),
                 "--out", str(tmp_path / "g")]) == 0
    lines = (tmp_path / "g" / "growth.csv").read_text().splitlines()
    assert lines[0] == "n,sphere_size,ball_size,omega_estimate"
    assert lines[3].startswith("2,12,17,")
    assert main(["certify", "--config", cfg_path("certify_pp.ini"),
                 "--out", str(tmp_path / "c")]) == 0


@pytest.mark.parametrize("n", [-1, 2000])
def test_growth_radius_out_of_range_is_a_precondition_error(tmp_path, capsys, n):
    # -1 has an empty ball; at 2000 the ball's size overflows a float.
    cfg = tmp_path / "growth.ini"
    cfg.write_text("[experiment]\ncommand = growth\n\n[generators]\npreset = pp\n\n"
                   f"[growth]\nn = {n}\n")
    out = tmp_path / "o"
    assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().out.startswith("precondition: ")


def test_probe_at_radius_12_is_thread_count_invariant(tmp_path):
    # The outermost level has 708,588 rows, past the pool threshold, so the
    # three-thread run streams it in blocks on the pool.
    cfg = tmp_path / "probe12.ini"
    cfg.write_text("[experiment]\ncommand = probe\n\n[generators]\npreset = pp\n\n"
                   "[probe]\nx0 = 0.41\nn = 12\nkind = both\n")
    runs = {}
    for k in ("1", "3"):
        out = tmp_path / f"t{k}"
        assert main(["probe", "--config", str(cfg), "--out", str(out), "--threads", k]) == 0
        runs[k] = (out / "probe.csv").read_bytes()
    assert runs["1"] == runs["3"]


@pytest.mark.parametrize("command", ["transport", "collision"])
def test_searches_run_on_the_requested_threads(tmp_path, monkeypatch, command):
    # The shipped transport reaches a level of 708,588 rows, past the pool
    # threshold.  The shipped collision stops at level 1, so its blocks are
    # made one row long.  Every level reaches the pool with --threads.
    if command == "collision":
        monkeypatch.setattr(dl.action, "_PARALLEL_MIN", 1)
    pools = []
    blocks = dl.action.map_row_blocks
    monkeypatch.setattr(dl.action, "map_row_blocks", lambda fn, rows, threads, *args:
                        pools.append(threads) or blocks(fn, rows, threads, *args))
    runs = {}
    for k in ("1", "3"):
        out = tmp_path / f"t{k}"
        pools.clear()
        assert main([command, "--config", cfg_path(f"{command}_wreath.ini"),
                     "--out", str(out), "--threads", k]) == 0
        assert set(pools) == {int(k)}
        runs[k] = hash_dir(out)
    assert runs["1"] == runs["3"]


def test_escape_cap_exit_reports_the_best_point(tmp_path, capsys):
    # The escape search stops at its cap: lab exits 2 and still writes both
    # flatten tables, with the status, the stop reason and the best point.
    cfg = tmp_path / "cap.ini"
    cfg.write_text("[experiment]\ncommand = flatten\n\n[generators]\npreset = pp\n\n"
                   "[flatten]\nepsilon = 0.1\nescape_cap = 3\n")
    out = tmp_path / "o"
    assert main(["flatten", "--config", str(cfg), "--out", str(out)]) == 2
    line = capsys.readouterr().out
    f, g = dl.build_pp().generators
    cert = dl.check_pingpong(f, g, dl.Interval(*dl.PP_I), dl.Interval(*dl.PP_J))
    report = flatten(f, g, cert, 0.1, FlattenParams(0.1, escape_cap=3))
    assert report.status == "cap_exhausted" and report.w is None and not report.rows
    zone = dl.Interval(1.0 - report.delta * report.theta_n ** -4, 1.0)
    with pytest.raises(dl.CapExhausted) as exc:
        dl.find_escape_word(dl.GeneratorSet([f, g]), 1.0 / report.grid_n, zone, cap=3)
    assert 0.0 < exc.value.best < zone.lo
    assert report.notes == ("stopped: escape search cap exhausted",
                            f"best escape point {exc.value.best:.17g}")
    assert line.startswith(f"flatten cap_exhausted {'; '.join(report.notes)} ")
    assert sorted(os.listdir(out)) == ["flatten_detail.csv", "flatten_summary.csv"]
    assert (out / "flatten_summary.csv").read_text() == "n,candidates,buckets,best_certified,status\n"
    with open(out / "flatten_detail.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["status"] == "cap_exhausted" and row["w"] == row["v"] == row["m"] == ""
    audits = ("lemma1_violations", "suffix_violations", "theta_audit_checked",
              "theta_audit_violations")
    assert [row[k] for k in audits] == [""] * 4  # nothing was audited
    assert row["notes"] == "; ".join(report.notes)
    assert float(row["grid_n"]) == report.grid_n and float(row["delta"]) == report.delta
