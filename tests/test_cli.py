import argparse
import csv
import dataclasses
import importlib.metadata
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ordopt import cli, truncation
from ordopt.cli import main, parse_model, run_reproduce
from ordopt.populations import (
    Gaussian,
    Mirrored,
    Pareto,
    ShiftedExponential,
    TwoPoint,
)
from ordopt.truncation import worst_capping_error, worst_truncation_error


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def last_json(out):
    # strict: NaN, Infinity and -Infinity are not JSON
    return json.loads(out.strip().splitlines()[-1],
                      parse_constant=_no_constant)


@pytest.fixture
def models_ini(tmp_path):
    p = tmp_path / "models.ini"
    p.write_text("[a0]\nspec = empirical:0.2\n\n[a1]\nspec = empirical:0.8\n")
    return str(p)


class TestParseModel:
    def test_compact_strings(self):
        m = parse_model("two-point:1,0.6")
        assert isinstance(m, TwoPoint)
        assert (m.b, m.p_minus) == (1.0, 0.6)
        m = parse_model("pareto:3,0.55")
        assert isinstance(m, Pareto)
        assert (m.alpha_tail, m.scale) == (3.0, 0.55)

    def test_mirrored_nesting(self):
        m = parse_model("mirrored:shifted-exponential:0.96,1")
        assert isinstance(m, Mirrored)
        assert isinstance(m.base, ShiftedExponential)
        assert m.base.K == 0.96

    def test_empirical_points(self):
        m = parse_model("empirical:0.2;0.8")
        assert np.allclose(m.points, [0.2, 0.8])

    def test_defaults_apply(self):
        m = parse_model("gaussian")
        assert isinstance(m, Gaussian)
        assert (m.mu, m.sigma) == (0.0, 1.0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown type"):
            parse_model("weibull:2")
        with pytest.raises(ValueError, match="at most"):
            parse_model("bernoulli:0.3,0.4")
        with pytest.raises(ValueError, match="mirrored"):
            parse_model("mirrored:")


class TestRateEstimate:
    def test_explicit_values(self, capsys):
        code, out, _ = run_cli(capsys, ["rate-estimate", "--values",
                                        "1,-1,-1,-1", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["value"] == pytest.approx(math.log(2.0 / math.sqrt(3.0)),
                                             rel=1e-9)
        assert rec["theta_star"] == pytest.approx(0.5 * math.log(3.0),
                                                  rel=1e-9)
        assert rec["status"] == "interior"

    def test_one_signed_batch_is_infinite(self, capsys):
        code, out, _ = run_cli(capsys, ["rate-estimate", "--values", "1,2,3",
                                        "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["value"] == "inf"

    def test_model_draw_is_deterministic(self, capsys):
        argv = ["rate-estimate", "--model", "two-point:1,0.6", "--m", "12",
                "--seed", "3"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("value=")

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "rate.csv"
        code, _, _ = run_cli(capsys, ["rate-estimate", "--values",
                                      "1,-1,-1,-1", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "value,theta_star,status,iterations"
        assert float(lines[1].split(",")[0]) == pytest.approx(
            0.1438410362, abs=1e-9)

    def test_overflowing_shift_blames_x(self, capsys):
        # the batch is finite; its shift by x is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["rate-estimate",
                                              "--values=1e308,-1e308",
                                              "--x", "-1e308"])
        assert code == 2 and out == ""
        assert "the batch shifted by x = -1e+308 is not finite" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_are_validation_errors(self, capsys, bad):
        code, out, err = run_cli(capsys, ["rate-estimate", "--values",
                                          f"1,{bad},-1"])
        assert code == 2 and "finite" in err
        assert out == ""

    def test_input_mode_required(self, capsys):
        code, _, err = run_cli(capsys, ["rate-estimate"])
        assert code == 2 and "validation" in err
        code, _, _ = run_cli(capsys, ["rate-estimate", "--values", "1,-1",
                                      "--model", "gaussian"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["rate-estimate", "--model", "gaussian"])
        assert code == 2

    @pytest.mark.parametrize("extra,flag", [
        (["--m", "5", "--seed", "3"], "--m"), (["--seed", "3"], "--seed")])
    def test_values_reject_the_draw_flags(self, capsys, extra, flag):
        code, out, err = run_cli(capsys, ["rate-estimate", "--values",
                                          "1,-1,-1", *extra])
        assert code == 2 and out == ""
        assert f"does not read {flag}" in err


class TestMetaRate:
    def test_exponent_mode(self, capsys):
        code, out, _ = run_cli(capsys, ["meta-rate", "--model",
                                        "two-point:1,0.55", "--exponent",
                                        "--c1", "1", "--c2", "1", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["exponent"] == pytest.approx(0.104807375, abs=1e-6)
        assert rec["gamma_star"] == pytest.approx(0.0860550, abs=1e-5)

    def test_infimum_mode(self, capsys):
        code, out, _ = run_cli(capsys, ["meta-rate", "--model",
                                        "two-point:1,0.6", "--a",
                                        "0.0408219946", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["value"] == pytest.approx(0.0033748679, abs=2e-6)
        assert rec["theta_star"] == pytest.approx(0.287682, abs=1e-4)

    def test_pointwise_mode(self, capsys):
        code, out, _ = run_cli(capsys, [
            "meta-rate", "--model", "shifted-exponential:0.96,1",
            "--theta", "-2.133", "--nu", "0.6065306597126334", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["value"] == pytest.approx(0.2214557, abs=2e-6)

    @pytest.mark.parametrize("spec,a,value,theta", [
        ("gaussian:-0.2,1", "0.1", 0.027664, 0.47326),
        ("gaussian-mixture:0.3,5", "1.5", 0.035841, -0.87078)])
    def test_infimum_on_densities_survives_the_theta_grid_ends(
            self, capsys, spec, a, value, theta):
        # the grid's theta = -64 makes E W overflow a float
        code, out, err = run_cli(capsys, ["meta-rate", "--model", spec,
                                          "--a", a, "--json"])
        assert code == 0, err
        rec = last_json(out)
        assert rec["value"] == pytest.approx(value, abs=1e-6)
        assert rec["theta_star"] == pytest.approx(theta, abs=1e-4)

    def test_exactly_one_mode(self, capsys):
        code, _, err = run_cli(capsys, ["meta-rate", "--model", "gaussian",
                                        "--a", "0.5", "--exponent"])
        assert code == 2 and "exactly one" in err
        code, _, _ = run_cli(capsys, ["meta-rate", "--model", "gaussian"])
        assert code == 2

    def test_pointwise_status(self, capsys):
        # P(W <= nu) = 1e-20 at theta = 3 saturates at |alpha| = 2^30
        nu = math.exp(3.0 * float(Gaussian(-0.2, 1.0).quantile(1e-20)))
        code, out, _ = run_cli(capsys, ["meta-rate", "--model",
                                        "gaussian:-0.2,1", "--theta", "3",
                                        "--nu", repr(nu), "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["status"] == "alpha-cap"
        assert rec["alpha_star"] == -2.0 ** 30

    def test_certificate_without_a_tilt_is_validation(self, capsys):
        # X <= 0 keeps exp(-theta X) at or above 1 > e^{-1/2} at every
        # tilt
        code, out, err = run_cli(capsys, ["meta-rate", "--model",
                                          "mirrored:bernoulli:0.3",
                                          "--certificate", "--c1", "2",
                                          "--json"])
        assert code == 2 and out == ""
        assert "validation" in err and "range" in err

    def test_exponent_without_a_normal_level_is_numerical(self, capsys):
        # I(0) = 800: e^{-b} underflows at every level b above it
        code, out, err = run_cli(capsys, ["meta-rate", "--model",
                                          "gaussian:-40,1", "--exponent",
                                          "--c1", "1", "--c2", "1"])
        assert code == 3 and out == ""
        assert "numerical" in err

    @pytest.mark.parametrize("spec, name", [
        ("gaussian:-1e20,1", "Gaussian(mu=-1e+20"),
        ("gaussian-mixture:0.5,1e300", "GaussianMixture(p=0.5, mu=1e+300")])
    def test_empty_node_table_is_validation(self, capsys, spec, name):
        # no node of these tables keeps a positive weight in floats, so
        # there is no law to solve on: a validation error, not a traceback
        code, out, err = run_cli(capsys, ["meta-rate", "--model", spec,
                                          "--theta", "0.5", "--nu", "0.5"])
        assert code == 2 and out == ""
        assert "validation" in err and name in err and "node" in err

    def test_seed_is_not_an_option(self, capsys):
        # meta-rate draws no samples
        with pytest.raises(SystemExit) as exc:
            main(["meta-rate", "--seed", "1", "--model", "two-point:1,0.55",
                  "--exponent", "--c1", "1", "--c2", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["two-point:1,0.6", "--a", "0.05", "--nu", "0.3"],
         "--a does not read --nu"),
        (["two-point:1,0.6", "--theta", "0.5", "--nu", "0.8", "--c1", "3"],
         "--theta does not read --c1"),
        (["shifted-exponential:0.96,1", "--certificate", "--c1", "5",
          "--c2", "7"], "--certificate does not read --c2"),
        (["two-point:1,0.55", "--exponent", "--c1", "1", "--c2", "1",
          "--nu", "0.5"], "--exponent does not read --nu"),
        (["two-point:1,0.6", "--theta", "0.5"], "--theta needs --nu"),
        (["two-point:1,0.55", "--exponent", "--c2", "1"],
         "--exponent needs --c1"),
        (["two-point:1,0.55", "--exponent", "--c1", "1"],
         "--exponent needs --c2"),
        (["shifted-exponential:0.96,1", "--certificate"],
         "--certificate needs --c1")])
    def test_each_mode_reads_exactly_its_flags(self, capsys, argv, message):
        code, out, err = run_cli(capsys, ["meta-rate", "--model", *argv])
        assert code == 2 and out == ""
        assert message in err

    def test_exponent_does_not_read_c1(self, capsys):
        # the exponent is per pilot sample; c1 only sizes the pilot
        recs = []
        for c1 in ("1", "7"):
            code, out, _ = run_cli(capsys, [
                "meta-rate", "--model", "two-point:1,0.55", "--exponent",
                "--c1", c1, "--c2", "1", "--json"])
            assert code == 0
            recs.append(last_json(out))
        assert recs[0] == recs[1]

    def test_regime_error_is_validation(self, capsys):
        # a below I(0) lands in the other branch of the dichotomy
        code, _, err = run_cli(capsys, ["meta-rate", "--model",
                                        "two-point:1,0.6", "--a", "0.001"])
        assert code == 2 and "validation" in err


class TestSelect:
    def test_csv_contract_and_determinism(self, capsys, tmp_path,
                                           models_ini):
        out_path = tmp_path / "run.csv"
        argv = ["select", "--policy", "hoeffding", "--epsilon", "0.5",
                "--b", "1", "--delta", "0.1", "--models", models_ini,
                "--replications", "5", "--seed", "2", "--out",
                str(out_path)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        first = out_path.read_bytes()
        lines = first.decode().strip().splitlines()
        assert lines[0] == ("replication,chosen,samples_total,pulls_a0,"
                            "pulls_a1,fs_flag,rounds,termination")
        assert len(lines) == 1 + 5 + 1
        for row in lines[1:6]:
            cells = row.split(",")
            assert cells[1] == "0" and cells[3] == cells[4] == "19"
            assert cells[5] == "0"
            assert cells[6:] == ["1", "budget-exhausted"]
        summary = lines[6].split(",")
        assert len(summary) == 8
        assert summary[0] == "summary"
        assert float(summary[1]) == 0.0
        assert float(summary[2]) == 38.0
        # 99% Wilson interval at 0 of 5: [0, z^2 / (5 + z^2)]
        assert float(summary[3]) == 0.0
        assert float(summary[4]) == pytest.approx(
            2.576 ** 2 / (5 + 2.576 ** 2), rel=1e-9)
        assert summary[5:] == ["", "", ""]

        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert out_path.read_bytes() == first

    def test_threads_option_is_gone(self, capsys, models_ini):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--policy", "hoeffding", "--epsilon", "0.5",
                  "--b", "1", "--delta", "0.1", "--models", models_ini,
                  "--replications", "4", "--seed", "11", "--threads", "4"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_json_config_file(self, capsys, tmp_path):
        out_path = tmp_path / "cfg.csv"
        cfg = {
            "models": {"a0": "empirical:0.2",
                       "a1": {"type": "empirical", "points": [0.8]}},
            "policy": {"name": "hoeffding", "epsilon": 0.5, "b": 1.0},
            "run": {"delta": 0.1, "replications": 3, "seed": 1,
                    "out": str(out_path)},
        }
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, ["select", "--config", str(p)])
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 5

    def test_inline_flags_override_config(self, capsys, tmp_path):
        cfg = {
            "models": {"a0": "empirical:0.2", "a1": "empirical:0.8"},
            "policy": {"name": "hoeffding", "epsilon": 0.5, "b": 1.0},
            "run": {"delta": 0.1, "replications": 3, "seed": 1},
        }
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, ["select", "--config", str(p),
                                        "--epsilon", "0.25", "--json"])
        assert code == 0
        # halving epsilon quadruples the per-arm count: ceil(32 log 10) = 74
        assert last_json(out)["mean_samples"] == 148.0

    def test_capped_policy_pull_counts(self, capsys, tmp_path):
        p = tmp_path / "m.ini"
        p.write_text("[h0]\nspec = pareto:3,0.55\n\n"
                     "[h1]\nspec = pareto:3,0.21667\n")
        out_path = tmp_path / "capped.csv"
        code, _, _ = run_cli(capsys, [
            "select", "--policy", "capped", "--epsilon", "0.5", "--beta",
            "0.5", "--alpha", "2", "--K", "1", "--delta", "0.1",
            "--models", str(p), "--replications", "3", "--seed", "4",
            "--out", str(out_path)])
        assert code == 0
        for row in out_path.read_text().strip().splitlines()[1:4]:
            assert row.split(",")[3] == row.split(",")[4] == "74"

    def test_two_phase_and_sequential_single_model(self, capsys, tmp_path):
        p = tmp_path / "m.ini"
        p.write_text("[only]\nspec = two-point:1,0.55\n")
        for policy, extra in (("two-phase", ["--c1", "1", "--c2", "1"]),
                              ("sequential", ["--c1", "1"])):
            code, out, _ = run_cli(capsys, [
                "select", "--policy", policy, *extra, "--delta", "0.1",
                "--models", str(p), "--replications", "3", "--seed", "8",
                "--json"])
            assert code == 0
            rec = last_json(out)
            assert 0.0 <= rec["fs_rate"] <= 1.0
            assert rec["mean_samples"] >= 3.0

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_round_cap_below_one_is_validation_error(self, capsys, tmp_path,
                                                      cap):
        p = tmp_path / "m.ini"
        p.write_text("[only]\nspec = two-point:1,0.55\n")
        code, _, err = run_cli(capsys, [
            "select", "--policy", "sequential", "--c1", "1", "--round-cap",
            cap, "--delta", "0.1", "--models", str(p), "--replications",
            "2", "--json"])
        assert code == 2 and "round_cap" in err

    @pytest.mark.parametrize("policy, extra", [
        ("two-phase", ["--c2", "1"]), ("sequential", [])])
    def test_oversized_pilot_is_validation_error(self, capsys, tmp_path,
                                                 policy, extra):
        # m = ceil(1e12 log 10) would need a pilot matrix of terabytes
        p = tmp_path / "m.ini"
        p.write_text("[only]\nspec = two-point:1,0.55\n")
        code, out, err = run_cli(capsys, [
            "select", "--policy", policy, "--c1", "1e12", *extra,
            "--delta", "0.1", "--models", str(p), "--replications", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: validation:") and "2^20" in err
        assert err.count("\n") == 1

    def test_succ_elim_policy(self, capsys, tmp_path):
        p = tmp_path / "m.ini"
        p.write_text("[g]\nspec = bernoulli:0.9\n\n[w]\nspec = "
                     "bernoulli:0.5\n")
        code, out, _ = run_cli(capsys, [
            "select", "--policy", "succ-elim", "--b", "1", "--delta", "0.2",
            "--models", str(p), "--replications", "2", "--seed", "3",
            "--json"])
        assert code == 0
        assert last_json(out)["fs_rate"] == 0.0

    def test_validation_failures(self, capsys, tmp_path, models_ini):
        base = ["select", "--policy", "hoeffding", "--epsilon", "0.5",
                "--b", "1", "--models", models_ini]
        code, _, err = run_cli(capsys, base + ["--delta", "0.1",
                                               "--replications", "0"])
        assert code == 2 and "run.replications" in err
        code, _, err = run_cli(capsys, base + ["--replications", "3"])
        assert code == 2 and "run.delta" in err
        code, _, err = run_cli(capsys, base + ["--delta", "0.1",
                                               "--replications", "3",
                                               "--d", "3"])
        assert code == 2 and "model blocks" in err
        code, _, err = run_cli(capsys, ["select", "--epsilon", "0.5",
                                        "--b", "1", "--delta", "0.1",
                                        "--models", models_ini,
                                        "--replications", "3"])
        assert code == 2 and "policy.name" in err

    @pytest.mark.parametrize("block, message", [
        ("type = no-such\n", "unknown type 'no-such'"),
        ("type = gaussian\nmu = -0.2\nbogus = 1\n",
         "unexpected fields ['bogus']")],
        ids=["unknown-type", "unexpected-field"])
    def test_bad_models_file_entry_is_validation(self, capsys, tmp_path,
                                                 block, message):
        p = tmp_path / "m.ini"
        p.write_text("[only]\n" + block)
        code, _, err = run_cli(capsys, [
            "select", "--policy", "two-phase", "--c1", "1", "--c2", "1",
            "--delta", "0.1", "--models", str(p), "--replications", "2"])
        assert code == 2 and "model:only" in err and message in err

    @pytest.mark.parametrize("flag, text, message", [
        ("--models", "spec = two-point:1,0.55\n",
         "config: File contains no section headers."),
        ("--models", "[a]\nspec = two-point:1,0.55\n[a]\nspec = x\n",
         "[line  3]: section 'a' already exists"),
        ("--config", "[model:a]\nspec = two%point\n",
         "config: '%' must be followed by '%' or '('"),
        ("--config", json.dumps({"models": ["two-point:1,0.55"]}),
         "config: 'models' must be a mapping, got list"),
        ("--config", json.dumps({"models": {"a": "two-point:1,0.55"},
                                 "run": [0.1]}),
         "config: 'run' must be a mapping, got list"),
        ("--config", '{"models": {', "config: Expecting")],
        ids=["no-section", "duplicate-section", "interpolation",
             "models-list", "run-list", "bad-json"])
    def test_malformed_config_file_is_validation(self, capsys, tmp_path,
                                                 flag, text, message):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        code, out, err = run_cli(capsys, [
            "select", "--policy", "two-phase", "--c1", "1", "--c2", "1",
            "--delta", "0.1", flag, str(p), "--replications", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: validation: config: ") and message in err

    def test_succ_elim_missing_constant_message(self, capsys, models_ini):
        code, out, err = run_cli(capsys, [
            "select", "--policy", "succ-elim", "--alpha", "2", "--delta",
            "0.1", "--models", models_ini, "--replications", "2"])
        assert code == 2 and out == ""
        assert err == "error: validation: policy.K: required\n"

    @pytest.mark.parametrize("policy, params", [
        ("hoeffding", ["--epsilon", "0.5", "--b", "1"]),
        ("two-phase", ["--c1", "1", "--c2", "1"])])
    def test_seed_beyond_64_bits_is_validation_error(self, capsys, tmp_path,
                                                     policy, params):
        p = tmp_path / "m.ini"
        p.write_text("[a0]\nspec = empirical:-0.2\n" if policy == "two-phase"
                     else "[a0]\nspec = empirical:0.2\n\n"
                          "[a1]\nspec = empirical:0.8\n")
        code, _, err = run_cli(capsys, [
            "select", "--policy", policy, *params, "--delta", "0.1",
            "--models", str(p), "--replications", "2", "--seed",
            str(2 ** 64)])
        assert code == 2 and "validation" in err and "2^64" in err

    def test_tied_truth_rejected(self, capsys, tmp_path):
        p = tmp_path / "m.ini"
        p.write_text("[a]\nspec = empirical:0.5\n\n[b]\nspec = "
                     "empirical:0.5\n")
        code, _, err = run_cli(capsys, [
            "select", "--policy", "hoeffding", "--epsilon", "0.5", "--b",
            "1", "--delta", "0.1", "--models", str(p), "--replications",
            "2"])
        assert code == 2 and "undefined truth" in err

    def test_missing_out_directory_leaves_nothing(self, capsys, tmp_path,
                                                  models_ini):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run_cli(capsys, [
            "select", "--policy", "hoeffding", "--epsilon", "0.5", "--b",
            "1", "--delta", "0.1", "--models", models_ini,
            "--replications", "2", "--out", str(target)])
        assert code == 2
        assert not target.exists()

    def test_no_temp_leftovers(self, capsys, tmp_path, models_ini):
        out_path = tmp_path / "clean.csv"
        code, _, _ = run_cli(capsys, [
            "select", "--policy", "hoeffding", "--epsilon", "0.5", "--b",
            "1", "--delta", "0.1", "--models", models_ini,
            "--replications", "2", "--out", str(out_path)])
        assert code == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == ["clean.csv",
                                                              "models.ini"]


class TestMcFs:
    def test_matches_select_summary(self, capsys, models_ini):
        common = ["--policy", "hoeffding", "--epsilon", "0.5", "--b", "1",
                  "--delta", "0.1", "--models", models_ini,
                  "--replications", "4", "--seed", "6", "--json"]
        code, out_sel, _ = run_cli(capsys, ["select", *common])
        code2, out_mc, _ = run_cli(capsys, ["mc-fs", *common])
        assert code == code2 == 0
        a, b = last_json(out_sel), last_json(out_mc)
        assert a["fs_rate"] == b["fs_rate"]
        assert a["mean_samples"] == b["mean_samples"]

    def test_csv_row(self, capsys, tmp_path, models_ini):
        out_path = tmp_path / "mc.csv"
        code, _, _ = run_cli(capsys, [
            "mc-fs", "--policy", "hoeffding", "--epsilon", "0.5", "--b",
            "1", "--delta", "0.1", "--models", models_ini,
            "--replications", "2", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "fs_rate,ci_low,ci_high,mean_samples"
        assert len(lines) == 2


class TestTruncErrorCommand:
    def test_degenerate_branch(self, capsys):
        code, out, _ = run_cli(capsys, ["trunc-error", "--f", "power:2",
                                        "--c", "1", "--u", "0.3", "--kind",
                                        "capping", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["branch"] == "degenerate"
        assert rec["error"] == pytest.approx(0.7, rel=1e-12)

    def test_two_point_ratio(self, capsys):
        vals = {}
        for kind in ("truncation", "capping"):
            code, out, _ = run_cli(capsys, ["trunc-error", "--f", "power:2",
                                            "--c", "1", "--u", "1.5",
                                            "--kind", kind, "--json"])
            assert code == 0
            rec = last_json(out)
            assert rec["branch"] == "two-point"
            vals[kind] = rec["error"]
        assert vals["capping"] / vals["truncation"] == pytest.approx(
            0.25, rel=1e-10)

    def test_bad_inputs(self, capsys):
        code, _, _ = run_cli(capsys, ["trunc-error", "--f", "cubic:3",
                                      "--c", "1", "--u", "0.3"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["trunc-error", "--f", "exp:1",
                                      "--c", "0.5", "--u", "0.3"])
        assert code == 2

    @pytest.mark.parametrize("f", ["power:nan", "exp:inf"])
    def test_non_finite_parameter(self, capsys, f):
        code, _, err = run_cli(capsys, ["trunc-error", "--f", f, "--c", "2",
                                        "--u", "3"])
        assert code == 2
        assert "must be finite" in err

    def test_overflow_is_numerical(self, capsys):
        code, _, err = run_cli(capsys, ["trunc-error", "--f", "exp:1",
                                        "--c", "2", "--u", "10000",
                                        "--kind", "capping"])
        assert code == 3
        assert "numerical" in err and "Traceback" not in err

    def test_truncation_overflow_is_numerical(self, capsys):
        code, _, err = run_cli(capsys, ["trunc-error", "--f", "exp:1",
                                        "--c", "2", "--u", "10000",
                                        "--kind", "truncation"])
        assert code == 3
        assert "numerical" in err and "Traceback" not in err

    def test_capping_near_the_top_of_the_floats(self, capsys):
        # x_u is about u + 1 and f(x_u) about e^701, still a float
        code, out, _ = run_cli(capsys, ["trunc-error", "--f", "exp:1",
                                        "--c", "2", "--u", "700",
                                        "--kind", "capping", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["branch"] == "two-point"
        assert rec["high"] == pytest.approx(701.0, rel=1e-12)
        # (x_u - u) (c - 1) / (e^{x_u} - 1), with x_u - u = 1 - e^{-x_u}
        assert rec["error"] == pytest.approx(math.exp(-701.0), rel=1e-9)


class TestTiltCommand:
    def test_flagship_chain(self, capsys):
        code, out, _ = run_cli(capsys, [
            "tilt", "--model", "mirrored:shifted-exponential:0.96,1",
            "--alpha-target", "0.01", "--k", "10.4", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["b"] == pytest.approx(2211.84, rel=1e-12)
        assert rec["kl"] == pytest.approx(0.005, abs=1e-9)
        assert rec["mean"] >= 10.4

    def test_unsupported_support(self, capsys):
        code, _, err = run_cli(capsys, [
            "tilt", "--model", "shifted-exponential:0.96,1",
            "--alpha-target", "0.01", "--k", "5"])
        assert code == 2 and "unsupported support" in err


class TestLowerBoundCommand:
    def test_explicit_pair(self, capsys):
        code, out, _ = run_cli(capsys, [
            "lower-bound", "--model", "gaussian:0,1", "--model2",
            "gaussian:1,1", "--delta", "0.01", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["kl"] == pytest.approx(0.5, rel=1e-12)
        assert rec["samples"] == pytest.approx(math.log(100.0) / 1.5,
                                               rel=1e-12)

    def test_tilt_route(self, capsys):
        code, out, _ = run_cli(capsys, [
            "lower-bound", "--model",
            "mirrored:shifted-exponential:0.96,1", "--alpha-target", "0.01",
            "--k", "10.4", "--delta", "0.001", "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["samples"] == pytest.approx(460.517, abs=0.05)
        assert rec["samples"] >= 230.26

    def test_kl_is_computed_once(self, capsys, monkeypatch):
        populations = importlib.import_module("ordopt.populations")
        adversarial = importlib.import_module("ordopt.adversarial")
        kl_divergence, calls = populations.kl_divergence, []

        def counted(g, gt):
            calls.append((g, gt))
            return kl_divergence(g, gt)

        for module in (populations, adversarial):
            monkeypatch.setattr(module, "kl_divergence", counted)
        code, out, _ = run_cli(capsys, [
            "lower-bound", "--model", "gaussian:0,1", "--model2",
            "gaussian:1,1", "--delta", "0.01", "--json"])
        assert code == 0 and len(calls) == 1
        assert last_json(out)["kl"] == kl_divergence(*calls[0])

    def test_exactly_one_route(self, capsys):
        code, _, _ = run_cli(capsys, ["lower-bound", "--model",
                                      "gaussian:0,1", "--delta", "0.1"])
        assert code == 2
        code, _, _ = run_cli(capsys, [
            "lower-bound", "--model", "gaussian:0,1", "--model2",
            "gaussian:1,1", "--alpha-target", "1", "--k", "2", "--delta",
            "0.1"])
        assert code == 2


class TestQuantileGadgetCommand:
    def test_record(self, capsys):
        code, out, _ = run_cli(capsys, ["quantile-gadget", "--p", "0.3",
                                        "--epsilon", "0.1", "--mu", "5",
                                        "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["kl_bound"] == pytest.approx(math.log(1.5), rel=1e-12)
        assert rec["quantile_gap"] > 0.0

    def test_bad_p(self, capsys):
        code, _, _ = run_cli(capsys, ["quantile-gadget", "--p", "0.7",
                                      "--epsilon", "0.1", "--mu", "5"])
        assert code == 2


class TestReproduce:
    def test_two_phase_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["reproduce", "--only", "two-phase"])
        assert code == 0
        assert out.count("PASS") == 3 and "FAIL" not in out
        assert "3/3 items passed" in out

    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, ["reproduce", "--only", "two-phase",
                                        "--json"])
        assert code == 0
        rec = last_json(out)
        assert rec["pass"] is True
        assert [it["group"] for it in rec["items"]] == ["two-phase"] * 3
        assert all(it["pass"] for it in rec["items"])

    @pytest.mark.parametrize("group", ["beta", "fixed-point", "capping"])
    def test_fast_groups_pass(self, capsys, group):
        code, out, _ = run_cli(capsys, ["reproduce", "--only", group])
        assert code == 0
        assert "FAIL" not in out

    def test_grid_groups_keep_their_values(self):
        # the beta and fixed-point grids run on Python floats; on numpy
        # scalars, as written out here, every computed value is the same
        from ordopt.selectors import (MomentBound, capping_radius,
                                      optimal_beta, solve_log_fixed_point)
        ratio = resid = -math.inf
        for a in np.geomspace(math.e, 1e3, 10):
            for b in np.linspace(1.0, 50.0, 10):
                t, bound = solve_log_fixed_point(a, b)
                ratio = max(ratio, t / bound)
                resid = max(resid, abs(t - a - b * math.log(t)) / t)
        bounds = MomentBound(truncation.PowerSpec(2.0), (1.0,))

        def budget_factor(beta):
            r = capping_radius(bounds, beta * 0.5)
            return r * r / ((1.0 - beta) ** 2)
        gap = budget_factor(0.5) - min(
            budget_factor(b) for b in np.linspace(0.05, 0.95, 181))
        got = [it["computed"] for group in ("beta", "fixed-point")
               for it in run_reproduce(only=group)]
        assert got == [optimal_beta(bounds), gap, ratio, resid]

    def test_capping_search_beats_a_dense_grid(self):
        # every (case, objective) pair of the capping group: the zooming
        # search reaches the 20001-point grid it replaced, never passes
        # the closed form, and comes within 1e-6 of it
        cases = _capping_cases()
        found = cli._brute_worst(cases)
        assert found.shape == (16, 2)
        for (spec, c, u), pair in zip(cases, found):
            closed = (worst_truncation_error(spec, c, u).error,
                      worst_capping_error(spec, c, u).error)
            for got, grid, cf in zip(pair, _dense_grid_worst(spec, c, u),
                                     closed):
                assert got >= grid, (spec, c, u)
                assert got <= cf + 1e-12, (spec, c, u)
                assert cf - got <= 1e-6, (spec, c, u)

    def test_capping_group_catches_a_low_closed_form(self, monkeypatch):
        # a truncation closed form 3e-6 too low on the alpha = 2 family;
        # the 20001-point grid sits up to 9e-5 below the supremum and
        # misses it
        exact = truncation.worst_truncation_error

        def lowered(spec, c, u):
            r = exact(spec, c, u)
            if spec != truncation.PowerSpec(2.0):
                return r
            return dataclasses.replace(r, error=r.error - 3e-6)

        spec = truncation.PowerSpec(2.0)
        grid_excess = max(_dense_grid_worst(spec, c, u)[0]
                          - lowered(spec, c, u).error
                          for c in (1.0, 2.0) for u in (0.3, 0.9))
        assert grid_excess <= 1e-6
        monkeypatch.setattr(truncation, "worst_truncation_error", lowered)
        items = {it["name"]: it for it in run_reproduce(only="capping")}
        item = items["grid never beats closed form, power alpha=2"]
        assert not item["pass"]
        assert 2.9e-6 <= item["computed"] <= 3e-6 + 1e-12
        for label in ("power alpha=1.5", "power alpha=3",
                      "exponential theta=1"):
            assert items[f"grid never beats closed form, {label}"]["pass"]

    def test_certificate_group_fails_honestly(self, capsys):
        # the reported triples do not satisfy the optimization they are
        # quoted for; the computed minima differ beyond tolerance, so the
        # reproduction must say FAIL and exit nonzero
        code, out, _ = run_cli(capsys, ["reproduce", "--only",
                                        "certificate"])
        assert code == 1
        assert out.count("FAIL") == 3
        assert "0/3 items passed" in out

    def test_unknown_group(self, capsys):
        code, _, err = run_cli(capsys, ["reproduce", "--only", "nonsense"])
        assert code == 2 and "unknown group" in err

    def test_run_reproduce_records(self):
        items = run_reproduce(only="beta")
        assert len(items) == 2
        assert set(items[0]) == {"group", "name", "computed", "expected",
                                 "tol", "pass"}

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "rep.csv"
        code, _, _ = run_cli(capsys, ["reproduce", "--only", "fixed-point",
                                      "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "group,name,computed,expected,tol,pass"
        assert len(lines) == 3


def _capping_cases():
    """The 16 (spec, c, u) cases of the capping group, in its order."""
    specs = ((truncation.PowerSpec(1.5), (1.0, 2.0)),
             (truncation.PowerSpec(2.0), (1.0, 2.0)),
             (truncation.PowerSpec(3.0), (1.0, 2.0)),
             (truncation.ExponentialSpec(1.0), (1.5, 3.0)))
    return [(spec, c, u) for spec, cs in specs for c in cs
            for u in (0.3, 0.9)]


def _dense_grid_worst(spec, c, u, n=20001):
    """The (truncation, capping) maxima on n log-spaced points of the
    capping group's window, the reference it used before its zooming
    search."""
    f0 = spec.f(0.0)
    if isinstance(spec, truncation.PowerSpec):
        hi = 10.0 * max(u, c ** (1.0 / spec.alpha), 1.0)
        xs = np.geomspace(max(u, 1e-9), hi, n)
        fx = xs ** spec.alpha
    else:
        xs = np.geomspace(max(u, 1e-9), u + 80.0 / spec.theta, n)
        fx = np.exp(spec.theta * xs)
    with np.errstate(divide="ignore"):
        q = np.where(fx > f0, np.minimum(1.0, (c - f0) / (fx - f0)), 1.0)
    return float((q * xs).max()), float((q * (xs - u)).max())


# each argv is valid with BAD replaced by a finite number
_FLOAT_OPTIONS = [
    ["rate-estimate", "--values", "1,-1", "--x", "BAD"],
    ["meta-rate", "--model", "gaussian:-0.2,1", "--theta", "BAD",
     "--nu", "0.5"],
    ["meta-rate", "--model", "gaussian:-0.2,1", "--theta", "0.5",
     "--nu", "BAD"],
    ["meta-rate", "--model", "two-point:1,0.55", "--a", "BAD"],
    ["meta-rate", "--model", "two-point:1,0.55", "--exponent",
     "--c1", "BAD", "--c2", "1"],
    ["select", "--policy", "hoeffding", "--epsilon", "BAD", "--b", "1",
     "--delta", "0.1", "--models", "models.ini"],
    ["mc-fs", "--policy", "two-phase", "--c1", "1", "--c2", "1",
     "--delta", "BAD", "--models", "models.ini"],
    ["trunc-error", "--f", "power:2", "--c", "BAD", "--u", "1"],
    ["trunc-error", "--f", "power:2", "--c", "1", "--u", "BAD"],
    ["tilt", "--model", "mirrored:shifted-exponential:0.96,1",
     "--alpha-target", "BAD", "--k", "10.4"],
    ["lower-bound", "--model", "gaussian:0,1", "--model2", "gaussian:1,1",
     "--delta", "BAD"],
    ["quantile-gadget", "--p", "BAD", "--epsilon", "0.1", "--mu", "5"],
]


class TestFiniteOptions:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN",
                                     "Infinity"])
    @pytest.mark.parametrize("argv", _FLOAT_OPTIONS,
                             ids=lambda a: f"{a[0]}-{a[a.index('BAD') - 1]}")
    def test_non_finite_option_exits_2(self, capsys, argv, bad):
        # the --opt=VALUE spelling; TestNegativeValues has the spaced one
        i = argv.index("BAD")
        argv = argv[:i - 1] + [f"{argv[i - 1]}={bad}"] + argv[i + 1:]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"{argv[i - 1].partition('=')[0]}: must be finite" in (
            captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("key,bad", [("b", "inf"), ("epsilon", "nan"),
                                         ("b", "-inf")])
    def test_non_finite_config_value_is_validation(self, capsys, tmp_path,
                                                   key, bad):
        policy = {"epsilon": "0.2", "b": "1", key: bad}
        p = tmp_path / "exp.ini"
        p.write_text("[model:a0]\nspec = bernoulli:0.3\n\n"
                     "[model:a1]\nspec = bernoulli:0.5\n\n"
                     "[policy]\nname = hoeffding\n"
                     + "".join(f"{k} = {v}\n" for k, v in policy.items())
                     + "\n[run]\ndelta = 0.1\nreplications = 3\n")
        code, out, err = run_cli(capsys, ["select", "--config", str(p)])
        assert code == 2 and out == ""
        assert f"policy.{key}: must be finite" in err

    def test_every_float_option_is_finite(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        types = {a.type for p in sub.choices.values() for a in p._actions}
        assert float not in types and cli._finite in types

    def test_non_numbers_keep_the_float_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trunc-error", "--f", "power:2", "--c", "abc", "--u", "1"])
        assert exc.value.code == 2
        assert "invalid float value: 'abc'" in capsys.readouterr().err

    def test_finite_values_still_parse(self, capsys):
        code, out, _ = run_cli(capsys, ["trunc-error", "--f", "power:2",
                                        "--c", "1e0", "--u", "-0.0",
                                        "--json"])
        assert code == 0 and last_json(out)["u"] == 0.0


# a non-finite model in its compact-string and its mapping form, the
# meta-rate request it went through before the codec checked for it, and
# the message after the entry's name
_NON_FINITE_MODELS = [
    ("pareto:nan,1", {"type": "pareto", "alpha_tail": math.nan, "scale": 1},
     ["--theta", "-0.5", "--nu", "0.5"], ".alpha_tail: must be finite"),
    ("empirical:nan;1", {"type": "empirical", "points": [math.nan, 1.0]},
     ["--theta", "1", "--nu", "0.5"], ".points.0: must be finite"),
    ("gaussian:nan", {"type": "gaussian", "mu": math.nan}, ["--a", "0.1"],
     ".mu: must be finite"),
    ("two-point:inf,0.5", {"type": "two-point", "b": math.inf,
                           "p_minus": 0.5}, ["--a", "0.1"],
     ".b: must be finite"),
]


def _ini_section(mapping):
    """An INI section body of a mapping; a list is written ';'-separated."""
    return "".join(
        f"{k} = {';'.join(map(str, v)) if isinstance(v, list) else v}\n"
        for k, v in mapping.items())


_META_RATE_MODES = {"infimum": ["--a", "0.5"],
                    "exponent": ["--exponent", "--c1", "1", "--c2", "1"],
                    "certificate": ["--certificate", "--c1", "1"],
                    "pointwise": ["--theta", "0.5", "--nu", "0.5"]}


class TestExtremeModelParameters:
    """Finite but extreme model parameters end in exit 0, 2 or 3, never in
    a traceback or a nan; a validation error is the one line on stderr, and
    it names the parameter."""

    @pytest.mark.parametrize("spec, modes, name", [
        ("gaussian:0,1e-300", ["infimum"], "sigma"),
        ("gaussian:-1e300,1", ["infimum", "exponent", "certificate"], "mu"),
        ("gaussian:-1,1e200", list(_META_RATE_MODES), "sigma"),
        ("gaussian-mixture:0.5,1e300", ["pointwise"], "mu=1e+300")])
    def test_meta_rate(self, capsys, spec, modes, name):
        for mode in modes:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, [
                    "meta-rate", "--model", spec, *_META_RATE_MODES[mode]])
            assert code in (0, 2, 3), mode
            assert "nan" not in out.lower() + err.lower(), mode
            assert "Traceback" not in err and not seen, mode
            if code == 2:
                assert len(err.splitlines()) == 1, mode
                assert err.startswith("error: validation:"), mode
                assert name in err, mode

    @pytest.mark.parametrize("spec, mode", [
        ("shifted-exponential:0.96,1e300", "infimum"),
        ("mirrored:shifted-exponential:1e300,1", "infimum"),
        ("mirrored:shifted-exponential:1e300,1", "certificate")])
    def test_shifted_exponential_at_its_domain_edge(self, capsys, spec, mode):
        # the derivative bracket lands on theta = -lam exactly, where
        # Lambda' is -inf; the density is too narrow for any node weight
        code, out, err = run_cli(capsys, [
            "meta-rate", "--model", spec, *_META_RATE_MODES[mode]])
        assert code == 2 and out == ""
        assert "nan" not in err.lower() and "Traceback" not in err
        assert err.startswith("error: validation:")
        assert err.endswith("every node weight is 0 in floats\n")


class TestNonFiniteModels:
    """Every number of a model must be finite; otherwise exit 2 naming it."""

    @pytest.mark.parametrize("spec, mapping, query, message",
                             _NON_FINITE_MODELS, ids=lambda p: str(p)[:20])
    def test_meta_rate_model(self, capsys, spec, mapping, query, message):
        code, out, err = run_cli(capsys, ["meta-rate", "--model", spec,
                                          *query])
        assert code == 2 and out == ""
        assert f"error: validation: model{message}" in err

    @pytest.mark.parametrize("spec, mapping, query, message",
                             _NON_FINITE_MODELS, ids=lambda p: str(p)[:20])
    def test_select_models_file(self, capsys, tmp_path, spec, mapping,
                                query, message):
        ini, js = tmp_path / "m.ini", tmp_path / "m.json"
        for path, text in (
                (ini, f"[a0]\nspec = {spec}\n"),
                (ini, "[a0]\n" + _ini_section(mapping)),
                (js, json.dumps({"a0": spec})),
                (js, json.dumps({"a0": mapping}))):
            path.write_text(text + "\n[a1]\nspec = bernoulli:0.5\n"
                            if path is ini else text)
            code, out, err = run_cli(capsys, [
                "select", "--policy", "hoeffding", "--epsilon", "0.5", "--b",
                "1", "--delta", "0.1", "--models", str(path),
                "--replications", "2"])
            assert code == 2 and out == "", text
            assert f"error: validation: model:a0{message}" in err, text


class TestNegativeValues:
    """A negative value after a space parses as it does after "="."""

    @pytest.mark.parametrize("argv", [
        ["meta-rate", "--model", "gaussian:-0.2,1", "--theta", "-5e-1",
         "--nu", "0.9"],
        ["rate-estimate", "--values", "1,-1,-1,-1", "--x", "-5e-1"],
        ["rate-estimate", "--values", "-1,1,1"],
        ["rate-estimate", "--values", "-.5,1", "--x", "-1E-3"],
    ], ids=lambda a: " ".join(a[-2:]))
    def test_spaced_form_parses_as_equals_form(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + ["--json"])
        assert code == 0 and err == ""
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert run_cli(capsys, joined + ["--json"]) == (code, out, err)

    @pytest.mark.parametrize("bad", ["-inf", "-Infinity", "-nan"])
    def test_spaced_non_finite_value_exits_2(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(["meta-rate", "--model", "gaussian:-0.2,1", "--theta", bad,
                  "--nu", "0.9"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--theta: must be finite" in captured.err

    @pytest.mark.parametrize("argv", _FLOAT_OPTIONS,
                             ids=lambda a: f"{a[0]}-{a[a.index('BAD') - 1]}")
    def test_every_float_option_takes_a_spaced_negative(self, capsys, argv):
        argv = [("-inf" if a == "BAD" else a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be finite, got '-inf'" in capsys.readouterr().err

    def test_batch_mean_rate_prints_plus_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["rate-estimate", "--values",
                                        "1,-1,-1,-1", "--x", "-0.5"])
        assert code == 0
        assert out.split()[0] == "value=0"


_ONE_ROW = [
    ["rate-estimate", "--values", "1,2,3"],
    ["rate-estimate", "--values", "1,-1,-1,-1"],
    ["meta-rate", "--model", "two-point:1,0.6", "--theta", "1", "--nu",
     "0.1"],
    ["meta-rate", "--model", "two-point:1,0.55", "--a", "0.01"],
    ["meta-rate", "--model", "two-point:1,0.55", "--exponent", "--c1", "1",
     "--c2", "1"],
    ["meta-rate", "--model", "shifted-exponential:0.96,1", "--certificate",
     "--c1", "2"],
    ["trunc-error", "--f", "power:2", "--c", "1", "--u", "1.5"],
    ["trunc-error", "--f", "power:2", "--c", "1", "--u", "0.3", "--kind",
     "capping"],
    ["tilt", "--model", "gaussian:0,1", "--alpha-target", "0.5", "--k", "2"],
    ["lower-bound", "--model", "gaussian:0,1", "--model2", "gaussian:1,1",
     "--delta", "0.01"],
    ["quantile-gadget", "--p", "0.3", "--epsilon", "0.1", "--mu", "5"],
]


def _one_row(capsys, tmp_path, argv):
    """The --json record of argv and the header and row of its --out CSV."""
    path = tmp_path / "row.csv"
    code, out, err = run_cli(capsys, argv + ["--json", "--out", str(path)])
    assert code == 0, err
    with open(path, encoding="utf-8", newline="") as fh:
        header, row = csv.reader(fh)
    return last_json(out), header, row


class TestOneRowCsv:
    """A one-row command's CSV is its record: the keys as the header, each
    float as %.17g, None as an empty cell, any other value as it prints."""

    @pytest.mark.parametrize("argv", _ONE_ROW, ids=" ".join)
    def test_row_is_the_json_record(self, capsys, tmp_path, argv):
        record, header, row = _one_row(capsys, tmp_path, argv)
        assert header == list(record)
        # strict JSON writes inf as "inf", which is also its %.17g cell
        assert row == ["" if v is None else format(v, ".17g")
                       if isinstance(v, float) else str(v)
                       for v in record.values()]

    def test_cell_rules(self, capsys, tmp_path):
        _, _, row = _one_row(capsys, tmp_path, _ONE_ROW[0])
        assert ",".join(row) == "inf,,diverges-left,0"
        record, _, row = _one_row(capsys, tmp_path, _ONE_ROW[5])
        assert row[1] == format(record["theta"], ".17g")
        assert float(row[1]) == record["theta"]
        assert row[-1] == "True"


class TestStrictJson:
    def test_infinite_meta_rate_is_a_string(self, capsys):
        # P(W <= nu) = 0 here, so J = +inf is the right value
        code, out, _ = run_cli(capsys, ["meta-rate", "--model",
                                        "two-point:1,0.55", "--theta", "1",
                                        "--nu", "0.1", "--json"])
        assert code == 0
        assert "Infinity" not in out
        rec = last_json(out)
        assert rec["value"] == "inf" and rec["alpha_star"] is None
        assert rec["theta"] == 1.0 and rec["nu"] == 0.1

    def test_key_value_output_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, ["meta-rate", "--model",
                                        "two-point:1,0.55", "--theta", "1",
                                        "--nu", "0.1"])
        assert code == 0 and "value=inf " in out

    def test_reproduce_items(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._REPRODUCE_GROUPS, "beta", lambda: [
            cli._item("beta", "non-finite", math.nan, -math.inf, "abs 0",
                      False),
            cli._item("beta", "finite", np.float64(0.25), 0.25, "abs 0",
                      True)])
        code, out, _ = run_cli(capsys, ["reproduce", "--only", "beta",
                                        "--json"])
        assert code == 1
        bad, good = last_json(out)["items"]
        assert (bad["computed"], bad["expected"]) == ("nan", "-inf")
        assert (good["computed"], good["expected"]) == (0.25, 0.25)

    def test_nested_values(self):
        text = cli._json({"a": [math.inf, {"b": -math.inf}], "c": math.nan,
                          "d": 1.5, "e": None, "f": "x", "g": 3})
        assert json.loads(text, parse_constant=_no_constant) == {
            "a": ["inf", {"b": "-inf"}], "c": "nan", "d": 1.5, "e": None,
            "f": "x", "g": 3}


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_do_not_depend_on_earlier_calls(self, capsys):
        trunc = ["trunc-error", "--f", "power:2", "--c", "1", "--u", "1.5",
                 "--kind", "capping", "--json"]
        rate = ["rate-estimate", "--model", "two-point:1,0.6", "--m", "12"]
        seeded = rate + ["--seed", "5"]
        outs = [run_cli(capsys, argv) for argv in
                (rate, trunc, seeded, rate, trunc)]
        assert all(code == 0 for code, _, _ in outs)
        assert outs[0] == outs[3] and outs[1] == outs[4]
        assert outs[2] != outs[0]  # the seed reached its own call only
        # the --json call left the next call's output as key=value
        assert outs[3][1].startswith("value=")
        assert last_json(outs[4][1])["kind"] == "capping"

    def test_help_text_unchanged(self, capsys):
        def help_text(argv):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        before = help_text(["--help"]), help_text(["select", "--help"])
        run_cli(capsys, ["meta-rate", "--model", "two-point:1,0.55",
                         "--exponent", "--c1", "1", "--c2", "1", "--json"])
        with pytest.raises(SystemExit):
            main(["trunc-error", "--c", "nan"])
        capsys.readouterr()
        assert (help_text(["--help"]),
                help_text(["select", "--help"])) == before
        assert "quantile-gadget" in before[0] and "--delta" in before[1]


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _readme_blocks(lang):
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.M | re.S)


def _readme_commands(n):
    """The argv lists of the n-th README shell block of ordopt commands."""
    block = [b for b in _readme_blocks("sh") if b.startswith("ordopt ")][n]
    lines = block.replace("\\\n", " ").splitlines()
    assert all(line.startswith("ordopt ") for line in lines)
    return [shlex.split(line)[1:] for line in lines]


class TestReadme:
    """The README's command-line examples run as written."""

    def test_first_example_block(self, capsys):
        for argv in _readme_commands(0):
            code, _, err = run_cli(capsys, argv)
            assert code == 0, (argv, err)

    def test_config_files(self, capsys, tmp_path, monkeypatch):
        experiment, models = _readme_blocks("ini")
        (tmp_path / "experiment.ini").write_text(experiment)
        (tmp_path / "models.ini").write_text(models)
        monkeypatch.chdir(tmp_path)
        runs = []
        for argv in _readme_commands(1):
            code, out, err = run_cli(capsys, argv)
            assert code == 0, (argv, err)
            runs.append((out, (tmp_path / "run.csv").read_text()))
        # the models file and the experiment's model sections agree
        assert len(runs) == 2 and runs[0] == runs[1]


_COLD_START = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def lazy_modules():
    return sorted(m for m in ("ordopt.selectors", "ordopt.adversarial",
                              "ordopt.truncation", "configparser",
                              "numpy.polynomial") if m in sys.modules)

import numpy
# numpy 1.x may import numpy.ma with numpy itself; nothing after may add it
bare_ma = "numpy.ma" in sys.modules
ma = {}
import ordopt, ordopt.cli
ordopt.cli.parse_model("two-point:1,0.55")
seen = {"import": scipy_modules()}
loaded = {"import": lazy_modules()}
assert ordopt.cli.main(["trunc-error", "--f", "power:2", "--c", "1",
                        "--u", "1.5"]) == 0
loaded["trunc-error"] = lazy_modules()
seen["loaded"] = loaded
assert ordopt.cli.main(["select", "--policy", "two-phase", "--c1", "1",
                        "--c2", "1", "--delta", "0.1", "--models", sys.argv[1],
                        "--replications", "4"]) == 0
seen["select"] = scipy_modules()
loaded["select"] = lazy_modules()
ma["select"] = "numpy.ma" in sys.modules
# exit 1: 12/15 items pass, the three certificate triples being a known
# discrepancy with their published values
assert ordopt.cli.main(["reproduce"]) == 1
seen["reproduce"] = scipy_modules()
ma["reproduce"] = "numpy.ma" in sys.modules
tilt = ["--model", "mirrored:shifted-exponential:0.96,1", "--alpha-target",
        "0.01", "--k", "29.6"]
assert ordopt.cli.main(["tilt", *tilt]) == 0
assert ordopt.cli.main(["lower-bound", *tilt, "--delta", "1e-3"]) == 0
seen["tilt"] = scipy_modules()
ma["tilt"] = "numpy.ma" in sys.modules
seen["numpy.ma"] = {k: v == bare_ma for k, v in ma.items()}
assert ordopt.cli.main(["meta-rate", "--model", "gaussian:-0.2,1",
                        "--theta", "-0.5", "--nu", "0.9"]) == 0
seen["meta-rate"] = scipy_modules()
print(json.dumps(seen))
"""


def _fresh_process(script, *argv):
    """The last stdout line, as JSON, of script run in a new interpreter
    that imports ordopt from this checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cold_start_loads_scipy_on_first_use(tmp_path):
    models = tmp_path / "models.ini"
    models.write_text("[a0]\nspec = two-point:1,0.55\n")
    seen = _fresh_process(_COLD_START, str(models))
    assert seen["import"] == []
    assert seen["select"] == []
    assert seen["reproduce"] == []
    assert seen["tilt"] == []
    assert "scipy.special" in seen["meta-rate"]
    # np.unique imports numpy.ma; the node tables and tail cuts avoid it
    assert seen["numpy.ma"] == {"select": True, "reproduce": True,
                                "tilt": True}
    # the library modules load with the commands that run them; numpy 1.x
    # imports numpy.polynomial with numpy itself
    loaded = seen["loaded"]
    if int(np.__version__.split(".")[0]) < 2:
        loaded = {k: [m for m in v if m != "numpy.polynomial"]
                  for k, v in loaded.items()}
    # select reads the INI models file and summarizes with fs_estimate,
    # which lives beside replicate, so it leaves out ordopt.adversarial
    assert loaded == {"import": [], "trunc-error": ["ordopt.truncation"],
                      "select": ["configparser", "ordopt.selectors",
                                 "ordopt.truncation"]}


_PUBLIC_NAMES = """
import importlib, inspect, json
{first}
from ordopt import meta_rate
import ordopt
assert inspect.isfunction(meta_rate) and ordopt.meta_rate is meta_rate
public = {{}}
exec("from ordopt import *", public)
for name in ordopt.__all__:
    home = importlib.import_module(f"ordopt.{{ordopt._MODULE_OF[name]}}")
    assert public[name] is getattr(home, name) is getattr(ordopt, name)
print(json.dumps(sorted(k for k in public if not k.startswith("__"))))
"""


@pytest.mark.parametrize("first", ["import ordopt.meta_rate",
                                   "import ordopt.cli, ordopt.selectors"])
def test_public_names_resolve_in_any_import_order(first):
    # meta_rate is the function however the submodule was imported first
    names = _fresh_process(_PUBLIC_NAMES.format(first=first))
    import ordopt
    assert names == ordopt.__all__ == sorted(ordopt.__all__)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "ordopt", "reproduce",
                               "--only", "beta"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "2/2 items passed" in proc.stdout

    @pytest.mark.skipif(shutil.which("ordopt") is None,
                        reason="ordopt console script not installed")
    def test_console_script(self):
        exe = shutil.which("ordopt")
        assert exe is not None
        proc = subprocess.run([exe, "rate-estimate", "--values", "1,-1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("value=")

    def test_declared_entry_point(self, capsys):
        # the script that an install would create, checked without one
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"ordopt": "ordopt.cli:main"}
        entry = importlib.metadata.EntryPoint(
            name="ordopt", value=scripts["ordopt"], group="console_scripts")
        code = entry.load()(["rate-estimate", "--values", "1,-1"])
        assert code == 0
        assert capsys.readouterr().out.startswith("value=")


# every mode of a subcommand: a valid argv and each further value flag it
# reads, with a value it accepts; --out and --json are read by every one
_MODES = [
    ("rate-estimate", ["--values", "1,-1,-1"], {"--x": "0.1"}),
    ("rate-estimate", ["--model", "two-point:1,0.6", "--m", "5"],
     {"--seed": "3", "--x": "0.1"}),
    ("meta-rate", ["--model", "two-point:1,0.6", "--a", "0.05"], {}),
    ("meta-rate", ["--model", "two-point:1,0.6", "--theta", "0.5", "--nu",
                   "0.8"], {}),
    ("meta-rate", ["--model", "two-point:1,0.55", "--exponent", "--c1", "1",
                   "--c2", "1"], {}),
    ("meta-rate", ["--model", "shifted-exponential:0.96,1", "--certificate",
                   "--c1", "5"], {}),
    ("lower-bound", ["--model", "gaussian:0,1", "--model2", "gaussian:1,1",
                     "--delta", "0.01"], {}),
    ("lower-bound", ["--model", "mirrored:shifted-exponential:0.96,1",
                     "--alpha-target", "0.01", "--k", "10.4", "--delta",
                     "0.001"], {}),
    ("trunc-error", ["--f", "power:2", "--c", "1", "--u", "1.5"],
     {"--kind": "capping"}),
    ("tilt", ["--model", "mirrored:shifted-exponential:0.96,1",
              "--alpha-target", "0.01", "--k", "10.4"], {}),
    ("quantile-gadget", ["--p", "0.3", "--epsilon", "0.1", "--mu", "4"], {}),
    ("reproduce", ["--only", "beta"], {}),
]

# every select/mc-fs policy: its models, the flags it needs, the further
# policy flags it reads, and the flags that select another variant of it,
# with the message that names what that variant lacks. A heavy succ-elim
# constant selects the heavy schedule, which then needs both
_POLICIES = [
    ("two-phase", ["two-point:1,0.55"], ["--c1", "1", "--c2", "1"], {}, {}),
    ("sequential", ["two-point:1,0.55"], ["--c1", "1"],
     {"--round-cap": "3"}, {}),
    ("hoeffding", ["bernoulli:0.3", "bernoulli:0.5"],
     ["--epsilon", "0.5", "--b", "1"], {}, {}),
    ("capped", ["pareto:3,0.55", "pareto:3,0.2"],
     ["--epsilon", "0.5", "--beta", "0.5", "--alpha", "2", "--K", "1"], {},
     {}),
    ("succ-elim", ["bernoulli:0.9", "bernoulli:0.5"], ["--b", "1"],
     {"--estimator": "plain", "--pull-cap": "50"},
     {"--alpha": "policy.K: required", "--K": "policy.alpha: required"}),
    ("succ-elim", ["pareto:3,0.6", "pareto:3,0.2"],
     ["--alpha", "1.5", "--K", "1"],
     {"--estimator": "capped", "--pull-cap": "50"}, {}),
]


def _optional_flags(command):
    """(flag, dest, takes a value, some value it parses) for each optional
    flag of a subcommand's parser."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for action in sub.choices[command]._actions:
        if action.required or action.dest == "help":
            continue
        value = (action.choices[0] if action.choices
                 else "3" if action.type is int else "0.5")
        yield action.option_strings[0], action.dest, action.nargs != 0, value


def _read_or_rejected(capsys, command, base, reads, switches):
    """Each optional flag that base does not give, added to it: exit 0 if
    reads lists it, exit 2 with its message if switches does, else exit 2
    saying the mode does not read it (or, for the flag of another mode,
    that exactly one mode is allowed)."""
    for flag, dest, takes_value, value in _optional_flags(command):
        if flag in base:
            continue
        value = reads.get(flag, value)
        argv = [command, *base, flag] + ([value] if takes_value else [])
        code, out, err = run_cli(capsys, argv)
        if flag in reads:
            assert code == 0, (argv, err)
        elif flag in switches:
            assert code == 2 and switches[flag] in err, (argv, err)
        else:
            assert code == 2 and out == "", argv
            assert ("exactly one" in err or "does not read" in err
                    and (flag in err or dest in err)), (argv, err)


class TestFlagContract:
    """A value flag either does something or exits 2: the parser's flags,
    tried one at a time against every mode and policy."""

    @pytest.mark.parametrize("command, base, reads", _MODES, ids=[
        c + next((f for f in b[1:] if f.startswith("--")), b[0])
        for c, b, _ in _MODES])
    def test_every_mode(self, capsys, tmp_path, command, base, reads):
        _read_or_rejected(capsys, command, base, {
            **reads, "--out": str(tmp_path / "o.csv"), "--json": None}, {})

    @pytest.mark.parametrize("command", ["select", "mc-fs"])
    @pytest.mark.parametrize("policy, specs, params, reads, switches",
                             _POLICIES, ids=[f"{p[0]}{p[2][0]}"
                                             for p in _POLICIES])
    def test_every_policy(self, capsys, tmp_path, command, policy, specs,
                          params, reads, switches):
        models, config = tmp_path / "m.ini", tmp_path / "run.ini"
        models.write_text("".join(f"[a{i}]\nspec = {spec}\n"
                                  for i, spec in enumerate(specs)))
        config.write_text("[run]\nseed = 4\n")
        base = ["--policy", policy, "--models", str(models), "--delta",
                "0.1", "--replications", "2", *params]
        _read_or_rejected(capsys, command, base, {
            **reads, "--seed": "3", "--d": str(len(specs)),
            "--config": str(config), "--out": str(tmp_path / "o.csv"),
            "--json": None}, switches)

    @pytest.mark.parametrize("argv, message", [
        (["lower-bound", "--model", "gaussian:0,1", "--model2",
          "gaussian:1,1", "--k", "3", "--delta", "0.01"],
         "lower-bound: --model2 does not read --k"),
        (["select", "--policy", "hoeffding", "--epsilon", "0.5", "--b", "1",
          "--c1", "7", "--round-cap", "3", "--estimator", "capped"],
         "policy: hoeffding does not read c1, estimator, round_cap"),
        (["select", "--policy", "succ-elim", "--b", "1", "--alpha", "1.5",
          "--K", "1"], "policy: succ-elim does not read b")],
        ids=["lower-bound-k", "hoeffding", "succ-elim-b"])
    def test_flags_that_were_ignored(self, capsys, models_ini, argv,
                                     message):
        if argv[0] == "select":
            argv += ["--delta", "0.1", "--models", models_ini,
                     "--replications", "2"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("suffix", ["ini", "json"])
    def test_policy_key_left_over(self, capsys, tmp_path, suffix):
        policy = {"name": "sequential", "c1": 1, "epsilon": 0.5}
        p = tmp_path / f"exp.{suffix}"
        p.write_text(
            json.dumps({"models": {"x": "two-point:1,0.55"},
                        "policy": policy, "run": {"delta": 0.1}})
            if suffix == "json" else
            "[model:x]\nspec = two-point:1,0.55\n\n[policy]\n"
            + _ini_section(policy) + "\n[run]\ndelta = 0.1\n")
        code, out, err = run_cli(capsys, ["mc-fs", "--config", str(p),
                                          "--replications", "2"])
        assert code == 2 and out == ""
        assert "policy: sequential does not read epsilon" in err


def _sequential_config(tmp_path, policy="", run="replications = 2\n"):
    p = tmp_path / "exp.ini"
    p.write_text("[model:x]\nspec = two-point:1,0.55\n\n[policy]\n"
                 "name = sequential\nc1 = 1\n" + policy
                 + "\n[run]\ndelta = 0.1\n" + run)
    return str(p)


class TestWholeNumbers:
    """run.replications, run.seed, policy.round_cap and policy.pull_cap
    take whole numbers, written as integers or not; anything else exits 2
    naming the key."""

    @pytest.mark.parametrize("text", ["3", "3.0", "3e0", "0.3e1"])
    def test_whole_numbers_parse(self, capsys, tmp_path, text):
        code, out, _ = run_cli(capsys, ["select", "--config",
                                        _sequential_config(
                                            tmp_path, f"round_cap = {text}\n",
                                            f"replications = {text}\n"
                                            f"seed = {text}\n"), "--json"])
        assert code == 0
        (tmp_path / "m.ini").write_text("[x]\nspec = two-point:1,0.55\n")
        flags = ["select", "--policy", "sequential", "--c1", "1", "--delta",
                 "0.1", "--models", str(tmp_path / "m.ini"), "--round-cap",
                 "3", "--replications", "3", "--seed", "3", "--json"]
        assert run_cli(capsys, flags) == (0, out, "")

    @pytest.mark.parametrize("text", ["1e3", "1000.0"])
    def test_replications_1e3(self, capsys, tmp_path, text):
        code, out, _ = run_cli(capsys, ["mc-fs", "--config",
                                        _sequential_config(
                                            tmp_path,
                                            run=f"replications = {text}\n"),
                                        "--json"])
        assert code == 0 and last_json(out)["replications"] == 1000

    @pytest.mark.parametrize("section, key, text", [
        ("run", "replications", "1e3x"), ("run", "seed", "x"),
        ("run", "seed", "2.5"), ("run", "replications", "inf"),
        ("policy", "round_cap", "2.7"), ("policy", "pull_cap", "1.5")])
    def test_others_name_the_key(self, capsys, tmp_path, section, key,
                                 text):
        line = f"{key} = {text}\n"
        if key == "pull_cap":
            p = tmp_path / "exp.ini"
            p.write_text("[model:a]\nspec = bernoulli:0.9\n\n[model:b]\n"
                         "spec = bernoulli:0.5\n\n[policy]\n"
                         f"name = succ-elim\nb = 1\n{line}\n[run]\n"
                         "delta = 0.1\nreplications = 2\n")
            path = str(p)
        else:
            path = _sequential_config(tmp_path, *(
                (line,) if section == "policy" else ("", line)))
        code, out, err = run_cli(capsys, ["select", "--config", path])
        assert code == 2 and out == ""
        assert err.startswith(f"error: validation: {section}.{key}: "), err

    def test_seed_text_is_exact_to_64_bits(self, capsys, tmp_path):
        top = 2 ** 64 - 1
        outs = [run_cli(capsys, ["select", "--config", _sequential_config(
            tmp_path, run=f"replications = 3\nseed = {seed}\n"), "--json"])
            for seed in (top, top - 1)]
        flag = run_cli(capsys, ["select", "--config", _sequential_config(
            tmp_path, run="replications = 3\n"), "--seed", str(top),
            "--json"])
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0] == flag and outs[0] != outs[1]
