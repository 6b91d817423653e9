import argparse
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ordopt import cli
from ordopt.cli import main, parse_model, run_reproduce
from ordopt.populations import (
    Gaussian,
    Mirrored,
    Pareto,
    ShiftedExponential,
    TwoPoint,
)


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

    def test_certificate_without_a_finite_tilt_is_validation(self, capsys):
        # exp(-theta X) stays above e^{-1/2} for every theta <= 64
        code, out, err = run_cli(capsys, ["meta-rate", "--model",
                                          "two-point:0.001,0.55",
                                          "--certificate", "--c1", "2",
                                          "--json"])
        assert code == 2 and out == ""
        assert "validation" in err and "range" in err

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


_COLD_START = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import ordopt, ordopt.cli
seen = {"import": scipy_modules()}
assert ordopt.cli.main(["select", "--policy", "two-phase", "--c1", "1",
                        "--c2", "1", "--delta", "0.1", "--models", sys.argv[1],
                        "--replications", "4"]) == 0
seen["select"] = scipy_modules()
assert ordopt.cli.main(["meta-rate", "--model", "gaussian:-0.2,1",
                        "--theta", "-0.5", "--nu", "0.9"]) == 0
seen["meta-rate"] = scipy_modules()
print(json.dumps(seen))
"""


def test_cold_start_loads_scipy_on_first_use(tmp_path):
    models = tmp_path / "models.ini"
    models.write_text("[a0]\nspec = two-point:1,0.55\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(models)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import"] == []
    assert seen["select"] == []
    assert "scipy.special" in seen["meta-rate"]


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
