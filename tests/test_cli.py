"""CLI behavior: flags, exit codes, stable file outputs, and manifests."""

import hashlib
import json
import math

import numpy as np
import pytest

from cbfsim import cli, simulate
from cbfsim.arrays import AngleGrid, ArrayGeometry, gain_power, subarray_gains
from cbfsim.beams import DEFAULT_CANDIDATE_CEILING, DEFAULT_STOCHASTIC_BUDGET
from cbfsim.channel import awgn_qpsk_ber
from cbfsim.cli import main
from oracles import pattern_variance


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def lone_member(doc):
    """A saved 8-element pair cut to its first member, with the variance of
    that member's own pattern, so only the member count is wrong."""
    values = doc["weights"][0]["values"]
    gains = subarray_gains([complex(*v) for v in values], ArrayGeometry(8, 2), 0,
                           AngleGrid.uniform_theta(512).points)
    return {**doc, "weights": doc["weights"][:1],
            "variance": pattern_variance(gain_power(gains))}


def nan_weight(doc):
    """A saved pair with one NaN weight entry and a NaN variance."""
    doc = json.loads(json.dumps(doc))
    doc["weights"][0]["values"][1] = [math.nan, 0.0]
    return {**doc, "variance": math.nan}


def short_member(doc):
    """A saved 8-element pair whose first member has only 3 values."""
    doc = json.loads(json.dumps(doc))
    del doc["weights"][0]["values"][3:]
    return doc


class TestSearchCommand:
    def test_small_exhaustive_reports_zero(self, tmp_path, capsys):
        code = main(["search", "--elements", "4", "--subarrays", "2",
                     "--accuracy", "2", "--method", "exhaustive",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("sigma_g2=")
        assert float(out.split("=")[1]) < 1e-10
        assert (tmp_path / "run.beams.json").exists()
        assert (tmp_path / "run.pattern.csv").exists()
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["config"]["budget"] == DEFAULT_STOCHASTIC_BUDGET
        assert manifest["config"]["ceiling"] == DEFAULT_CANDIDATE_CEILING

    def test_golay_sixteen_elements_flat_csv(self, tmp_path):
        code = main(["search", "--elements", "16", "--subarrays", "2",
                     "--method", "golay", "--grid-points", "1024",
                     "--out", str(tmp_path / "g")])
        assert code == 0
        header, rows = read_csv(tmp_path / "g.pattern.csv")
        assert header == ["theta_deg", "g1_power", "g2_power", "composite_power"]
        comp = np.array([float(r["composite_power"]) for r in rows])
        assert np.max(np.abs(comp - 1.0)) < 1e-9

    def test_missing_elements_is_usage_error(self, capsys):
        assert main(["search", "--subarrays", "2"]) == 2

    def test_invalid_method_is_usage_error(self):
        assert main(["search", "--elements", "4", "--method", "magic"]) == 2

    def test_capacity_error_exits_one(self, tmp_path, capsys):
        code = main(["search", "--elements", "16", "--subarrays", "2",
                     "--accuracy", "4", "--method", "exhaustive"])
        assert code == 1
        err = capsys.readouterr().err
        assert "ceiling" in err

    def test_default_ceiling_admits_24_element_pairs(self, tmp_path):
        # 2^11 reduced vectors per member: 4,194,304 pairs, the default ceiling
        assert DEFAULT_CANDIDATE_CEILING == 2 ** 22
        code = main(["search", "--elements", "24", "--subarrays", "2",
                     "--accuracy", "2", "--method", "exhaustive",
                     "--out", str(tmp_path / "p24")])
        assert code == 0
        doc = json.loads((tmp_path / "p24.beams.json").read_text())
        assert doc["candidates"] == 2 ** 22

    def test_triple_search_writes_three_columns(self, tmp_path):
        code = main(["search", "--elements", "6", "--subarrays", "3",
                     "--accuracy", "2", "--method", "exhaustive",
                     "--out", str(tmp_path / "t")])
        assert code == 0
        header, _ = read_csv(tmp_path / "t.pattern.csv")
        assert header == ["theta_deg", "g1_power", "g2_power", "g3_power",
                          "composite_power"]


class TestPatternCommand:
    def test_uniform_weights_boresight_peak(self, tmp_path):
        code = main(["pattern", "--weights", "0,0,0,0,0,0,0,0",
                     "--accuracy", "1", "--out", str(tmp_path / "u")])
        assert code == 0
        _, rows = read_csv(tmp_path / "u.pattern.csv")
        best = max(rows, key=lambda r: float(r["composite_power"]))
        assert float(best["theta_deg"]) == pytest.approx(0.0, abs=1e-9)
        assert float(best["composite_power"]) == pytest.approx(8.0, abs=1e-9)

    def test_single_element_constant_column(self, tmp_path):
        code = main(["pattern", "--weights", "0", "--accuracy", "1",
                     "--out", str(tmp_path / "one")])
        assert code == 0
        _, rows = read_csv(tmp_path / "one.pattern.csv")
        assert all(float(r["composite_power"]) == 1.0 for r in rows)

    def test_round_trip_matches_search_csv(self, tmp_path):
        assert main(["search", "--elements", "8", "--subarrays", "2",
                     "--method", "golay", "--out", str(tmp_path / "s")]) == 0
        assert main(["pattern", "--beamset", str(tmp_path / "s.beams.json"),
                     "--out", str(tmp_path / "p")]) == 0
        original = (tmp_path / "s.pattern.csv").read_bytes()
        rendered = (tmp_path / "p.pattern.csv").read_bytes()
        assert original == rendered
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["config"]["weights"] is None
        assert manifest["config"]["accuracy"] is None
        assert manifest["config"]["spacing"] is None

    def test_manifest_records_weights_inputs(self, tmp_path):
        assert main(["pattern", "--weights", "0,1,3", "--weights", "2,2,0",
                     "--accuracy", "4", "--spacing", "0.7",
                     "--out", str(tmp_path / "w")]) == 0
        manifest = json.loads((tmp_path / "w.manifest.json").read_text())
        assert manifest["config"] == {
            "command": "pattern", "weights": [[0, 1, 3], [2, 2, 0]],
            "accuracy": 4, "spacing": 0.7, "grid_points": 512,
            "beamset": None, "out": str(tmp_path / "w")}

    def test_requires_weights_or_beamset(self):
        assert main(["pattern"]) == 2

    def test_bad_phase_index(self):
        assert main(["pattern", "--weights", "0,5", "--accuracy", "4"]) == 2


class TestBerCommand:
    BASE = ["ber", "--scheme", "single", "--channel", "awgn",
            "--snr-db", "2:2:6", "--angles", "0", "--min-bits", "20000",
            "--target-errors", "50", "--seed", "11"]

    def test_csv_schema_and_oracle(self, tmp_path):
        code = main(self.BASE + ["--out", str(tmp_path / "b")])
        assert code == 0
        header, rows = read_csv(tmp_path / "b.ber.csv")
        assert header == ["scheme", "channel", "angle_deg", "ebn0_db", "bits",
                          "errors", "ber", "ci95", "ci_lo", "ci_hi"]
        assert [r["ebn0_db"] for r in rows] == ["2", "4", "6"]
        for r in rows:
            assert r["scheme"] == "single" and r["channel"] == "awgn"
            assert int(r["errors"]) <= int(r["bits"])
            assert float(r["ci_lo"]) <= float(r["ber"]) <= float(r["ci_hi"])
            oracle = awgn_qpsk_ber(float(r["ebn0_db"]))
            assert abs(float(r["ber"]) - oracle) <= 4 * float(r["ci95"])

    def test_rerun_byte_identical(self, tmp_path):
        assert main(self.BASE + ["--out", str(tmp_path / "one")]) == 0
        manifest = (tmp_path / "one.manifest.json").read_bytes()
        assert main(self.BASE + ["--out", str(tmp_path / "two")]) == 0
        assert ((tmp_path / "one.ber.csv").read_bytes()
                == (tmp_path / "two.ber.csv").read_bytes())
        # the manifest records the --out path, so compare a rerun to one base
        assert main(self.BASE + ["--out", str(tmp_path / "one")]) == 0
        assert (tmp_path / "one.manifest.json").read_bytes() == manifest

    def test_manifest_digests_match_outputs(self, tmp_path):
        assert main(self.BASE + ["--out", str(tmp_path / "m")]) == 0
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["tool"]["name"] == "cbfsim"
        assert manifest["config"]["seed"] == 11
        for entry in manifest["outputs"]:
            digest = hashlib.sha256(
                (tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_campaign_runs_through_the_cli_run_ber(self, tmp_path, monkeypatch):
        # cmd_ber looks run_ber up on the cli module when it runs, so a wrapper
        # put there, as the benchmark's tracer puts one, sees every campaign
        seen, run_ber = [], cli.run_ber
        monkeypatch.setattr(cli, "run_ber",
                            lambda config: seen.append(config) or run_ber(config))
        assert main(self.BASE + ["--out", str(tmp_path / "s")]) == 0
        (config,) = seen
        assert isinstance(config, simulate.SimConfig)
        assert (config.scheme.kind, config.channel, config.snr_db, config.angles,
                config.min_bits, config.seed) == ("single", "awgn", (2.0, 4.0, 6.0),
                                                  (0.0,), 20000, 11)

    def test_cbf_uses_constructed_beams_by_default(self, tmp_path):
        code = main(["ber", "--scheme", "cbf", "--channel", "awgn",
                     "--snr-db", "4", "--angles", "0,30", "--min-bits", "20000",
                     "--target-errors", "50", "--seed", "3",
                     "--out", str(tmp_path / "c")])
        assert code == 0
        _, rows = read_csv(tmp_path / "c.ber.csv")
        assert [r["angle_deg"] for r in rows] == ["0", "30"]

    def test_cbf_with_saved_beamset(self, tmp_path):
        # a 16-element set replays without --elements: the set's geometry is
        # used, so the array flags are recorded as null
        assert main(["search", "--elements", "16", "--subarrays", "2",
                     "--method", "golay", "--out", str(tmp_path / "s")]) == 0
        code = main(["ber", "--scheme", "cbf", "--channel", "awgn",
                     "--snr-db", "4", "--angles", "0", "--min-bits", "20000",
                     "--target-errors", "50", "--seed", "3",
                     "--beamset", str(tmp_path / "s.beams.json"),
                     "--out", str(tmp_path / "bs")])
        assert code == 0
        config = json.loads((tmp_path / "bs.manifest.json").read_text())["config"]
        assert (config["elements"], config["spacing"], config["beamset"]) == (
            None, None, str(tmp_path / "s.beams.json"))

    @pytest.mark.parametrize("corrupt, named", [
        (lambda doc: {k: v for k, v in doc.items() if k != "grid"}, "'grid'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "weights"}, "'weights'"),
        (lambda doc: [doc], "JSON object"),
        (lone_member, "got 1 for 2"),
        (lambda doc: {**doc, "weights": doc["weights"] + doc["weights"][:1]},
         "got 3 for 2"),
        (nan_weight, "unit modulus"),
        (lambda doc: {**doc, "variance": math.nan}, "variance does not match"),
        (short_member, "length 3, not the sub-array size 4"),
        (lambda doc: {**doc, "accuracy": 0}, "K must be >= 1"),
        (lambda doc: {**doc, "accuracy": -7}, "K must be >= 1"),
    ], ids=["missing-grid", "missing-weights", "not-an-object", "one-member",
            "three-members", "nan-weight", "nan-variance", "short-member",
            "accuracy-0", "accuracy-negative"])
    def test_malformed_beamset_one_line_error(self, tmp_path, capsys, corrupt,
                                              named):
        assert main(["search", "--elements", "8", "--subarrays", "2",
                     "--method", "golay", "--out", str(tmp_path / "s")]) == 0
        doc = json.loads((tmp_path / "s.beams.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corrupt(doc)))
        capsys.readouterr()
        for argv in (["pattern"],
                     ["ber", "--scheme", "cbf", "--snr-db", "4", "--angles", "0"]):
            code = main(argv + ["--beamset", str(bad), "--out", str(tmp_path / "b")])
            err = capsys.readouterr().err
            assert code == 1
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and named in err
        assert not list(tmp_path.glob("b.*"))

    @pytest.mark.parametrize("scheme, elements, beamset", [
        ("single", None, None), ("rbf", 7, None)])
    def test_manifest_nulls_flags_the_scheme_never_read(self, tmp_path, scheme,
                                                        elements, beamset):
        # single never reads the array flags, so even an invalid spacing runs
        spacing_flag, spacing = {"single": ("inf", None), "rbf": ("0.5", 0.5)}[scheme]
        out = tmp_path / scheme
        assert main(["ber", "--scheme", scheme, "--snr-db", "4", "--angles", "0",
                     "--min-bits", "20000", "--max-bits", "20000",
                     "--elements", "7", "--spacing", spacing_flag,
                     "--beamset", str(tmp_path / "none.json"),
                     "--fading", "independent", "--out", str(out)]) == 0
        config = json.loads((tmp_path / f"{scheme}.manifest.json").read_text())["config"]
        assert (config["elements"], config["spacing"], config["beamset"],
                config["fading"]) == (elements, spacing, beamset, None)

    def test_invalid_scheme_usage_error(self):
        assert main(["ber", "--scheme", "mimo", "--snr-db", "4"]) == 2

    def test_missing_snr_usage_error(self):
        assert main(["ber", "--scheme", "single"]) == 2

    @pytest.mark.parametrize("snr, expected", [
        ("0:5:13", [0.0, 5.0, 10.0]), ("0:1:2.6", [0.0, 1.0, 2.0]),
        ("0:0.1:1", [i * 0.1 for i in range(11)]), ("-3:1.5:0", [-3.0, -1.5, 0.0]),
    ])
    def test_snr_range_ends_at_or_before_stop(self, tmp_path, snr, expected):
        assert main(["ber", "--scheme", "single", f"--snr-db={snr}", "--angles", "0",
                     "--min-bits", "10000", "--max-bits", "10000",
                     "--out", str(tmp_path / "r")]) == 0
        config = json.loads((tmp_path / "r.manifest.json").read_text())["config"]
        assert config["snr_db"] == expected

    def test_bad_snr_range_runtime_error(self, tmp_path, capsys):
        assert main(["ber", "--scheme", "single", "--snr-db", "5:0:1",
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme,snr,angle", [
        ("single", "nan", "0"), ("single", "inf", "0"), ("single", "-inf", "0"),
        ("single", "0:1:inf", "0"), ("cbf", "4", "nan"),
        ("single", "0:1e-300:1e300", "0"), ("single", "0:1e-6:1", "0"),
    ], ids=["nan-snr", "inf-snr", "minus-inf-snr", "inf-range", "nan-angle",
            "overflowing-range", "million-point-range"])
    def test_non_finite_lattice_value_one_line_error(self, tmp_path, capsys,
                                                     scheme, snr, angle):
        code = main(["ber", "--scheme", scheme, "--channel", "awgn",
                     f"--snr-db={snr}", "--angles", angle,
                     "--out", str(tmp_path / "n")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "n.ber.csv").exists()

    def test_rayleigh_scheme_runs(self, tmp_path):
        code = main(["ber", "--scheme", "rbf", "--channel", "rayleigh",
                     "--snr-db", "10", "--angles", "0", "--min-bits", "20000",
                     "--target-errors", "50", "--seed", "5",
                     "--out", str(tmp_path / "r")])
        assert code == 0

    def test_interpolated_curve_hits_one_in_a_thousand(self, tmp_path):
        # log-linear interpolation of the simulated curve at 6.79 dB should
        # land near BER 1e-3, the closed-form value there
        code = main(["ber", "--scheme", "single", "--channel", "awgn",
                     "--snr-db", "6:1:7", "--angles", "0",
                     "--min-bits", "200000", "--seed", "11",
                     "--out", str(tmp_path / "i")])
        assert code == 0
        _, rows = read_csv(tmp_path / "i.ber.csv")
        log_ber = {float(r["ebn0_db"]): math.log10(float(r["ber"])) for r in rows}
        interpolated = 10 ** (log_ber[6.0] + (log_ber[7.0] - log_ber[6.0]) * 0.79)
        assert interpolated == pytest.approx(1e-3, rel=0.25)


class TestWorkers:
    ARGS = ["ber", "--scheme", "cbf", "--channel", "awgn", "--snr-db", "2,6",
            "--angles", "0,30", "--min-bits", "20000", "--target-errors", "50",
            "--seed", "7"]

    def test_ber_csv_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        runs = {"one": ["--workers", "1"], "two": ["--workers", "2"],
                "default": []}
        for name, extra in runs.items():
            assert main(self.ARGS + extra + ["--out", str(tmp_path / name)]) == 0
        first, *rest = [(tmp_path / f"{name}.ber.csv").read_bytes() for name in runs]
        assert rest == [first, first]
        manifest = json.loads((tmp_path / "default.manifest.json").read_text())
        assert manifest["config"]["workers"] is None

    @pytest.mark.parametrize("extra, cpus, tuned", [
        (["--workers", "1"], 2, 1), ([], 1, 1), ([], 2, 0), (["--workers", "2"], 2, 0)])
    def test_allocator_is_tuned_only_where_batches_run(self, tmp_path, monkeypatch,
                                                       extra, cpus, tuned):
        # cmd_ber tunes its own process once when the batches run in it, and
        # not when a pool's workers run them
        calls = []
        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(simulate, "_keep_batch_memory", lambda: calls.append(1))
        assert main(self.ARGS + extra + ["--out", str(tmp_path / "m")]) == 0
        assert len(calls) == tuned

    def test_run_ber_leaves_the_callers_allocator_alone(self, monkeypatch):
        # a library campaign run inline keeps the caller's process as it was
        calls = []
        monkeypatch.setattr(simulate, "_keep_batch_memory", lambda: calls.append(1))
        scheme = simulate.SchemeConfig("single", ArrayGeometry(1, 1))
        simulate.run_ber(simulate.SimConfig(scheme, "awgn", (0.0,), (4.0,),
                                            min_bits=10_000, workers=1))
        assert calls == []

    def test_too_many_workers_one_line_error(self, tmp_path, capsys):
        code = main(self.ARGS + ["--workers", "100000",
                                 "--out", str(tmp_path / "w")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: workers must be")
        assert not (tmp_path / "w.manifest.json").exists()


class TestSeedPrecedence:
    ARGS = ["ber", "--scheme", "single", "--channel", "awgn", "--snr-db", "4",
            "--angles", "0", "--min-bits", "20000", "--target-errors", "50"]

    def run_seeded(self, tmp_path, name, extra, env):
        assert main(self.ARGS + ["--out", str(tmp_path / name)] + extra) == 0
        return json.loads((tmp_path / f"{name}.manifest.json").read_text())

    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CBF_SIM_SEED", "99")
        manifest = self.run_seeded(tmp_path, "env", [], None)
        assert manifest["config"]["seed"] == 99

    @pytest.mark.parametrize("value", ["x", "-3", "1.5", ""])
    def test_bad_env_var_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                        value):
        monkeypatch.setenv("CBF_SIM_SEED", value)
        assert main(self.ARGS + ["--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: CBF_SIM_SEED must be a non-negative integer, got {value!r}")
        assert not (tmp_path / "bad.manifest.json").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CBF_SIM_SEED", "99")
        manifest = self.run_seeded(tmp_path, "flag", ["--seed", "4"], None)
        assert manifest["config"]["seed"] == 4

    def test_config_seed_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CBF_SIM_SEED", "99")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        manifest = self.run_seeded(tmp_path, "config", ["--config", str(cfg)], None)
        assert manifest["config"]["seed"] == 3


class TestConfigFile:
    @pytest.mark.parametrize("command, doc, flags", [
        ("ber", {"scheme": "single", "snr_db": "4", "angles": "0",
                 "min_bits": 20000, "target_errors": 50, "seed": 1},
         ["--seed", "2"]),
        # an appending flag replaces the file's list, it does not extend it
        ("pattern", {"weights": ["0,1", "1,1"], "accuracy": 2},
         ["--weights", "0,0"]),
    ], ids=["ber", "pattern"])
    def test_flags_override_config(self, tmp_path, command, doc, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cfgrun"
        assert main([command, "--config", str(cfg), *flags,
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "cfgrun.manifest.json").read_text())
        if command == "ber":
            assert manifest["config"]["seed"] == 2
            assert manifest["config"]["scheme"] == "single"
        else:
            header, _ = read_csv(tmp_path / "cfgrun.pattern.csv")
            assert header == ["theta_deg", "g1_power", "composite_power"]

    @pytest.mark.parametrize("command, doc, key", [
        ("ber", {"scheme": "mimo", "snr_db": "4"}, "scheme"),
        ("ber", {"scheme": "single", "snr_db": "4", "fading": 3}, "fading"),
        ("ber", {"scheme": "single", "snr_db": "4", "min_bits": None},
         "min_bits"),
        ("ber", {"scheme": "single", "snr_db": "4", "seed": True}, "seed"),
        ("ber", {"scheme": "single", "snr_db": "4", "min_bits": 2e4},
         "min_bits"),
        ("search", {"elements": 4, "accuracy": []}, "accuracy"),
        ("search", {"elements": None}, "elements"),
        ("pattern", {"weights": 5}, "weights"),
        ("pattern", {"weights": ["0,1"], "grid_points": {}}, "grid_points"),
        ("ber", {"scheme": "single", "snr_db": "4", "angles": "0",
                 "min-bits": 20000, "targeterrors": 5}, "min-bits"),
    ], ids=["scheme-choice", "fading-int", "min-bits-null", "seed-bool",
            "min-bits-float", "accuracy-list", "elements-null", "weights-int",
            "grid-points-object", "unknown-key"])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, command,
                                                doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config key {key!r}" in err.splitlines()[-1]
        assert not (tmp_path / "o.manifest.json").exists()

    def test_config_null_allowed_where_default_is_none(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scheme": "single", "snr_db": 4, "angles": "0", "min_bits": 10000,
            "max_bits": None, "beamset": None, "seed": None, "target_errors": 0,
        }))
        assert main(["ber", "--config", str(cfg), "--out", str(tmp_path / "n")]) == 0


@pytest.mark.parametrize("argv", [
    ["ber", "--scheme", "rbf", "--snr-db", "4", "--angles", "0,30"],
    ["search", "--elements", "8", "--method", "golay"],
], ids=["ber", "search"])
def test_infinite_spacing_one_line_error(tmp_path, capsys, argv):
    code = main(argv + ["--spacing", "inf", "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: element spacing")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, code, line", [
    ("search --elements 0", 1, "error: total_elements and num_subarrays must be >= 1"),
    ("search --elements 8 --method stochastic --budget 0", 1,
     "error: stochastic search needs a positive budget"),
    ("search --elements 8 --method golay --accuracy 3", 1,
     "error: the doubling construction needs an even K, got K=3"),
    ("ber --scheme cbf --snr-db 0:1 --angles 0", 1,
     "error: SNR range must be start:step:stop, got '0:1'"),
    ("pattern --weights 0,1 --weights 0,1,1", 2,
     "cbfsim pattern: error: all weight vectors must have the same length"),
    ("ber --scheme cbf --beamset TRIPLE --snr-db 4 --angles 0", 1,
     "error: cbf needs a two-sub-array geometry"),
    ("ber --scheme single --snr-db 4 --angles 0 --seed -1", 1,
     "error: seed must be non-negative"),
    ("ber --scheme single --snr-db 4 --angles 0 --target-errors -1", 1,
     "error: target_errors must be >= 0"),
    ("pattern --weights 0,a", 2, "cbfsim pattern: error: --weights takes "
     "comma-separated phase indices from 0 to 3, got '0,a'"),
    ("pattern --weights EMPTY", 2, "cbfsim pattern: error: --weights takes "
     "comma-separated phase indices from 0 to 3, got ''"),
    ("pattern --weights 0,1 --weights 0,,1 --accuracy 2", 2, "cbfsim pattern: error: "
     "--weights takes comma-separated phase indices from 0 to 1, got '0,,1'"),
    ("pattern --weights 0,4", 2, "cbfsim pattern: error: --weights takes "
     "comma-separated phase indices from 0 to 3, got '0,4'"),
], ids=["no-elements", "zero-budget", "golay-odd-k", "two-part-snr-range", "ragged-weights",
        "cbf-triple", "negative-seed", "negative-target-errors", "non-integer-weight",
        "empty-weights", "empty-weight", "weight-out-of-range"])
def test_rejected_value_exit_code_and_line(tmp_path, capsys, argv, code, line):
    # a triple is searched but never simulated: cbf takes pairs only
    triple = tmp_path / "triple"
    if "TRIPLE" in argv:
        assert main(["search", "--elements", "9", "--subarrays", "3", "--accuracy", "2",
                     "--out", str(triple)]) == 0
        capsys.readouterr()
    argv = [{"TRIPLE": f"{triple}.beams.json", "EMPTY": ""}.get(a, a) for a in argv.split()]
    assert main(argv + ["--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err.splitlines()
    # a usage error (exit 2) prints the usage first, then its one error line
    assert err[-1] == line and (code == 2 or len(err) == 1)
    assert not list(tmp_path.glob("r.*"))


# Full .ber.csv text of six small seeded runs, pinned when the batch draws
# last changed (packed bits, normal pairs, float32 rbf phases): a refactor
# that keeps these bytes keeps the RNG streams, the stopping rule, the
# interval arithmetic and the number formatting.
GOLDEN_BER = {
    "cbf-awgn-two-angles": (
        ["--scheme", "cbf", "--channel", "awgn", "--snr-db", "2,6",
         "--angles", "0,30", "--min-bits", "10000", "--target-errors", "20",
         "--seed", "7"],
        "scheme,channel,angle_deg,ebn0_db,bits,errors,ber,ci95,ci_lo,ci_hi\n"
        "cbf,awgn,0,2,100000,3654,0.03654,0.00116293968,0.03538554,0.0377214403\n"
        "cbf,awgn,0,6,100000,219,0.00219,0.00028973573,0.00190979472,0.00249967448\n"
        "cbf,awgn,30,2,100000,3710,0.0371,0.0011714766,0.0359369869,0.0382899596\n"
        "cbf,awgn,30,6,100000,260,0.0026,0.000315629384,0.002293881,0.00293551091\n"),
    "cbf-rayleigh-independent": (
        ["--scheme", "cbf", "--channel", "rayleigh", "--fading", "independent",
         "--snr-db", "5,15", "--angles", "30", "--min-bits", "10000",
         "--target-errors", "20", "--seed", "3"],
        "scheme,channel,angle_deg,ebn0_db,bits,errors,ber,ci95,ci_lo,ci_hi\n"
        "cbf,rayleigh,30,5,100000,3215,0.03215,0.00109332829,0.0310652781,0.0332619675\n"
        "cbf,rayleigh,30,15,100000,66,0.00066,0.000159178598,0.000510479578,0.000839606379\n"),
    "cbf-rayleigh-equal": (
        ["--scheme", "cbf", "--channel", "rayleigh", "--snr-db", "5,15",
         "--angles", "30", "--min-bits", "10000", "--target-errors", "20",
         "--seed", "3"],
        "scheme,channel,angle_deg,ebn0_db,bits,errors,ber,ci95,ci_lo,ci_hi\n"
        "cbf,rayleigh,30,5,100000,6456,0.06456,0.00152316096,0.0630445122,0.066100803\n"
        "cbf,rayleigh,30,15,100000,790,0.0079,0.000548715644,0.00736060525,0.00846822283\n"),
    "rbf-rayleigh-block-4": (
        ["--scheme", "rbf", "--channel", "rayleigh", "--rbf-block", "4",
         "--snr-db", "10", "--angles", "0", "--min-bits", "10000",
         "--target-errors", "20", "--seed", "5"],
        "scheme,channel,angle_deg,ebn0_db,bits,errors,ber,ci95,ci_lo,ci_hi\n"
        "rbf,rayleigh,0,10,100000,5631,0.05631,0.00142877391,0.0548891365,0.0577566657\n"),
    "single-rayleigh": (
        ["--scheme", "single", "--channel", "rayleigh", "--snr-db", "10",
         "--angles", "0", "--min-bits", "10000", "--target-errors", "20",
         "--seed", "4"],
        "scheme,channel,angle_deg,ebn0_db,bits,errors,ber,ci95,ci_lo,ci_hi\n"
        "single,rayleigh,0,10,100000,2305,0.02305,0.000930095846,0.0221287741,0.0239990307\n"),
    "single-awgn-exact": (
        ["--scheme", "single", "--channel", "awgn", "--snr-db", "4",
         "--angles", "0", "--min-bits", "10000", "--max-bits", "10000",
         "--target-errors", "0", "--seed", "11"],
        "scheme,channel,angle_deg,ebn0_db,bits,errors,ber,ci95,ci_lo,ci_hi\n"
        "single,awgn,0,4,10000,156,0.0156,0.00242886945,0.0132630406,0.0182248857\n"),
}


@pytest.mark.parametrize("name", GOLDEN_BER)
def test_ber_csv_golden_bytes(tmp_path, name):
    argv, expected = GOLDEN_BER[name]
    assert main(["ber", *argv, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / f"{name}.ber.csv").read_text(encoding="utf-8") == expected


# sha256 of .beams.json and .pattern.csv for the four benchmark search lines,
# pinned before the search moved to autocorrelation-domain scoring: a change
# to the scoring that keeps these bytes keeps every returned phase index.
# The last three were pinned while each search still settled its near-ties
# once after the whole scan: a 2-point grid leaves 42,252 exhaustive
# near-ties, most 16-element climbs end at a flat pair whose rounding-level
# variance picks the result, and the third is a stochastic triple.
GOLDEN_SEARCH = {
    "pairs-20-2-k2": (
        ["--elements", "20", "--subarrays", "2", "--accuracy", "2",
         "--method", "exhaustive"],
        "3e70655e3dbef0cd48d589016e60cab14a68a6a1403ea447cc5b55edbb506ab9",
        "29135d3c0636642f6327002c3a4213459a2690fb55747809a2dd71f9c60e9a1d"),
    "triples-21-3-k2": (
        ["--elements", "21", "--subarrays", "3", "--accuracy", "2",
         "--method", "exhaustive"],
        "dd7bce79cf4711f35154856e2afa4ba67a1fb574ae534f23c2865b1cb6b52549",
        "2212bc08519cce104c3cd462515e5a9acd566431280f796b53e504f2805c0c2c"),
    "stochastic-32-2-k4": (
        ["--elements", "32", "--subarrays", "2", "--accuracy", "4",
         "--method", "stochastic", "--budget", "100000", "--seed", "7"],
        "c4be245f7e62f8f73376025d77cf11cb86b1952346e33739cf988bf3656483ea",
        "9bef771e33a61f1464f3144016fd57c4026cb6550b545f3419287bd253fea792"),
    "golay-16": (
        ["--elements", "16", "--subarrays", "2", "--method", "golay"],
        "8fd79137dfa9d93d3b7c5fbdb44d5c21be23369f9e97e7dbf9bcced95172519f",
        "10577a626de10678a8794a7d75c2025c7d7cbad248b1106516b183fbab6f6077"),
    "pairs-20-2-k2-grid-2": (
        ["--elements", "20", "--accuracy", "2", "--grid-points", "2"],
        "d06ea653aa6b48b8b1997de7bf2fb3e803352c2d8e4494849a2e07df80c0833f",
        "166200811940973214eac94bd86039c775686e188a6c9e7b98e29543d37359cc"),
    "stochastic-16-2-k4": (
        ["--elements", "16", "--accuracy", "4", "--method", "stochastic",
         "--budget", "100000", "--seed", "7"],
        "c7c196b35cd818770671d5fa4d253d87a353c52fd62d33302555f271fad084a3",
        "4b6bf3bc0d6ef342a96ed9c9d71b0afe233670e1521cae05c8698eb72df46cf9"),
    "stochastic-24-3-k4": (
        ["--elements", "24", "--subarrays", "3", "--accuracy", "4",
         "--method", "stochastic", "--budget", "100000", "--seed", "7"],
        "dfaf25c521edbd553f1e9edc289f278b10a28a7e0cff1df245eb644c0eca8ca9",
        "7d56510a17052e704d193f83f87c2d59cf2056b17b594cf297d69461ffb15b7e"),
}


@pytest.mark.parametrize("name", GOLDEN_SEARCH)
def test_search_golden_digests(tmp_path, name):
    argv, beams_sha, pattern_sha = GOLDEN_SEARCH[name]
    assert main(["search", *argv, "--out", str(tmp_path / name)]) == 0
    digest = lambda suffix: hashlib.sha256(
        (tmp_path / f"{name}{suffix}").read_bytes()).hexdigest()
    assert (digest(".beams.json"), digest(".pattern.csv")) == (beams_sha,
                                                               pattern_sha)


# sha256 of .pattern.csv for explicit weights with one, two and three members
# and for the README replay of a saved golay pair, pinned before the pattern
# writer moved from pattern objects to the beam set's power tables.
GOLDEN_PATTERN = {
    "one-member-k4": (
        ["--weights", "0,1,2,3", "--accuracy", "4"],
        "2d3d8b26174987abd319dbe4b5fb9f5aa7122f57999c8b14ed04a75f28cecdb3"),
    "two-members-spacing-0.7": (
        ["--weights", "0,1,3", "--weights", "2,2,0", "--accuracy", "4",
         "--spacing", "0.7"],
        "1540103393fbb110dd384211ba2935d8b5bc116434b0a628591a40aa4480080e"),
    "three-members-k2-grid-100": (
        ["--weights", "0,1", "--weights", "1,1", "--weights", "1,0",
         "--accuracy", "2", "--grid-points", "100"],
        "86849ac5669019296bd2d60b83e1133ab01feb9f949484792cfe44f2566c85e3"),
    "golay-16-replay": (
        ["--beamset", "{pair}"],
        "10577a626de10678a8794a7d75c2025c7d7cbad248b1106516b183fbab6f6077"),
}


@pytest.mark.parametrize("name", GOLDEN_PATTERN)
def test_pattern_golden_digests(tmp_path, name):
    argv, pattern_sha = GOLDEN_PATTERN[name]
    pair = tmp_path / "pair"
    assert main(["search", "--elements", "16", "--subarrays", "2",
                 "--method", "golay", "--out", str(pair)]) == 0
    argv = [arg.format(pair=f"{pair}.beams.json") for arg in argv]
    assert main(["pattern", *argv, "--out", str(tmp_path / name)]) == 0
    assert hashlib.sha256((tmp_path / f"{name}.pattern.csv").read_bytes()
                          ).hexdigest() == pattern_sha
