"""Command-line harness: schemas, determinism, exit codes, check mode."""

import csv
import io
import json
import math

import numpy as np
import pytest

from ccrisk.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    SWEEP_CSV_COLUMNS,
    SweepConfig,
    _box_stats,
    _parse_dims,
    main,
    run_check,
    run_sweep,
    run_table1,
    run_table2,
    sweep_csv,
)
from ccrisk.fixtures import DEFAULT_FIXTURE
from ccrisk.gaussian import GaussianVec
from ccrisk.transcription import METHODS

SMALL_SWEEP = dict(dims=(1, 2), n_dists=3, mc_samples=2000, seed=7)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestParseDims:
    def test_range(self):
        assert _parse_dims("1..4") == (1, 2, 3, 4)

    def test_list_and_mixed(self):
        assert _parse_dims("1,5,10") == (1, 5, 10)
        assert _parse_dims("1..3,7") == (1, 2, 3, 7)


class TestSweep:
    def test_csv_schema(self):
        rows = run_sweep(SweepConfig(**SMALL_SWEEP))
        text = sweep_csv(rows)
        records = parse_csv(text)
        assert text.splitlines()[0] == ",".join(SWEEP_CSV_COLUMNS)
        assert len(records) == 2 * 3  # dims x methods
        assert {r["method"] for r in records} == {"spectral", "first_order", "dth_order"}

    def test_deterministic(self):
        a = sweep_csv(run_sweep(SweepConfig(**SMALL_SWEEP)))
        b = sweep_csv(run_sweep(SweepConfig(**SMALL_SWEEP)))
        assert a == b

    def test_seed_changes_output(self):
        a = sweep_csv(run_sweep(SweepConfig(**SMALL_SWEEP)))
        b = sweep_csv(run_sweep(SweepConfig(**{**SMALL_SWEEP, "seed": 8})))
        assert a != b

    def test_d1_methods_coincide(self):
        rows = [r for r in run_sweep(SweepConfig(**SMALL_SWEEP)) if r["dim"] == 1]
        medians = {r["method"]: r["median"] for r in rows}
        assert medians["spectral"] == medians["first_order"] == medians["dth_order"]

    def test_quick_caps_n_dists(self):
        cfg = SweepConfig(dims=(1,), n_dists=500, quick=True)
        assert cfg.n_dists == 100

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SweepConfig(dims=())
        with pytest.raises(ValueError):
            SweepConfig(dims=(0,))
        with pytest.raises(ValueError):
            SweepConfig(dims=(2,), n_dists=0)


class TestTable1:
    def test_rows_and_reference(self):
        result = run_table1(DEFAULT_FIXTURE, 10**5, 0)
        methods = [r["method"] for r in result["rows"]]
        assert methods == ["mc_true", "norm_spectral", "nakka_chung", "first_order"]
        assert result["mc_samples"] == 10**5
        assert result["seed"] == 0

    def test_mc_zero_gives_risks_only(self):
        result = run_table1(DEFAULT_FIXTURE, 0, 0)
        methods = [r["method"] for r in result["rows"]]
        assert "mc_true" not in methods
        assert all(r["conservatism"] is None for r in result["rows"])


class TestTable2:
    def test_placeholder_flagged_and_ordered(self):
        result = run_table2(DEFAULT_FIXTURE, None, 10**5, 0)
        assert result["target_is_placeholder"] is True
        assert [s["dimension"] for s in result["sections"]] == [6, 12]
        for section in result["sections"]:
            risks = {r["method"]: r["risk"] for r in section["rows"]}
            assert risks["dth_order"] <= risks["first_order"] <= risks["spectral"]

    def test_explicit_target(self):
        target = [0.9, 1.1, 0.1, 0.05, 0.2, 0.03]
        result = run_table2(DEFAULT_FIXTURE, target, 10**4, 0)
        assert result["target_is_placeholder"] is False
        assert result["target_state"] == target


class TestCheck:
    def test_unsatisfied_first_order(self, example_2d):
        payload = json.loads(example_2d.to_json())
        payload.update(beta=1e-3, methods=["first_order"])
        report, code = run_check(payload)
        assert code == EXIT_OK
        assert report["verdicts"][0]["satisfied"] is False
        assert report["risk_estimates"][0]["value"] == pytest.approx(0.6065, abs=1e-3)

    def test_safe_scalar_default_methods(self):
        payload = {"mean": [-5.0], "cov": [[1.0]], "beta": 1e-3}
        report, code = run_check(payload)
        assert code == EXIT_OK
        assert all(v["satisfied"] for v in report["verdicts"])

    def test_scalar_baselines_differ_in_conservatism(self):
        # at five sigma the exact scalar bound accepts beta = 1e-3 but the
        # distribution-free bound needs a 31.6-sigma backoff and rejects it
        payload = {"mean": [-5.0], "cov": [[1.0]], "beta": 1e-3, "methods": ["linear_1d", "nakka_chung"]}
        report, code = run_check(payload)
        assert code == EXIT_OK
        by_method = {v["method"]: v["satisfied"] for v in report["verdicts"]}
        assert by_method == {"linear_1d": True, "nakka_chung": False}

    def test_positive_mean_domain_exit(self):
        payload = {"mean": [1.0, -1.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "beta": 0.1}
        report, code = run_check(payload)
        assert code == EXIT_DOMAIN
        assert any(not e["defined"] for e in report["risk_estimates"])

    def test_bad_method_name(self):
        with pytest.raises(ValueError):
            run_check({"mean": [-1.0], "cov": [[1.0]], "beta": 0.1, "methods": ["bogus"]})

    def test_non_finite_input_usage_exit(self, tmp_path, capsys):
        # json.loads accepts the NaN literal; GaussianVec rejects it on entry
        bad = tmp_path / "nan.json"
        bad.write_text('{"mean": [-1, -1], "cov": [[NaN, 0], [0, 1]], "beta": 0.1}')
        assert main(["check", str(bad)]) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["null", "[0.1]", '{"value": 0.1}'])
    def test_non_numeric_beta_usage_exit(self, beta, tmp_path, capsys):
        bad = tmp_path / "beta.json"
        bad.write_text('{"mean": [-1], "cov": [[1]], "beta": %s}' % beta)
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith('error: "beta" must be a number') and err.count("\n") == 1

    def test_scalar_method_on_vector_input(self):
        payload = {"mean": [-1.0, -1.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "beta": 0.1, "methods": ["linear_1d"]}
        with pytest.raises(ValueError):
            run_check(payload)

    @pytest.mark.parametrize("entry", ['["a"]', '{"a": 1}', "3"])
    def test_non_string_method_usage_exit(self, entry, tmp_path, capsys):
        bad = tmp_path / "methods.json"
        bad.write_text('{"mean": [-1], "cov": [[1]], "beta": 0.1, "methods": [%s]}' % entry)
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: unknown method ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["mean", "cov"])
    def test_object_valued_array_usage_exit(self, key, tmp_path, capsys):
        payload = {"mean": [-1], "cov": [[1]], "beta": 0.1, key: {"a": 1}}
        bad = tmp_path / "object.json"
        bad.write_text(json.dumps(payload))
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f'error: "{key}" must be an array of numbers') and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mean,cov",
        [([-1.5], [[0.4]]), ([0.2], [[1.0]]), ([-1.0, -2.0, -0.5], np.eye(3) + 0.2)],
        ids=["d1", "d1-positive-mean", "d3"],
    )
    def test_each_method_matches_direct_call(self, mean, cov):
        g = GaussianVec(mean, cov)
        for method, (transcribe, risk) in METHODS.items():
            if g.dim != 1 and method in ("linear_1d", "nakka_chung"):
                continue
            payload = {"mean": mean, "cov": np.asarray(cov).tolist(), "beta": 0.05, "methods": [method.value]}
            report, _ = run_check(payload)
            assert report["verdicts"] == [transcribe(g, 0.05).to_dict()]
            assert report["risk_estimates"] == [risk(g).to_dict()]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBoxStats:
    def stats(self, values):
        s = _box_stats(values)
        return [s[k] for k in ("median", "q1", "q3", "whisker_lo", "whisker_hi")]

    def test_all_inf(self):
        assert self.stats([math.inf] * 4) == [math.inf] * 5

    def test_half_inf(self):
        # q3 interpolates between two infs, which gives nan, reported as inf
        assert self.stats([1.0, 2.0, 3.0, 4.0] + [math.inf] * 4) == [math.inf, 2.75, math.inf, 1.0, math.inf]
        assert self.stats([1.0, math.inf, math.inf, math.inf]) == [math.inf, math.inf, math.inf, 1.0, math.inf]

    def test_zero_laden(self):
        assert self.stats([0.0, 0.0, 0.0, 0.0, 5.0]) == [0.0, 0.0, 0.0, 0.0, 0.0]
        # the 75th percentile sits on the sample value 2.0, but numpy's
        # linear interpolation forms 2 + (inf - 2) * 0 = nan, so q3 and the
        # upper whisker read inf
        assert self.stats([0.0, 0.0, 1.0, 2.0, math.inf]) == [1.0, 0.0, math.inf, 0.0, math.inf]


class TestMainEntry:
    def test_sweep_csv_roundtrip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["--seed", "3", "--mc-samples", "2000", "--out", str(out), "sweep", "--dims", "1,2", "--n-dists", "2"]
        )
        assert code == EXIT_OK
        records = parse_csv(out.read_text())
        assert len(records) == 6

    def test_sweep_byte_identical(self, tmp_path):
        args = ["--mc-samples", "2000", "sweep", "--dims", "1,2", "--n-dists", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--out", str(a)] + args) == EXIT_OK
        assert main(["--out", str(b)] + args) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_table1_json(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        code = main(["--mc-samples", "10000", "--format", "json", "--out", str(out), "table1"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["table"] == "control_magnitude"

    def test_check_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mean": [1,')
        assert main(["check", str(bad)]) == EXIT_USAGE
        assert "line" in capsys.readouterr().err

    def test_check_file_ok(self, tmp_path, capsys):
        payload = tmp_path / "in.json"
        payload.write_text(json.dumps({"mean": [-4.0], "cov": [[1.0]], "beta": 1e-3}))
        assert main(["check", str(payload)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["beta"] == 1e-3

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_usage_exit(self, seed, capsys):
        assert main(["--seed", seed, "--quick", "table1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --seed") and err.count("\n") == 1

    def test_unknown_flag_usage_exit(self):
        assert main(["sweep", "--no-such-flag"]) == EXIT_USAGE

    def test_emit_plot_data(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "plot.csv"
        code = main(
            [
                "--mc-samples", "1000", "--out", str(out),
                "sweep", "--dims", "1", "--n-dists", "2", "--emit-plot-data", str(plot),
            ]
        )
        assert code == EXIT_OK
        records = parse_csv(plot.read_text())
        assert {r["statistic"] for r in records} == {"median", "q1", "q3", "whisker_lo", "whisker_hi"}
