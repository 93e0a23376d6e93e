"""Command-line harness: schemas, determinism, exit codes, check mode."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccrisk.cli
from ccrisk.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, SWEEP_CSV_COLUMNS, _dump_json, _parse_dims, main, sweep_csv
from ccrisk.experiments import _box_stats, run_check, run_sweep, run_table1, run_table2
from ccrisk.gaussian import GaussianVec
from ccrisk.transcription import METHODS, MULTIDIMENSIONAL

SMALL_SWEEP = dict(dims=(1, 2), n_dists=3, beta=1e-3, mc_samples=2000, seed=7)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def check_cli(tmp_path, capsys):
    """Run ``ccrisk [flags] check [--mc] FILE`` on a payload; return the
    printed report, parsed, and the exit code."""

    def run(payload, *flags, mc=False):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code = main([*flags, "check", *(["--mc"] if mc else []), str(path)])
        return json.loads(capsys.readouterr().out), code

    return run


class TestParseDims:
    def test_range(self):
        assert _parse_dims("1..4") == (1, 2, 3, 4)

    def test_list_and_mixed(self):
        assert _parse_dims("1,5,10") == (1, 5, 10)
        assert _parse_dims("1..3,7") == (1, 2, 3, 7)


class TestSweep:
    def test_csv_schema(self):
        rows = run_sweep(**SMALL_SWEEP)
        text = sweep_csv(rows)
        records = parse_csv(text)
        assert text.splitlines()[0] == ",".join(SWEEP_CSV_COLUMNS)
        assert len(records) == 2 * 3  # dims x methods
        assert {r["method"] for r in records} == {"spectral", "first_order", "dth_order"}

    def test_deterministic(self):
        a = sweep_csv(run_sweep(**SMALL_SWEEP))
        b = sweep_csv(run_sweep(**SMALL_SWEEP))
        assert a == b

    def test_seed_changes_output(self):
        a = sweep_csv(run_sweep(**SMALL_SWEEP))
        b = sweep_csv(run_sweep(**{**SMALL_SWEEP, "seed": 8}))
        assert a != b

    def test_d1_methods_coincide(self):
        rows = [r for r in run_sweep(**SMALL_SWEEP) if r["dim"] == 1]
        medians = {r["method"]: r["median"] for r in rows}
        assert medians["spectral"] == medians["first_order"] == medians["dth_order"]

    def test_d1_gamma_is_two(self):
        # psi(r, 1) = 2 Phi(-r) is twice the one-sided risk Phi(-r), which
        # the reference gives exactly, even from a single antithetic pair
        rows = run_sweep(dims=(1,), n_dists=20, beta=1e-3, mc_samples=2, seed=0)
        for row in rows:
            assert row["median"] == pytest.approx(2.0, rel=1e-4)

    def test_quick_caps_n_dists(self, monkeypatch):
        seen = []
        monkeypatch.setattr(ccrisk.cli, "run_sweep", lambda dims, n_dists, *rest: seen.append(n_dists) or [])
        assert main(["--quick", "sweep", "--dims", "1", "--n-dists", "500"]) == EXIT_OK
        assert seen == [100]


class TestTable1:
    def test_rows_and_reference(self):
        result = run_table1(10**5, 0)
        methods = [r["method"] for r in result["rows"]]
        assert methods == ["mc_true", "norm_spectral", "nakka_chung", "first_order"]
        assert result["mc_samples"] == 10**5
        assert result["seed"] == 0

    def test_mc_zero_gives_risks_only(self):
        result = run_table1(0, 0)
        methods = [r["method"] for r in result["rows"]]
        assert "mc_true" not in methods
        assert all(r["conservatism"] is None for r in result["rows"])


class TestTable2:
    def test_placeholder_flagged_and_ordered(self):
        result = run_table2(None, 10**5, 0)
        assert result["target_is_placeholder"] is True
        assert [s["dimension"] for s in result["sections"]] == [6, 12]
        for section in result["sections"]:
            risks = {r["method"]: r["risk"] for r in section["rows"]}
            assert risks["dth_order"] <= risks["first_order"] <= risks["spectral"]

    def test_explicit_target(self):
        target = [0.9, 1.1, 0.1, 0.05, 0.2, 0.03]
        result = run_table2(target, 10**4, 0)
        assert result["target_is_placeholder"] is False
        assert result["target_state"] == target


class TestCheck:
    def test_unsatisfied_first_order(self, example_2d, check_cli):
        payload = {"mean": example_2d.mean.tolist(), "cov": example_2d.cov.tolist()}
        payload.update(beta=1e-3, methods=["first_order"])
        report, code = check_cli(payload)
        assert code == EXIT_OK
        assert report["verdicts"][0]["satisfied"] is False
        assert report["risk_estimates"][0]["value"] == pytest.approx(0.6065, abs=1e-3)

    def test_safe_scalar_default_methods(self, check_cli):
        payload = {"mean": [-5.0], "cov": [[1.0]], "beta": 1e-3}
        report, code = check_cli(payload)
        assert code == EXIT_OK
        assert all(v["satisfied"] for v in report["verdicts"])

    def test_scalar_baselines_differ_in_conservatism(self, check_cli):
        # at five sigma the exact scalar bound accepts beta = 1e-3 but the
        # distribution-free bound needs a 31.6-sigma backoff and rejects it
        payload = {"mean": [-5.0], "cov": [[1.0]], "beta": 1e-3, "methods": ["linear_1d", "nakka_chung"]}
        report, code = check_cli(payload)
        assert code == EXIT_OK
        by_method = {v["method"]: v["satisfied"] for v in report["verdicts"]}
        assert by_method == {"linear_1d": True, "nakka_chung": False}

    def test_positive_mean_domain_exit(self, check_cli):
        payload = {"mean": [1.0, -1.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "beta": 0.1}
        report, code = check_cli(payload)
        assert code == EXIT_DOMAIN
        assert any(not e["defined"] for e in report["risk_estimates"])

    def test_bad_method_name(self):
        with pytest.raises(ValueError):
            run_check({"mean": [-1.0], "cov": [[1.0]], "beta": 0.1, "methods": ["bogus"]})

    def test_bad_method_name_rejected_before_any_method_runs(self, monkeypatch):
        first = next(iter(METHODS))
        monkeypatch.setitem(METHODS, first, (pytest.fail, pytest.fail))
        with pytest.raises(ValueError, match="unknown method"):
            run_check({"mean": [-1.0], "cov": [[1.0]], "beta": 0.1, "methods": [first.value, "bogus"]})

    def test_scalar_only_method_rejected_before_any_method_runs(self, monkeypatch):
        first = MULTIDIMENSIONAL[-1]
        monkeypatch.setitem(METHODS, first, (pytest.fail, pytest.fail))
        payload = {"mean": [-1, -2], "cov": [[1, 0], [0, 1]], "beta": 0.1, "methods": [first.value, "linear_1d"]}
        with pytest.raises(ValueError, match="^method 'linear_1d' only applies to scalar constraints$"):
            run_check(payload)

    def test_non_finite_input_usage_exit(self, tmp_path, capsys):
        # json.loads accepts the NaN literal; GaussianVec rejects it on entry
        bad = tmp_path / "nan.json"
        bad.write_text('{"mean": [-1, -1], "cov": [[NaN, 0], [0, 1]], "beta": 0.1}')
        assert main(["check", str(bad)]) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "beta",
        # an integer too large for a double: float() overflows
        ["null", "[0.1]", '{"value": 0.1}', '"0.01"', '"abc"', "true", pytest.param("1" + "0" * 400, id="huge-int")],
    )
    def test_non_numeric_beta_usage_exit(self, beta, tmp_path, capsys):
        bad = tmp_path / "beta.json"
        bad.write_text('{"mean": [-1], "cov": [[1]], "beta": %s}' % beta)
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith('error: "beta" must be a number') and err.count("\n") == 1
        # the line shows a shortened value, not all 401 digits
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "mean,cov",
        [
            ([-1e200, -1e-149], [[1e-300, 0], [0, 1e-300]]),
            ([-1e200], [[1e-300]]),
            # the margin is tiny, but the reference's scaled directions overflow
            ([-1e-300], [[1e20]]),
        ],
        ids=["d2", "d1", "d1-wide"],
    )
    def test_margin_beyond_double_range(self, mean, cov, tmp_path, capsys):
        # -mean / sigma or its reciprocal overflows; neither may warn or fail
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"mean": mean, "cov": cov, "beta": 1e-3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--mc-samples", "2000", "check", "--mc", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        # the nominal margin 1e-310 leaves risk 1/2, far above beta
        assert all(v["satisfied"] for v in report["verdicts"]) == (mean[0] == -1e200)
        if mean == [-1e200]:
            assert [e["value"] for e in report["risk_estimates"]] == [0.0, 0.0, 0.0]
            assert report["conservatism"]["beta_r"]["estimate"] == 0.0
        # at d2, eigvalsh rounds diag(1e-300)'s largest eigenvalue an ulp low
        spectral, first, _ = report["verdicts"]
        assert all(a >= b for a, b in zip(spectral["margins"], first["margins"]))
        assert report["conservatism"]["hierarchy_ok"] is True

    def test_linear_1d_beyond_one_minus_beta_rounding(self, check_cli):
        # 1 - 1e-17 rounds to 1; the exact backoff never forms it
        payload = {"mean": [-10.0], "cov": [[1.0]], "beta": 1e-17, "methods": ["linear_1d"]}
        report, code = check_cli(payload)
        assert code == EXIT_OK
        assert report["verdicts"][0]["satisfied"] is True
        assert report["risk_estimates"][0]["value"] <= 1e-17

    def test_deeply_nested_input_usage_exit(self, tmp_path, capsys):
        # the JSON decoder recurses once per level of nesting
        bad = tmp_path / "deep.json"
        bad.write_text('{"mean": %s%s, "cov": [[1]], "beta": 0.1}' % ("[" * 100_000, "]" * 100_000))
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "key,value",
        [
            ("mean", {"a": 1}),
            ("cov", {"a": 1}),
            # numpy would read these as numbers
            ("mean", "-3"),
            ("mean", ["-3"]),
            ("mean", [True]),
            ("cov", [["1"]]),
            ("cov", [[True]]),
            # an integer too large for a double
            ("mean", [10**400]),
            ("cov", [[10**400]]),
            ("mean", None),
            ("cov", [[1], [1, 2]]),
            # one bad entry in a large matrix: the error line shows a shortened value
            ("cov", [["1" if (i, j) == (3, 7) else float(i == j) for j in range(25)] for i in range(25)]),
        ],
        ids=[
            "mean", "cov", "mean-string", "mean-string-entry", "mean-bool-entry", "cov-string-entry", "cov-bool-entry",
            "mean-huge-int", "cov-huge-int", "mean-null", "cov-ragged", "cov-25x25-string-entry",
        ],
    )
    def test_object_valued_array_usage_exit(self, key, value, tmp_path, capsys):
        payload = {"mean": [-1], "cov": [[1]], "beta": 0.1, key: value}
        bad = tmp_path / "object.json"
        bad.write_text(json.dumps(payload))
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f'error: "{key}" must be an array of numbers') and err.count("\n") == 1
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "mean,cov",
        [([-1.5], [[0.4]]), ([0.2], [[1.0]]), ([-1.0, -2.0, -0.5], np.eye(3) + 0.2)],
        ids=["d1", "d1-positive-mean", "d3"],
    )
    def test_each_method_matches_direct_call(self, mean, cov, check_cli):
        g = GaussianVec(mean, cov)
        for method, (transcribe, risk) in METHODS.items():
            if g.dim != 1 and method in ("linear_1d", "nakka_chung"):
                continue
            payload = {"mean": mean, "cov": np.asarray(cov).tolist(), "beta": 0.05, "methods": [method.value]}
            report, _ = check_cli(payload)
            assert report["verdicts"] == json.loads(_dump_json([transcribe(g, 0.05)]))
            assert report["risk_estimates"] == json.loads(_dump_json([risk(g)]))

    def test_mc_report_layout(self, check_cli):
        # deep in the tail the reference reads 0: the spectral estimate still
        # resolves (gamma inf) while the other two underflow to 0 (gamma 0)
        payload = {"mean": [-40.0, -39.0], "cov": [[1.0, 0.9], [0.9, 1.0]], "beta": 1e-3}
        report, code = check_cli(payload, "--mc-samples", "2000", mc=True)
        assert code == EXIT_OK
        assert list(report) == ["beta", "verdicts", "risk_estimates", "conservatism"]
        assert all(list(v) == ["method", "beta", "margins", "satisfied"] for v in report["verdicts"])
        assert all(list(e) == ["method", "value", "defined"] for e in report["risk_estimates"])
        conservatism = report["conservatism"]
        assert list(conservatism) == ["beta_r", "estimates", "gamma", "hierarchy_ok"]
        assert list(conservatism["beta_r"]) == ["estimate", "ci_low", "ci_high", "n_samples", "seed", "estimator"]
        assert list(conservatism["estimates"]) == ["spectral", "first_order", "dth_order"]
        assert all(list(e) == ["method", "value", "defined"] for e in conservatism["estimates"].values())
        assert conservatism["gamma"] == {"spectral": "inf", "first_order": 0.0, "dth_order": 0.0}


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
        # the 75th percentile sits on the sample value 2.0; interpolating
        # toward the inf beside it with weight 0 must not turn it into nan
        assert self.stats([0.0, 0.0, 1.0, 2.0, math.inf]) == [1.0, 0.0, 2.0, 0.0, 2.0]

    def test_undefined_left_out(self):
        # a reference of 1 leaves gamma undefined (None), which no statistic counts
        assert self.stats([None, 1.0, 2.0, None, math.inf]) == self.stats([1.0, 2.0, math.inf])
        assert self.stats([None, None]) == [None] * 5

    def test_whisker_clamped_to_quartile(self):
        # q3 = 666.8 is interpolated toward the outlier 2113.4, above every
        # sample inside the fence; the whisker ends at q3, not at 184.6
        median, q1, q3, lo, hi = self.stats([58.0, 125.3, 184.6, 2113.4])
        assert (lo, hi) == (58.0, q3)
        assert q3 == pytest.approx(666.8, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), st.just(0.0), st.just(math.inf), st.floats(0.0, 1e6), st.floats(0.0, 1e300)),
            min_size=1,
            max_size=40,
        )
    )
    def test_whiskers_outside_the_box(self, values):
        s = _box_stats(values)
        if s["median"] is None:
            assert all(v is None for v in values)
            return
        assert s["whisker_lo"] <= s["q1"] <= s["median"] <= s["q3"] <= s["whisker_hi"]


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

    @pytest.mark.parametrize("n_dists", [3, 5])
    def test_sweep_with_undefined_gamma(self, n_dists, capsys):
        # at beta = 0.9, d = 25 and seed 4 the first three references read
        # 1 and the fourth just below it; no cell is NaN, and a cell with no
        # defined gamma is empty in CSV and null in JSON
        args = ["--seed", "4", "--mc-samples", "5000"]
        args += ["sweep", "--dims", "25", "--n-dists", str(n_dists), "--beta", "0.9"]
        assert main(args) == EXIT_OK
        records = parse_csv(capsys.readouterr().out)
        assert main(["--format", "json"] + args) == EXIT_OK
        rows = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        stats = ["median", "q1", "q3", "whisker_lo", "whisker_hi"]
        expected = [None] * 5 if n_dists == 3 else ["inf"] * 5
        assert [[row[k] for k in stats] for row in rows] == [expected] * 3
        assert [[rec[k] for k in stats] for rec in records] == [["" if e is None else e for e in expected]] * 3

    def test_json_has_no_nan(self):
        # inf is written as "inf"; NaN has no JSON form and raises
        assert json.loads(_dump_json({"x": [1.0, math.inf]})) == {"x": [1.0, "inf"]}
        with pytest.raises(ValueError):
            _dump_json({"x": [1.0, math.nan]})

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--dims", "0"],
            ["sweep", "--dims", "abc"],
            ["sweep", "--dims", "5..3"],
            ["sweep", "--n-dists", "0"],
            ["sweep", "--beta", "2"],
            ["sweep", "--beta", "nan"],
            ["table2", "--target-state", "1,2"],
            ["--mc-samples", "0", "table2"],
            ["--mc-samples", "0", "sweep"],
            ["--mc-samples", "-5", "--quick", "table1"],
            ["--mc-samples", "0", "check", "--mc", "PAYLOAD"],
            ["--mc-samples", "-5", "check", "--mc", "PAYLOAD"],
            ["sweep", "--dims", ","],
            ["sweep", "--dims", "1,1"],
            ["sweep", "--dims", "1..3,2"],
            ["check", "NODIR"],
            ["--out", "NODIR", "sweep"],
            ["sweep", "--emit-plot-data", "NODIR"],
            ["sweep", "--dims", "1.."],
            ["--out", "DIR", "sweep"],
            ["sweep", "--emit-plot-data", "DIR"],
            # the plot data would overwrite the CSV, however the path is spelled
            ["--out", "same.csv", "sweep", "--emit-plot-data", "same.csv"],
            ["--out", "same.csv", "sweep", "--emit-plot-data", "./same.csv"],
            # the box tolerance is relative to each component
            ["table2", "--target-state", "0,1,1,1,1,1"],
            # argparse's own errors: a bad type, an unknown flag, no subcommand
            ["--seed", "abc", "table1"],
            ["sweep", "--n-dists", "x"],
            ["sweep", "--no-such-flag"],
            [],
        ],
    )
    def test_malformed_flag_usage_exit(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = tmp_path / "in.json"
        payload.write_text(json.dumps({"mean": [-3.0, -2.0], "cov": np.eye(2).tolist(), "beta": 1e-3}))
        # NODIR is a path in a directory that does not exist, DIR an existing directory
        paths = {"PAYLOAD": str(payload), "NODIR": str(tmp_path / "missing" / "x.json"), "DIR": str(tmp_path)}
        argv = [paths.get(a, a) for a in argv]
        for name in ("run_table1", "run_table2", "run_sweep", "run_check"):
            monkeypatch.setattr(ccrisk.cli, name, pytest.fail)
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", ["table1", "table2"])
    def test_quick_leaves_tables_unchanged(self, table, fmt, capsys):
        outputs = []
        for flags in ([], ["--quick"]):
            assert main([*flags, "--format", fmt, table]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("quick", [[], ["--quick"]])
    @pytest.mark.parametrize(
        "argv,cap",
        [
            (["sweep", "--dims", "1"], 10**5),
            (["table1"], 10**6),
            (["table2"], 10**6),
            (["check", "--mc", "PAYLOAD"], 10**6),
        ],
    )
    def test_default_mc_samples(self, argv, cap, quick, tmp_path, monkeypatch):
        payload = tmp_path / "in.json"
        payload.write_text(json.dumps({"mean": [-3.0], "cov": [[1.0]], "beta": 1e-3}))
        seen = []
        stubs = {
            "run_table1": lambda n, *rest: seen.append(n) or {},
            "run_table2": lambda target, n, *rest: seen.append(n) or {},
            "run_sweep": lambda dims, n_dists, beta, n, *rest: seen.append(n) or [],
            "run_check": lambda data, n, *rest: seen.append(n) or {"risk_estimates": []},
        }
        for name, stub in stubs.items():
            monkeypatch.setattr(ccrisk.cli, name, stub)
        argv = [str(payload) if a == "PAYLOAD" else a for a in argv]
        assert main([*quick, "--format", "json", "--out", str(tmp_path / "out"), *argv]) == EXIT_OK
        assert seen == [cap]

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300])
    def test_check_symmetry_tolerance_is_scale_free(self, scale, tmp_path, capsys):
        path = tmp_path / "in.json"
        mean = [-3.0 * math.sqrt(scale), -2.0 * math.sqrt(scale)]
        for off, code in ((0.9 * scale, EXIT_USAGE), (0.0, EXIT_OK)):
            path.write_text(json.dumps({"mean": mean, "cov": [[scale, 0.0], [off, scale]], "beta": 1e-3}))
            assert main(["check", str(path)]) == code
        err = capsys.readouterr().err
        assert err == "error: matrix is not symmetric within tolerance\n"

    def test_check_non_positive_definite_at_large_dimension(self, tmp_path, capsys):
        cov = np.eye(1200)
        cov[0, 0] = -1.0
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"mean": [-1.0] * 1200, "cov": cov.tolist(), "beta": 1e-3}))
        assert main(["check", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: pivot at index 0 not positive") and err.count("\n") == 1

    def test_mc_samples_zero_table1_is_risk_only(self, capsys):
        assert main(["--mc-samples", "0", "--format", "json", "table1"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["mc_samples"] == 0
        assert [r["method"] for r in result["rows"]] == ["norm_spectral", "nakka_chung", "first_order"]

    def test_unknown_flag_usage_exit(self):
        assert main(["sweep", "--no-such-flag"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exit_ok(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: ccrisk")

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

    def test_uncaught_error_one_line_domain_exit(self, monkeypatch, capsys):
        def boom(*args):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(ccrisk.cli, "run_sweep", boom)
        assert main(["sweep", "--dims", "1"]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: worker failed\n"

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(ccrisk.cli, "run_sweep", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--dims", "1"])
