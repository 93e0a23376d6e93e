"""Conservatism metric and the hierarchy report."""

import importlib
import json
import math

import numpy as np
import pytest

from ccrisk import risk
from ccrisk.cli import _dump_json
from ccrisk.conservatism import ConservatismReport, conservatism, hierarchy_report, hierarchy_reports
from ccrisk.experiments import run_check, run_sweep, run_table1, run_table2
from ccrisk.gaussian import GaussianVec

from conftest import random_pd_gaussian


class TestConservatismFormula:
    def test_perfect_estimator(self):
        for b in (1e-6, 0.01, 0.5, 0.99):
            assert conservatism(b, b) == 1.0

    def test_table_scale_ad_hoc(self):
        assert conservatism(0.035, 1e-6) == pytest.approx(3.5e4, rel=0.02)

    def test_table_scale_near_certainty(self):
        assert conservatism(1 - 4.5e-7, 1e-5) == pytest.approx(1.1e8, rel=0.1)

    def test_certainty_is_infinite(self):
        assert math.isinf(conservatism(1.0, 0.5))

    def test_small_beta_asymptote(self):
        for bt, br in ((1e-3, 1e-4), (5e-4, 1e-3), (1e-6, 1e-5)):
            gamma = conservatism(bt, br)
            assert abs(gamma - bt / br) / gamma <= 1e-5

    def test_strictly_increasing_in_beta_t(self):
        grid = [1e-5, 1e-3, 0.1, 0.5, 0.9, 0.9999]
        values = [conservatism(b, 0.01) for b in grid]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    @pytest.mark.parametrize("br", [0.0, 1.0, -0.5])
    def test_rejects_degenerate_reference(self, br):
        with pytest.raises(ValueError):
            conservatism(0.5, br)

    def test_rejects_nonpositive_estimate(self):
        with pytest.raises(ValueError):
            conservatism(-0.1, 0.5)


class TestHierarchyReport:
    def test_example_ordering(self, example_2d):
        report = hierarchy_report(example_2d, 10**6, 0)
        assert report.hierarchy_ok
        est, gamma = report.estimates, report.gamma
        assert est["dth_order"].value <= est["first_order"].value <= est["spectral"].value
        assert 1.0 <= gamma["dth_order"] <= gamma["first_order"] <= gamma["spectral"]

    def test_scalar_coincidence(self):
        g = GaussianVec([-1.5], [[1.0]])
        report = hierarchy_report(g, 10**5, 1)
        assert report.gamma["spectral"] == report.gamma["first_order"] == report.gamma["dth_order"]

    def test_random_instances_all_ok(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            g = random_pd_gaussian(rng, int(rng.integers(1, 7)))
            report = hierarchy_report(g, 10**4, int(rng.integers(0, 2**32)))
            assert report.hierarchy_ok

    def test_rejects_positive_mean(self):
        with pytest.raises(ValueError):
            hierarchy_report(GaussianVec([0.5, -1.0], np.eye(2)), 10**3, 0)

    def test_serialization(self, example_2d):
        payload = json.loads(_dump_json(hierarchy_report(example_2d, 10**4, 0)))
        assert payload["hierarchy_ok"] is True
        assert set(payload["gamma"]) == {"spectral", "first_order", "dth_order"}
        # the draws it used: it stops at a look, 1024 * 2^k, or at the cap
        n = payload["beta_r"]["n_samples"]
        assert n == 10**4 or (n < 10**4 and n % 1024 == 0 and (n // 1024).bit_count() == 1)


class TestHierarchyReports:
    N = 10**4
    SEEDS = [101, 102, 103, 104]

    @staticmethod
    def mixed_batch():
        rng = np.random.default_rng(31)
        return [random_pd_gaussian(rng, d) for d in (1, 2, 6, 25)]

    def test_batch_equals_single_reports(self):
        gs = self.mixed_batch()
        batch = [_dump_json(r) for r in hierarchy_reports(gs, self.N, self.SEEDS)]
        assert batch == [_dump_json(hierarchy_report(g, self.N, s)) for g, s in zip(gs, self.SEEDS)]

    def test_shuffled_batch_gives_the_same_reports(self):
        gs = self.mixed_batch()
        expected = [_dump_json(r) for r in hierarchy_reports(gs, self.N, self.SEEDS)]
        perm = [2, 0, 3, 1]
        shuffled = hierarchy_reports([gs[i] for i in perm], self.N, [self.SEEDS[i] for i in perm])
        assert [_dump_json(r) for r in shuffled] == [expected[i] for i in perm]

    def test_positive_mean_rejected_before_any_block(self, monkeypatch):
        calls = []
        block = risk._aloe_block

        def counted(task):
            calls.append(task)
            return block(task)

        monkeypatch.setattr(risk, "_aloe_block", counted)
        gs = self.mixed_batch()
        hierarchy_reports(gs[:1], 10, self.SEEDS[:1])
        assert len(calls) == 1
        calls.clear()
        gs[-1] = GaussianVec([-1.0, 0.5], np.eye(2))
        with pytest.raises(ValueError, match="mean <= 0"):
            hierarchy_reports(gs, self.N, self.SEEDS)
        assert calls == []

    def test_json_key_order(self, example_2d):
        payload = json.loads(_dump_json(hierarchy_report(example_2d, 10**3, 0)))
        assert list(payload) == ["beta_r", "estimates", "gamma", "hierarchy_ok"]
        assert list(payload["estimates"]) == list(payload["gamma"]) == ["spectral", "first_order", "dth_order"]
        assert [e["method"] for e in payload["estimates"].values()] == list(payload["estimates"])


class TestOnePathToTheReference:
    """Every experiment draws its references through ``hierarchy_reports``,
    and every reference it reports is one drawn there."""

    CASES = {
        "table1": (
            lambda: run_table1(10**4, 0),
            lambda rec: [row["risk"] for row in rec["rows"] if row["method"] == "mc_true"],
        ),
        "table2": (
            lambda: run_table2(None, 10**4, 0),
            lambda rec: [s["rows"][0]["risk"] for s in rec["sections"]],
        ),
        "check": (
            lambda: run_check({"mean": [-3, -2], "cov": [[1, 0.3], [0.3, 1]], "beta": 1e-3}, mc_samples=10**4),
            lambda rec: [rec["conservatism"].beta_r.estimate],
        ),
    }

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The batches of references drawn through ``hierarchy_reports``."""
        batches = []
        module = importlib.import_module("ccrisk.conservatism")
        draw = module.aloe_risks

        def recorded(gs, n, seeds, tol):
            batches.append(draw(gs, n, seeds, tol))
            return batches[-1]

        monkeypatch.setattr(module, "aloe_risks", recorded)
        return batches

    @pytest.mark.parametrize("name", list(CASES))
    def test_reported_references_were_drawn_there(self, name, drawn):
        run, references = self.CASES[name]
        record = run()
        assert references(record) == [ref.estimate for batch in drawn for ref in batch]

    def test_sweep(self, drawn, monkeypatch):
        # _SWEEP_BATCH instances per batch, cut within and across dimensions
        run_sweep((1, 2), 3, 1e-3, 2000, 7)
        assert [len(batch) for batch in drawn] == [6]
        drawn.clear()
        monkeypatch.setattr(importlib.import_module("ccrisk.experiments"), "_SWEEP_BATCH", 4)
        run_sweep((1, 2, 3), 3, 1e-3, 2000, 7)
        assert [len(batch) for batch in drawn] == [4, 4, 1]

    def test_sweep_cut_within_a_dimension(self, drawn, monkeypatch):
        # more distributions per dimension than a batch holds; each reference
        # depends only on its own instance, so the cut leaves the rows as they are
        whole = run_sweep((1, 2), 5, 1e-3, 2000, 7)
        drawn.clear()
        monkeypatch.setattr(importlib.import_module("ccrisk.experiments"), "_SWEEP_BATCH", 4)
        assert run_sweep((1, 2), 5, 1e-3, 2000, 7) == whole
        assert [len(batch) for batch in drawn] == [4, 4, 2]

    def test_sweep_seeds_one_per_dimension(self, drawn, monkeypatch):
        # a dimension's references share one seed, so they read the same
        # draws, in every batch that holds them
        monkeypatch.setattr(importlib.import_module("ccrisk.experiments"), "_SWEEP_BATCH", 4)
        run_sweep((1, 2, 3), 3, 1e-3, 2000, 7)
        seeds = [ref.seed for batch in drawn for ref in batch]
        assert seeds == [seeds[0]] * 3 + [seeds[3]] * 3 + [seeds[6]] * 3
        assert len({seeds[0], seeds[3], seeds[6]}) == 3


def test_package_attribute_is_the_submodule():
    # the package re-exports no name of a submodule, so the function
    # ``conservatism`` does not hide its module
    import ccrisk

    assert importlib.import_module("ccrisk.conservatism") is ccrisk.conservatism
    assert ccrisk.conservatism.hierarchy_reports is hierarchy_reports
