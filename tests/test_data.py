"""Containers, validation, regimes, and the one CSV format: round trips,
every writer against the per-row ``csv.writer`` code it replaced, and both
readers on malformed files."""

import csv

import numpy as np
import pytest

from gmethods.data import (
    Dataset,
    History,
    Regime,
    Schema,
    binary,
    constant,
    continuous,
    discrete,
    read_csv,
    regime_values,
    validate,
    write_csv,
)
from gmethods.errors import ConfigError, ValidationError
from gmethods.gformula import JointTable, g_formula_exact, g_formula_mc
from gmethods.scenarios import (
    SCENARIOS,
    enumerate_joint,
    sequential_trial_scenario,
    simulate,
    sndm_scenario,
)
from gmethods.sndm import additive_blip, g_estimate
from gmethods.studies import StudyConfig, StudyRow, run_study, write_study_log


def per_row_write_csv(dataset, path) -> None:
    """write_csv as it was: one csv.writer row per subject, each value the
    repr of its float."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(dataset.schema.columns())
        K = dataset.schema.K
        for i in range(dataset.n):
            row: list[str] = []
            for m in range(K + 1):
                row.append(repr(float(dataset.L[i, m])))
                row.append(repr(float(dataset.A[i, m])))
            row.append(repr(float(dataset.Y[i])))
            w.writerow(row)


def per_row_table_csv(table, path) -> None:
    """JointTable.to_csv as it was: one csv.writer row per cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(table.schema.columns() + ["prob"])
        for row, p in zip(table.cells, table.probs):
            w.writerow([repr(float(v)) for v in row] + [repr(float(p))])


def per_row_law_csv(dist, path) -> None:
    """RegimeDistribution.to_csv as it was: one csv.writer row per atom or
    sample."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if dist.kind == "exact":
            w.writerow(["y", "F"])
            for v, F in zip(dist.atoms, np.cumsum(dist.atom_probs)):
                w.writerow([repr(float(v)), repr(float(F))])
        else:
            w.writerow(["y"])
            for v in dist.samples:
                w.writerow([repr(float(v))])


def per_row_grid_csv(est, path) -> None:
    """GEstimate.to_csv as it was: one csv.writer row per grid point."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"psi{j}" for j in range(est.grid.shape[1])] + ["statistic", "p", "accept"])
        for g, s, p, a in zip(est.grid, est.grid_stats, est.grid_pvals, est.accepted):
            w.writerow([repr(float(v)) for v in g] + [repr(float(s)), repr(float(p)), int(a)])


def per_row_study_log(path, rows) -> None:
    """studies.write_study_log as it was: one csv.writer row per StudyRow."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "n", "replicate", "analysis", "statistic",
                    "p", "reject", "estimate", "ci_lo", "ci_hi"])
        for r in rows:
            w.writerow([
                r.scenario, r.n, r.replicate, r.analysis,
                repr(float(r.statistic)), repr(float(r.p)),
                "" if r.reject is None else int(r.reject),
                repr(float(r.estimate)), repr(float(r.ci_lo)), repr(float(r.ci_hi)),
            ])


def k1_schema():
    return Schema((binary(), binary()), (binary(), binary()))


class TestSchema:
    def test_k_counts_occasions(self):
        assert k1_schema().K == 1
        assert Schema((binary(),), (binary(),)).K == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            Schema((binary(),), (binary(), binary()))

    def test_columns_order(self):
        assert k1_schema().columns() == ["L0", "A0", "L1", "A1", "Y"]

    def test_dict_round_trip(self):
        s = Schema((constant(), discrete(0.0, 1.0, 2.0)), (continuous(), binary()))
        assert Schema.from_dict(s.to_dict()) == s

    def test_discrete_needs_levels(self):
        with pytest.raises(ConfigError):
            discrete()

    def test_discrete_levels_sorted_and_distinct(self):
        assert discrete(2.0, 0.0, 1.0).levels == (0.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            discrete(1.0, 1.0)


class TestHistory:
    def test_lengths_enforced(self):
        History(0, (1.0,), ())
        History(1, (1.0, 0.0), (1.0,))
        with pytest.raises(ValidationError):
            History(1, (1.0,), (1.0,))
        with pytest.raises(ValidationError):
            History(0, (1.0,), (0.0,))


class TestDatasetValidation:
    def test_well_formed_row_passes(self):
        ds = Dataset(k1_schema(), [[0.0, 1.0]], [[1.0, 0.0]], [2.5])
        validate(ds)

    def test_level_violation_names_row_and_column(self):
        ds = Dataset(k1_schema(), [[0.0, 2.0]], [[1.0, 0.0]], [2.5])
        with pytest.raises(ValidationError, match=r"row 0, column L1: level violation"):
            validate(ds)

    def test_nan_outcome_rejected(self):
        ds = Dataset(k1_schema(), [[0.0, 1.0]], [[1.0, 0.0]], [float("nan")])
        with pytest.raises(ValidationError, match="non-finite outcome"):
            validate(ds)

    def test_columns_are_read_only(self):
        ds = Dataset(k1_schema(), [[0.0, 1.0]], [[1.0, 0.0]], [2.5])
        with pytest.raises(ValueError):
            ds.Y[0] = 7.0


class TestRegime:
    def test_static_ignores_history(self):
        reg = Regime.static((1.0, 0.0))
        np.testing.assert_array_equal(regime_values(reg, np.array([[0.0, 1.0], [1.0, 1.0]]), 1),
                                      [0.0, 0.0])
        np.testing.assert_array_equal(regime_values(reg, np.array([[0.0]]), 0), [1.0])

    def test_zero_plan(self):
        np.testing.assert_array_equal(
            regime_values(Regime.static((0.0, 0.0)), np.array([[1.0]]), 0), [0.0])

    def test_dynamic_rule_sees_current_covariate(self):
        reg = Regime.dynamic(lambda m, l_bar: float(l_bar[-1]))
        np.testing.assert_array_equal(regime_values(reg, np.array([[0.0, 1.0], [1.0, 0.0]]), 1),
                                      [1.0, 0.0])

    def test_static_plan_too_short(self):
        with pytest.raises(ConfigError):
            regime_values(Regime.static((1.0,)), np.zeros((1, 2)), 1)

    def test_regime_values_matches_scalar_application(self):
        # The rule runs once per distinct prefix; every row gets its prefix's value.
        calls = []

        def rule(m, l_bar):
            calls.append(l_bar)
            return 1.0 if sum(l_bar) >= 1 else 0.0

        L = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        got = regime_values(Regime.dynamic(rule), L, 1)
        np.testing.assert_array_equal(got, [0.0, 1.0, 1.0, 1.0])
        assert sorted(calls) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_dynamic_regime_without_rule(self):
        with pytest.raises(ConfigError, match="no rule"):
            regime_values(Regime("dynamic"), np.zeros((3, 1)), 0)

    def test_default_names(self):
        assert Regime.static((1.0, 0.0)).name == "static(1.0, 0.0)"
        assert Regime.dynamic(lambda m, l: 0.0).name == "dynamic"


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = Dataset(
            Schema((binary(), continuous()), (continuous(), binary())),
            [[0.0, -1.25], [1.0, 3.5]],
            [[0.125, 1.0], [-2.0, 0.0]],
            [1.0 / 3.0, -7.25],
        )
        path = tmp_path / "d.csv"
        write_csv(ds, str(path))
        back = read_csv(str(path), ds.schema)
        np.testing.assert_array_equal(back.L, ds.L)
        np.testing.assert_array_equal(back.A, ds.A)
        np.testing.assert_array_equal(back.Y, ds.Y)

    def test_header_is_flat_interleaved(self, tmp_path):
        ds = Dataset(k1_schema(), [[0.0, 1.0]], [[1.0, 0.0]], [2.5])
        path = tmp_path / "d.csv"
        write_csv(ds, str(path))
        assert path.read_text().splitlines()[0] == "L0,A0,L1,A1,Y"

    def test_read_validates_levels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("L0,A0,L1,A1,Y\n0.0,1.0,5.0,0.0,1.0\n")
        with pytest.raises(ValidationError, match="level violation"):
            read_csv(str(path), k1_schema())

    @staticmethod
    def assert_same_bytes(ds, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(ds, str(got))
        per_row_write_csv(ds, str(want))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", [1, 1000])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_column_writer_equals_the_row_writer(self, name, n, tmp_path):
        self.assert_same_bytes(simulate(SCENARIOS[name](), n, 17), tmp_path)

    def test_column_writer_equals_the_row_writer_on_edge_values(self, tmp_path):
        odd = [-0.0, 1e-300, 0.1 + 0.2, 5e-324, -1e300, 1e16, 123456789.125,
               float("nan"), float("inf"), -float("inf"), 1.0 / 3.0, -2.5]
        schema = Schema((continuous(), continuous()), (continuous(), continuous()))
        L = np.reshape(odd * 2, (12, 2))
        ds = Dataset(schema, L, L[::-1], np.array(odd)[::-1])
        self.assert_same_bytes(ds, tmp_path)
        self.assert_same_bytes(Dataset(schema, L[:0], L[:0], L[:0, 0]), tmp_path)


SNDM_TERMS = ("1", "lm", "a_prev")
SNDM_ALPHA = (-0.1, 0.7, -0.3)


def same_bytes(write, reference, tmp_path) -> bool:
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(str(got))
    reference(str(want))
    return got.read_bytes() == want.read_bytes()


class TestOneFormat:
    """Each writer goes through data._write_table and writes the bytes of the
    per-row writer it replaced; both readers go through data._read_table."""

    @pytest.fixture(scope="class")
    def table(self):
        return enumerate_joint(sequential_trial_scenario(K=1), y_bins=np.linspace(-2, 6, 6))

    def test_joint_table(self, table, tmp_path):
        assert same_bytes(table.to_csv, lambda p: per_row_table_csv(table, p), tmp_path)

    @pytest.mark.parametrize("regime", [
        Regime.static((1.0, 1.0)),
        Regime.dynamic(lambda m, l_bar: float(l_bar[-1] > 0.5), "threshold"),
    ], ids=["static", "dynamic"])
    def test_exact_and_sampled_laws(self, table, regime, tmp_path):
        for dist in (g_formula_exact(table, regime),
                     g_formula_mc(table.laws, regime, draws=20_000, seed=5)):
            assert same_bytes(dist.to_csv, lambda p: per_row_law_csv(dist, p), tmp_path)

    @pytest.mark.parametrize("cofactors, box, points", [
        (("1",), ((0.0, 2.0),), 41),
        (("1", "a_prev"), ((0.0, 2.0), (-0.5, 1.5)), (7, 5)),
    ], ids=["1-D", "2-D"])
    def test_grids(self, cofactors, box, points, tmp_path):
        ds = simulate(sndm_scenario(cofactors=cofactors, psi=(1.0, 0.5)[:len(box)]), 800, 73)
        est = g_estimate(ds, additive_blip(*cofactors), treatment_terms=SNDM_TERMS,
                         alpha_known=SNDM_ALPHA, psi_box=box, grid_points=points)
        assert est.grid.shape[1] == len(box)
        assert same_bytes(est.to_csv, lambda p: per_row_grid_csv(est, p), tmp_path)

    def test_study_logs(self, tmp_path):
        config = StudyConfig(SCENARIOS["dag1b"](), 200, 2, 77,
                             (("naive", {}), ("gnull-score", {})))
        odd = [
            StudyRow('a,b "q"', 10, 0, "naive", np.float64(1.5), 0.25, np.bool_(True),
                     -0.0, float("-inf"), float("inf")),
            StudyRow("line\nbreak", 10, 1, "g-estimate", estimate=1 / 3, ci_lo=5e-324),
            StudyRow("cr\rcell", 10, 2, "de-gnull", error="EstimationError: no fit"),
            StudyRow("", 10, 3, "pooled-g", reject=False),
        ]
        for rows in (run_study(config), odd, []):
            assert same_bytes(lambda p: write_study_log(p, rows),
                              lambda p: per_row_study_log(p, rows), tmp_path)

    READERS = {
        "read_csv": (lambda path: read_csv(path, k1_schema()), "L0,A0,L1,A1,Y"),
        "JointTable.from_csv": (lambda path: JointTable.from_csv(path, k1_schema()),
                                "L0,A0,L1,A1,Y,prob"),
    }
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("body, match", [
        (lambda good: [], "no data rows"),
        (lambda good: ["", ""], "no data rows"),
        (lambda good: [good, good + ",0.0", good], "row 1 of .* cells, not"),
        (lambda good: [good, good.rpartition(",")[0]], "row 1 of .* cells, not"),
        (lambda good: [good, good, "x" + good], "row 2 of .*could not convert"),
        (lambda good: [good, good.rpartition(",")[0] + ","], "row 1 of .*could not convert"),
    ], ids=["header-only", "blank-lines", "long-row", "short-row", "non-numeric", "empty-cell"])
    def test_malformed_files_are_validation_errors(self, reader, body, match, tmp_path):
        read, header = self.READERS[reader]
        good = ",".join(["0.0", "1.0", "0.0", "1.0", "0.5", "1.0"][:header.count(",") + 1])
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, *body(good), ""]))
        with pytest.raises(ValidationError, match=match):
            read(str(path))
