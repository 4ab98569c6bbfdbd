"""Containers, validation, regimes, and CSV round trips."""

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
from gmethods.scenarios import SCENARIOS, simulate


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
