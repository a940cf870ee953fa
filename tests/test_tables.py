import pytest

from breaklens.tables import (
    format_cell,
    render_audit_table,
    render_rdd_table,
    render_trend_table,
    significance_stars,
)


def trend_record(series, transform="levels", vintage="v1", alpha1=44.86, se1=13.82, p1=0.003, alpha3=6.46, se3=1.09, p3=0.0001):
    return {
        "series": series,
        "transform": transform,
        "vintage": vintage,
        "coef": {"alpha0": 100.0, "alpha1": alpha1, "alpha2": -2.0, "alpha3": alpha3},
        "se": {"alpha0": 5.0, "alpha1": se1, "alpha2": 0.5, "alpha3": se3},
        "p": {"alpha0": 0.0, "alpha1": p1, "alpha2": 0.001, "alpha3": p3},
    }


class TestStars:
    @pytest.mark.parametrize(
        "p,stars",
        [
            (0.0005, "***"),
            (0.0099, "***"),
            (0.01, "**"),
            (0.049, "**"),
            (0.05, "*"),
            (0.094, "*"),
            (0.0999, "*"),
            (0.10, ""),
            (0.5, ""),
            (float("nan"), ""),
        ],
    )
    def test_thresholds(self, p, stars):
        assert significance_stars(p) == stars

    def test_exactly_one_star_at_0_094(self):
        cell = format_cell(0.38, 0.22, 0.094)
        assert cell == "0.38* (0.22)"


class TestTrendTable:
    def test_formats_cells(self):
        text = render_trend_table(
            [trend_record("food")], ["food"], [("levels", "v1")]
        )
        assert "44.86*** (13.82)" in text
        assert "6.46*** (1.09)" in text
        assert "Panel: levels, vintage v1" in text

    def test_zero_fit_has_no_stars(self):
        rec = trend_record("food", alpha1=0.0, se1=1.0, p1=1.0, alpha3=0.0, se3=1.0, p3=1.0)
        text = render_trend_table([rec], ["food"], [("levels", "v1")])
        assert "0.00 (1.00)" in text
        assert "0.00*" not in text


class TestRddTable:
    def test_cells_and_bandwidths(self):
        records = [
            {
                "series": "medicines",
                "transform": "log",
                "vintage": "latest",
                "estimand": "level",
                "tau": 0.68,
                "se_conventional": 0.18,
                "p_robust": 0.002,
                "h_months": 9.2,
            }
        ]
        text = render_rdd_table(records, ["medicines"])
        assert "0.68*** (0.18)" in text
        assert "9.2" in text

    def test_one_row_pair_per_estimand_level_first(self):
        def rdd_record(series, estimand, tau):
            return {
                "series": series, "transform": "log", "vintage": "latest", "estimand": estimand,
                "tau": tau, "se_conventional": 0.1, "p_robust": 0.5, "h_months": 6.0,
            }

        records = [rdd_record(s, e, tau) for e, tau in (("slope", 0.2), ("level", 0.1)) for s in ("a", "b")]
        lines = render_rdd_table(records, ["a", "b"]).splitlines()
        assert lines[0] == "Regression discontinuity estimates (log; vintage latest)"
        assert [line[:22].rstrip() for line in lines[3:]] == [
            "Change in level", "  bandwidth (months)", "Change in slope", "  bandwidth (months)",
        ]
        assert lines[3].split()[-2:] == ["0.10", "(0.10)"]
        level_only = render_rdd_table(records[2:], ["a", "b"])
        assert "Change in level" in level_only and "slope" not in level_only


class TestAuditTable:
    def test_rows(self):
        record = {
            "label": "food_extracted",
            "series": "anova_food",
            "vintage": "2020-10-01",
            "correlation": 0.9998,
            "means": {
                "extracted": {"overall": 66.29, "pre": 104.94, "post": 28.98},
                "reconstructed": {"overall": 66.37, "pre": 104.60, "post": 29.47},
            },
            "coefficients": {
                "extracted": {
                    "alpha1": 44.26, "alpha1_se": 13.68, "alpha1_p": 0.002,
                    "alpha3": 6.48, "alpha3_se": 1.09, "alpha3_p": 0.0001,
                },
                "reconstructed": {
                    "alpha1": 44.86, "alpha1_se": 13.82, "alpha1_p": 0.002,
                    "alpha3": 6.46, "alpha3_se": 1.09, "alpha3_p": 0.0001,
                },
            },
            "vintage_search": {"best": "2020-10-01T00:00:00Z", "metric": "one_minus_correlation"},
        }
        text = render_audit_table([record])
        assert "44.26*** (13.68)" in text
        assert "44.86*** (13.82)" in text
        assert "0.9998" in text
        assert "Best vintage cutoff: 2020-10-01T00:00:00Z" in text
