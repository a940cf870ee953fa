"""breaklens: vintage-aware trade-series reconstruction and trend-break auditing."""

from .errors import BreaklensError, ConfigError, DataError, EstimationError, RecordParseError
from .rdd_local_poly import RddFit, RddSpec, rd_estimate
from .replication_audit import (
    CoefficientAudit,
    SeriesComparison,
    VintageSearchResult,
    compare_series,
    coefficient_audit,
    search_vintage_date,
)
from .series import MonthlySeries, SeriesMeta, read_series_csv, write_series_csv
from .trade_ingest import (
    ANOVA_FOOD,
    BUILTIN_CATEGORY_SETS,
    FULL_FOOD,
    MEDICINES,
    CategorySet,
    VintagePolicy,
    aggregate_series,
    apply_vintage,
    category_share,
    parse_records,
    record_array,
)
from .trend_break import (
    CounterfactualPath,
    TrendBreakFit,
    TrendBreakSpec,
    annualize_log_slope,
    counterfactual_projection,
    feasibility_check,
    fit_trend_break,
    log_transform,
    segment_trend,
)
from .pipeline import RunConfig, export_figure_data, load_config, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ANOVA_FOOD",
    "BUILTIN_CATEGORY_SETS",
    "BreaklensError",
    "CategorySet",
    "CoefficientAudit",
    "ConfigError",
    "CounterfactualPath",
    "DataError",
    "EstimationError",
    "FULL_FOOD",
    "MEDICINES",
    "MonthlySeries",
    "RddFit",
    "RddSpec",
    "RecordParseError",
    "RunConfig",
    "SeriesComparison",
    "SeriesMeta",
    "TrendBreakFit",
    "TrendBreakSpec",
    "VintagePolicy",
    "VintageSearchResult",
    "aggregate_series",
    "annualize_log_slope",
    "apply_vintage",
    "category_share",
    "coefficient_audit",
    "compare_series",
    "counterfactual_projection",
    "export_figure_data",
    "feasibility_check",
    "fit_trend_break",
    "load_config",
    "log_transform",
    "parse_records",
    "rd_estimate",
    "read_series_csv",
    "record_array",
    "run_pipeline",
    "search_vintage_date",
    "segment_trend",
    "write_series_csv",
]
