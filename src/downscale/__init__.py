"""Downscaling toolkit: individual-level records from aggregated tables."""

__version__ = "0.5.0"

from .errors import DataError, DownscaleError, EstimationError, SchemaError
from .schema import Coordinate, FeatureSchema, coordinates, load_schema, parse_schema
from .tables import (
    AggregationUnit,
    CoarseTable,
    IndividualTable,
    UnitBlock,
    aggregate,
    load_coarse_csv,
    load_individual_csv,
    write_coarse_csv,
    write_individual_csv,
)
from .outliers import OutlierReport, flag_outliers, score_units
from .copula import (
    CopulaModel,
    CorrelationMatrix,
    estimate_correlation,
    fit_copula,
    fit_unit_marginals,
    nearest_pd_repair,
    sample_unit_coordinates,
    solve_beta,
    solve_lognormal,
)
from .batching import Predictor, extend_with_batch, fit_predictor, partition_batches, sample_joint_batch
from .scaling import assign_categories, integerize_budget, shift_continuous
from .pipeline import GenerationResult, generate
from .evaluation import (
    AccuracyReport,
    align_rows,
    cell_accuracy,
    default_study_config,
    generate_truth,
    run_simulation_study,
)
from .matching import MatchQuery, MatchResult, probabilistic_match
from .rng import RngFactory, stream
