"""Temporal link prediction by popularity-boosted structural perturbation.

Workflow: parse a timestamped edge list, reduce it to a simple graph, split
it in time into training and probe sets, score the unobserved training pairs
(spectral perturbation with optional popularity boosting and truncation, or
one of five classical indices), and evaluate precision on the probe set.
"""

from .baselines import aa_scores, cn_scores, katz_scores, ra_scores, srw_scores
from .errors import (
    DataError,
    DegeneratePerturbationError,
    DegenerateSplitError,
    EmptyGraphError,
    EmptyInputError,
    NumericalError,
    ParseError,
    UndefinedMetricError,
    ZeroVarianceError,
)
from .evaluation import (
    METHODS,
    ExperimentConfig,
    PrecisionReport,
    RankedCandidates,
    delta_cc,
    pearson_cc,
    precision_at,
    rank_candidates,
    run_experiment,
    sweep,
    sweep_m,
)
from .graph import (
    TemporalEventStream,
    TemporalGraph,
    adjacency,
    degrees,
    parse_edge_stream,
    simplify,
)
from .spectral import (
    PerturbationSample,
    SpectralModel,
    eigendecompose,
    eigenvalue_correction,
    pbspm_scores,
    sample_perturbation,
    select_m,
    spm_scores,
    truncated_scores,
)
from .split import TrainProbeSplit, popularity, split_train_probe

__version__ = "0.1.0"
