"""confplan: conformal prediction sets for multi-robot task planning.

Library layout mirrors the pipeline: `world` (executable semantics),
`scenario` (distribution, canonical plans, feasibility), `context` (structured
prompts and robot orders), `scoring` (decision scorers), `conformal`
(calibration and prediction sets), `planner` (planning loops with
help-seeking), `harness` (experiments), `cli` (command line).
"""

__version__ = "0.1.0"

from .conformal import (
    CalibrationRecord,
    PredictionSet,
    ProductSet,
    Quantile,
    calibrate,
    conformal_quantile,
    dataset_conditional_alpha,
    global_prediction_set,
    local_prediction_set,
    product_set,
    sequence_ncs,
)
from .planner import PlannerConfig, PlanTrace, plan_argmax, plan_centralized, plan_distributed
from .scenario import (
    DistributionParams,
    Scenario,
    decision_space,
    label_sequence,
    oracle_plan,
    sample_scenario,
)
from .scoring import ScorerSpec, build_scorer
from .world import (
    Container,
    Decision,
    Environment,
    Location,
    Mission,
    SafetyConstraint,
    SemanticObject,
    SubTask,
    validate_plan,
)
