"""Probabilistic acceptance queries over abstract argumentation frameworks.

The pipeline: encode a semantics as a clause set, compile it once
into a smooth deterministic decomposable circuit, then answer many queries
by evaluating that circuit under a commutative semiring. Point labels give
exact probabilities; beta labels additionally carry variance through a
first-order propagation and render as fuzzy likelihood/confidence words.
"""

from .af import ArgumentationFramework, Semantics, attackers, extensions, subgraph
from .beta import (
    ALEATORY_LABELS,
    DEFAULT_LABEL_CONFIG,
    EPISTEMIC_LABELS,
    BetaLabel,
    FuzzyLabel,
    LabelConfig,
    MomentPair,
    from_fuzzy,
    moment_match,
    moments,
    to_fuzzy,
)
from .circuit import (
    Circuit,
    ClauseSet,
    Node,
    ValidationReport,
    compile_formula,
    condition,
    encode_enumerative,
    format_nnf,
    model_count,
    validate,
    write_nnf,
)
from .encode import encode, encode_constellation
from .engine import (
    ProbabilisticGraph,
    brute_force_prob,
    brute_force_prob_c,
    mc_oracle,
    prob,
    prob_c,
)
from .errors import CapacityError, InputError, ParseError, PargueError
from .propagate import CovarianceSpec, load_covariance_csv, propagate
from .results import QueryResult
from .semiring import COUNTING, PROBABILITY, Labelling, Semiring, evaluate

__version__ = "0.1.0"

__all__ = [
    "ALEATORY_LABELS",
    "ArgumentationFramework",
    "BetaLabel",
    "COUNTING",
    "CapacityError",
    "Circuit",
    "ClauseSet",
    "CovarianceSpec",
    "DEFAULT_LABEL_CONFIG",
    "EPISTEMIC_LABELS",
    "FuzzyLabel",
    "InputError",
    "LabelConfig",
    "Labelling",
    "MomentPair",
    "Node",
    "PROBABILITY",
    "PargueError",
    "ParseError",
    "ProbabilisticGraph",
    "QueryResult",
    "Semantics",
    "Semiring",
    "ValidationReport",
    "attackers",
    "brute_force_prob",
    "brute_force_prob_c",
    "compile_formula",
    "condition",
    "encode",
    "encode_constellation",
    "encode_enumerative",
    "evaluate",
    "extensions",
    "format_nnf",
    "from_fuzzy",
    "load_covariance_csv",
    "mc_oracle",
    "model_count",
    "moment_match",
    "moments",
    "prob",
    "prob_c",
    "propagate",
    "subgraph",
    "to_fuzzy",
    "validate",
    "write_nnf",
]
