"""Probabilistic acceptance queries over abstract argumentation frameworks.

The pipeline: encode a semantics as a propositional theory, compile it once
into a smooth deterministic decomposable circuit, then answer many queries
by evaluating that circuit under a commutative semiring. Point labels give
exact probabilities; beta labels additionally carry variance through a
first-order propagation and render as fuzzy likelihood/confidence words.
"""

from .af import (
    ArgumentationFramework,
    Semantics,
    attacked,
    attackers,
    characteristic,
    credulous,
    extensions,
    is_conflict_free,
    subgraph,
    subgraph_extensions,
)
from .beta import (
    ALEATORY_LABELS,
    DEFAULT_LABEL_CONFIG,
    EPISTEMIC_LABELS,
    BetaLabel,
    FuzzyLabel,
    LabelConfig,
    MomentPair,
    complement,
    from_fuzzy,
    moment_match,
    moments,
    posterior,
    to_fuzzy,
)
from .circuit import (
    Circuit,
    Node,
    ValidationReport,
    compile_formula,
    condition,
    format_nnf,
    model_count,
    validate,
    write_nnf,
)
from .encode import encode, encode_constellation, encode_enumerative
from .engine import (
    ProbabilisticGraph,
    brute_force_prob,
    brute_force_prob_c,
    mc_oracle,
    prob,
    prob_c,
)
from .errors import CapacityError, InputError, ParseError, PargueError, StructuralError
from .formula import FALSE, TRUE, Formula, and_, lit, models, not_, or_, restrict, satisfies, var
from .propagate import CovarianceSpec, eval_mean, gradients, load_covariance_csv, propagate
from .results import QueryResult
from .semiring import COUNTING, PROBABILITY, Labelling, Semiring, amc_query, evaluate

__version__ = "0.1.0"

__all__ = [
    "ALEATORY_LABELS",
    "ArgumentationFramework",
    "BetaLabel",
    "COUNTING",
    "CapacityError",
    "Circuit",
    "CovarianceSpec",
    "DEFAULT_LABEL_CONFIG",
    "EPISTEMIC_LABELS",
    "FALSE",
    "Formula",
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
    "StructuralError",
    "TRUE",
    "ValidationReport",
    "amc_query",
    "and_",
    "attacked",
    "attackers",
    "brute_force_prob",
    "brute_force_prob_c",
    "characteristic",
    "compile_formula",
    "complement",
    "condition",
    "credulous",
    "encode",
    "encode_constellation",
    "encode_enumerative",
    "eval_mean",
    "evaluate",
    "extensions",
    "format_nnf",
    "from_fuzzy",
    "gradients",
    "is_conflict_free",
    "lit",
    "load_covariance_csv",
    "mc_oracle",
    "model_count",
    "models",
    "moment_match",
    "moments",
    "not_",
    "or_",
    "posterior",
    "prob",
    "prob_c",
    "propagate",
    "restrict",
    "satisfies",
    "subgraph",
    "subgraph_extensions",
    "to_fuzzy",
    "validate",
    "var",
    "write_nnf",
]
