"""Desk-scale simulator for personalized federated learning with multi-branch layers.

Each dense layer holds B parallel branches; a client personalizes by learning
simplex-valued mixing weights over the branches while the branch parameters
themselves are trained federatedly, with each branch aggregated in proportion
to how much the participating clients attend to it.
"""

from .config import ExperimentConfig, parse_config
from .data import (
    Dirichlet,
    LabeledDataset,
    PairedClusters,
    Partition,
    PartitionSpec,
    RandomKClasses,
    SizeHeterogeneous,
    SyntheticTaskSpec,
    generate_synthetic,
    load_csv,
    partition,
)
from .errors import (
    ConfigurationError,
    NumericError,
    ParseError,
    PartitionError,
    PfedmbError,
    UsageError,
    ValidationError,
)
from .federation import (
    AggregationStrategy,
    ClientState,
    ClientUpdate,
    RoundReport,
    ServerState,
    aggregate,
    client_local_learning,
    fine_tune,
    load_checkpoint,
    run_experiment,
    run_round,
    sample_clients,
    save_checkpoint,
    setup_experiment,
)
from .metrics import (
    ExperimentResult,
    alpha_similarity,
    emit_results,
    evaluate_client,
)
from .nn import (
    AlphaParams,
    MultiBranchDense,
    Network,
    combine_branches,
    forward,
    gradient_check,
    init_network,
    loss_and_grads,
    uniform_alpha,
)

__version__ = "0.1.0"
