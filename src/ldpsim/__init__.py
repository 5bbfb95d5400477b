"""ldpsim: LDP frequency oracles, multidimensional collection, and attack simulation."""

from .budget import (
    alpha_from_bayes_error,
    alpha_from_epsilon,
    bayes_alpha_clamped,
    beta_epsilons,
    epsilon_from_alpha,
)
from .classifier import NaiveBayes
from .datasets import (
    Dataset,
    clip_or_uniform,
    laplace_prior,
    load_dataset,
    load_fixture,
    mse_avg,
    synthesize_profiles,
    true_frequencies,
    uniform_dataset,
    zipf_dataset,
)
from .errors import (
    ConfigError,
    DomainError,
    LdpSimError,
    NonIdentifiableError,
    ParameterError,
)
from .attacks import (
    SurveysConfig,
    analytic_acc,
    build_learning_set,
    empirical_attack_acc,
    multi_collection_acc,
    predict_batch,
    run_attr_infer_experiment,
    run_reident_experiment,
    train_attacker,
)
from .multidim import (
    FAKE_DATA_VARIANTS,
    CollectionConfig,
    MultiDomain,
    amplified_epsilon,
    rs_estimate,
    rs_sanitize_batch,
    rs_variance,
    smp_sample,
    spl_sanitize_batch,
    uniform_priors,
)
from .oracles import (
    AttributeDomain,
    ProtocolParams,
    ReportBatch,
    clip_normalize,
    estimate_frequencies,
    protocol_params,
    randomize_batch,
    support_counts,
)
from .rng import splitmix64, stream

__version__ = "0.1.0"
