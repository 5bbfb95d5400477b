"""ldpsim: LDP frequency oracles, multidimensional collection, and attack simulation."""

from .budget import (
    EpsilonDecision,
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
    AttackResult,
    AttackerProfile,
    BackgroundKnowledge,
    SurveysConfig,
    analytic_acc,
    build_learning_set,
    classifier_train,
    empirical_attack_acc,
    infer_sampled_attribute,
    multi_collection_acc,
    predict_value,
    reident_match,
    run_attr_infer_experiment,
    run_reident_experiment,
)
from .multidim import (
    FAKE_DATA_VARIANTS,
    CollectionConfig,
    MultiDomain,
    SmpReport,
    SmpUserState,
    FullVector,
    amplified_epsilon,
    rs_estimate,
    rs_sanitize,
    rs_sanitize_batch,
    rs_variance,
    smp_sample,
    smp_sanitize,
    spl_sanitize,
    uniform_priors,
)
from .oracles import (
    AttributeDomain,
    BitsReport,
    HashedReport,
    ProtocolParams,
    SubsetReport,
    ValueReport,
    clip_normalize,
    estimate_frequencies,
    protocol_params,
    randomize,
    randomize_batch,
    supports,
)
from .rng import splitmix64, stream

__version__ = "0.1.0"
