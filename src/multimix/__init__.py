"""Spectral diagnostics and samplers for multimodal distributions."""

from .errors import CapacityError, ParseError
from .experiments import ExperimentConfig, ResultRow
from .experiments import run as run_experiments
from .hs import (
    FieldNet,
    SandwichCertificate,
    SpectralSplit,
    build_field_net,
    certify_sandwich,
    dump_field_net,
    exact_mixture_refinement,
    load_field_net,
    mixture_density,
    split_spectrum,
)
from .ising import (
    IsingModel,
    PottsModel,
    curie_weiss,
    dump_ising_model,
    dump_samples,
    empirical_distribution,
    exact_distribution,
    glauber_ensemble_continuous,
    load_ising_model,
    load_samples,
    low_rank_ising,
    mean_field_potts,
    sample_exact,
)
from .langevin import (
    GaussianComponent,
    LmcConfig,
    LmcResult,
    MixtureModel,
    ScoreField,
    dump_mixture,
    exact_score,
    lmc_run,
    load_mixture,
    perturb_score,
    sample_mixture,
    submixture,
    submixture_score,
)
from .measures import (
    FiniteDistribution,
    SampleSet,
    chi2_divergence,
    empirical_tv_continuous,
    kl_divergence,
    tv_distance,
)
from .ple import (
    FitReport,
    LearnReport,
    PleConfig,
    conditional_kl_diagnostic,
    fit,
    learn_and_sample,
    pseudolikelihood_loss,
    row_norms,
    trajectory_kl,
)
from .rng import make_rng
from .spectral import (
    BalanceStatistic,
    ContractionReport,
    GeneratorMatrix,
    Spectrum,
    balance_statistic,
    build_glauber_generator,
    chi2_trajectory,
    eigendecompose,
    evolve_distribution,
    higher_order_gap,
    verify_balance_contraction,
)

__version__ = "0.1.0"
