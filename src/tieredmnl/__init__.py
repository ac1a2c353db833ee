"""Tiered multinomial-logit recommendations.

Customers scan a prominent first tier, then (only if nothing there tempted
them) a second tier.  This package prices that funnel: an exact offline
optimizer for the two-tier selection, epoch-based purchase-count estimation
with optimistic indices, online policies that learn valuations while
honoring a minimum-learning constraint for new products, and a seeded
simulation harness that reproduces the benchmark regret experiments.
"""

from .errors import (
    ConfigError,
    InstanceTooLargeError,
    InvalidCatalogError,
    InvalidOfferError,
    NeverOfferedError,
    OutcomeMismatchError,
    TieredMnlError,
    UnknownProductError,
)
from .estimation import UCB_CONFIDENCE_SCALE, EpochLedger, min_learning_epochs
from .model import (
    NO_PURCHASE,
    Catalog,
    ChoiceOutcome,
    ChoiceSampler,
    Product,
    TieredOffer,
    expected_profit,
    expected_profit_single_tier,
    load_catalog,
    purchase_probabilities,
    save_catalog,
    sorted_ids,
)
from .optimizer import (
    brute_force_optimal,
    is_profit_ordered_by_tier,
    is_profit_ordered_set,
    predict_new_product_tier,
    solve_tier1_given_tier2,
    solve_two_tier,
    suffix_profits,
)
from .policies import (
    UcbTieredPolicy,
    epoch_regret_closed_form,
    epoch_regret_monte_carlo,
    make_policy,
)
from .simulator import (
    ExperimentConfig,
    PolicySpec,
    ProductGroup,
    config_from_dict,
    config_to_dict,
    experiment_preset,
    load_config,
    replicate,
    run,
    run_experiment,
    save_config,
    write_mean_curve_csv,
    write_trace_csv,
)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "ChoiceOutcome",
    "ChoiceSampler",
    "ConfigError",
    "EpochLedger",
    "ExperimentConfig",
    "InstanceTooLargeError",
    "InvalidCatalogError",
    "InvalidOfferError",
    "NO_PURCHASE",
    "NeverOfferedError",
    "OutcomeMismatchError",
    "PolicySpec",
    "Product",
    "ProductGroup",
    "TieredMnlError",
    "TieredOffer",
    "UCB_CONFIDENCE_SCALE",
    "UcbTieredPolicy",
    "UnknownProductError",
    "brute_force_optimal",
    "config_from_dict",
    "config_to_dict",
    "epoch_regret_closed_form",
    "epoch_regret_monte_carlo",
    "expected_profit",
    "expected_profit_single_tier",
    "experiment_preset",
    "is_profit_ordered_by_tier",
    "is_profit_ordered_set",
    "load_catalog",
    "load_config",
    "make_policy",
    "min_learning_epochs",
    "predict_new_product_tier",
    "purchase_probabilities",
    "replicate",
    "run",
    "run_checks",
    "run_experiment",
    "save_catalog",
    "save_config",
    "solve_tier1_given_tier2",
    "solve_two_tier",
    "sorted_ids",
    "suffix_profits",
    "write_mean_curve_csv",
    "write_trace_csv",
    "__version__",
]
