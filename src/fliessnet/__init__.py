"""Exact algebra and analysis for additively interconnected series networks.

The package builds noncommutative generating series over the alphabet
{x0, ..., xm} with exact rational coefficients, composes them along network
interconnections, measures and predicts relative degrees, bounds coefficient
growth and finite escape times, and cross-checks everything numerically.

The exact algebra runs on the standard library. numpy, the one run-time
dependency, loads on first use of the dense shuffle kernel, the Monte Carlo
weight draw or a simulation: the sim names below are resolved on first
access, so importing the package or running a CLI command that builds no
array does not load it.

Every name imported below is public, since `__all__` is read off the names
bound here: a helper is imported as a module or under a leading underscore.
"""

__version__ = "0.1.0"

import importlib
import types

from .errors import (
    AlphabetError,
    ConditionError,
    DomainError,
    FliessnetError,
    ModelError,
    NoConvergence,
    NodeIndexError,
    ParseError,
    SubgraphBudgetError,
)
from .series import (
    Coeff,
    GrowthCheck,
    MaximalSeriesSpec,
    Series,
    as_coeff,
    check_growth,
    coeff_str,
    concat_product,
    linear_combine,
    series_from_json,
    series_to_json,
    shuffle_product,
)
from .words import (
    Word,
    format_word,
    leading_zeros,
    parse_word,
    shuffle_words,
    words_of_length,
)
from .compose import compose_at, compose_maximal, mixed_compose
from .network import (
    NetworkSpec,
    Subgraph,
    closed_loop_series,
    io_map,
    natural_response,
    network_from_json,
    network_to_json,
    subgraph_extract,
)
from .reldeg import (
    AccumulatedDegrees,
    GenericityStats,
    PairReport,
    PredictionReport,
    RelDegReport,
    accumulated_degrees,
    complete_reldeg,
    genericity_sample,
    node_degree_report,
    pair_report,
    predict_io_reldeg,
    relative_degree,
    sample_network,
    sum_reldeg_predict,
)
from .growth import (
    AbelSequence,
    GrowthBound,
    abel_taylor,
    closed_form_natural_response,
    lambert_w_lower,
    m_inf_bound,
)

# The simulation names load sim, and with it numpy, on first access (PEP 562).
_SIM_NAMES = frozenset({"Grid", "Trajectory", "ValidationReport", "eval_fliess",
                        "simulate_maximal_ode", "simulate_picard", "validate_io_map"})


def __getattr__(name: str):
    if name != "sim" and name not in _SIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sim = importlib.import_module(".sim", __name__)
    return sim if name == "sim" else getattr(sim, name)


__all__ = ["__version__", *sorted(
    {name for name, value in list(globals().items())
     if not name.startswith("_") and not isinstance(value, types.ModuleType)} | _SIM_NAMES)]
