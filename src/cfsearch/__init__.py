"""Integer coefficient search for compute-and-forward relaying.

Exact minimization of the compute-and-forward quadratic cost over Gaussian
and Eisenstein integer vectors by enumerating quantizer discontinuities,
with exhaustive, lattice-reduction, and quantized-grid baselines and a
reproducible SNR-sweep benchmark harness.
"""

from .baselines import CLLLParams, QesParams, clll_search, exhaustive_search, qes_search
from .bench import BenchConfig, BenchRecord, gen_channel, load_config, run_sweep
from .errors import CFSearchError, InvalidInputError, NumericError
from .mimo import enumerate_subsets, search_optimal_mimo, vertex_candidates
from .model import (
    ChannelMatrix,
    ChannelVector,
    SearchResult,
    b_opt,
    cost,
    cost_matrix,
    mimo_gram,
    mimo_phi,
    mimo_rate,
    mmse_alpha,
    phi_bound,
    rate,
    rate_from_cost,
)
from .optimal import (
    AlphaSet,
    DiscontinuitySet,
    gen_alpha_set,
    gen_disc,
    gen_disc_eisenstein,
    gen_disc_gaussian,
    search_optimal,
)
from .rings import (
    EisensteinInt,
    GaussianInt,
    Ring,
    quantize,
    quantize_eisenstein,
    quantize_gaussian,
    units,
    unit_vectors,
)

__version__ = "1.0.0"

__all__ = [
    "AlphaSet",
    "BenchConfig",
    "BenchRecord",
    "CFSearchError",
    "ChannelMatrix",
    "ChannelVector",
    "CLLLParams",
    "DiscontinuitySet",
    "EisensteinInt",
    "GaussianInt",
    "InvalidInputError",
    "NumericError",
    "QesParams",
    "Ring",
    "SearchResult",
    "b_opt",
    "clll_search",
    "cost",
    "cost_matrix",
    "enumerate_subsets",
    "exhaustive_search",
    "gen_alpha_set",
    "gen_channel",
    "gen_disc",
    "gen_disc_eisenstein",
    "gen_disc_gaussian",
    "load_config",
    "mimo_gram",
    "mimo_phi",
    "mimo_rate",
    "mmse_alpha",
    "phi_bound",
    "qes_search",
    "quantize",
    "quantize_eisenstein",
    "quantize_gaussian",
    "rate",
    "rate_from_cost",
    "run_sweep",
    "search_optimal",
    "search_optimal_mimo",
    "units",
    "unit_vectors",
    "vertex_candidates",
    "__version__",
]
