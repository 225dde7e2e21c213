"""Integer coefficient search for compute-and-forward relaying.

Exact minimization of the compute-and-forward quadratic cost over Gaussian
and Eisenstein integer vectors by enumerating quantizer discontinuities,
with exhaustive, lattice-reduction, and quantized-grid baselines and a
reproducible SNR-sweep benchmark harness.  This namespace holds the public
API listed in README.md; everything else lives in the submodules.
"""

from .baselines import CLLLParams, QesParams, clll_search, exhaustive_search, qes_search
from .bench import BenchConfig, gen_channel, load_config, run_sweep
from .errors import CFSearchError, InvalidInputError, NumericError
from .mimo import search_optimal_mimo
from .model import ChannelMatrix, ChannelVector, SearchResult
from .optimal import search_optimal
from .rings import EisensteinInt, GaussianInt, Ring, canonical

__version__ = "1.0.0"

__all__ = [
    "BenchConfig",
    "CFSearchError",
    "ChannelMatrix",
    "ChannelVector",
    "CLLLParams",
    "EisensteinInt",
    "GaussianInt",
    "InvalidInputError",
    "NumericError",
    "QesParams",
    "Ring",
    "SearchResult",
    "canonical",
    "clll_search",
    "exhaustive_search",
    "gen_channel",
    "load_config",
    "qes_search",
    "run_sweep",
    "search_optimal",
    "search_optimal_mimo",
    "__version__",
]
