"""Evolution algebras of finite connected graphs.

Builds the adjacency and random-walk evolution algebras of a graph,
derives the quadratic constraint system any algebra homomorphism between
them must satisfy, certifies "only the null homomorphism exists" by
sound symbolic deduction with replayable proof logs, and corroborates
numerically by damped least-squares search.

Importing the package does not load numpy.  The numeric search names
(``SearchConfig``, ``SearchOutcome``, ``closed_form_iso``,
``find_homomorphism``, ``gradient``) resolve on first access, which imports
``evograph.search`` and numpy with it; the certificate path (derive, prove,
dump, load, replay) is exact rational arithmetic and never needs them.
"""

from .algebra import (
    EvolutionAlgebra,
    Element,
    build_adjacency_algebra,
    build_rw_algebra,
    is_markov,
    multiply,
)
from .deduce import (
    Budget,
    Verdict,
    apply_leaf_rules,
    prove_null_only,
    saturate,
)
from .graphs import (
    Graph,
    RegularityClass,
    TwinPartition,
    adjacency_matrix,
    build_graph,
    classify_regularity,
    generate_family,
    is_singular,
    parse_edge_list,
    twin_partition,
)
from .homsystem import (
    HomCandidate,
    HomSystem,
    derive_constraints,
    is_homomorphism_direct,
    is_isomorphism,
    residual,
)
from .prooflog import ProofLog, replay_proof
from .radicals import Radical, RadicalSum

__version__ = "0.1.0"

_SEARCH_NAMES = ("SearchConfig", "SearchOutcome", "closed_form_iso", "find_homomorphism", "gradient")


def __getattr__(name: str):
    if name in _SEARCH_NAMES:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_SEARCH_NAMES])
