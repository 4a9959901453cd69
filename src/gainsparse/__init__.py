"""Group-colored sparse graphs: recognition, lifts, and constructions.

The package decides membership in the Ross, cone-Laman, cylinder-Laman
and colored-Laman families of group-colored graphs, builds symmetric
covers (lifts) over finite cyclic groups, and constructs or deconstructs
members of the first three families through local moves with replayable
certificates.  See the README for the file formats and the CLI.
"""

from .errors import (GainsparseError, UsageError, UnsupportedGroupError,
                     PreconditionError, ParseError, NoCircuitError,
                     NoCandidatesError, InvalidMoveError, CertificateError,
                     BudgetExceededError, GenerationError,
                     InternalInvariantError)
from .groups import (FREE1, CYCLIC, FREE2, CYCLIC_PQ, GroupSpec, GroupElem,
                     parse_elem, rank_of_span)
from .graphs import (Edge, SubgraphCounts, ColoredGraph, Subgraph, components,
                     spanning_forest, rho_image_basis, rho_rank,
                     subgraph_counts, graph_counts, gauge_normalize,
                     normalized_triple, same_up_to_flip, parse_colored_graph,
                     serialize_colored_graph)
from .sparsity import (ROSS, CONE, CYLINDER, COLORED, FAMILIES, DEFAULT_BUDGET,
                       SparsityParams, UncoloredMultigraph, underlying,
                       kl_basis, is_kl_sparse, is_kl_spanning,
                       fundamental_circuit, Verdict, verdict_line,
                       family_bound, check_colored_sparsity)
from .lifts import (SymmetricGraph, build_lift, lift_component_count,
                    path_color_sum, cone_laman_via_lift, reduce_colors,
                    eliminate_orbit_circuit, colored_graph_to_dot,
                    lift_to_dot, lift_to_text)
from .henneberg import (H1c, H1cPrime, H2c, Family, CONSTRUCTIBLE, family_def,
                        Certificate, apply_move, check, tight_in_family,
                        is_base, reverse_candidates, deconstruct,
                        verify_certificate, random_construct,
                        parse_certificate, serialize_certificate)

__version__ = "0.1.0"
