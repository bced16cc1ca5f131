"""homoglab: exact tools for homomorphism-homogeneity of graphs.

Finite graphs get exact independence and star numbers, directories,
addresses, exact neighbourhoods, domination numbers, and two independent
deciders of XY-homogeneity.  Countable graphs enter as finitely presented
adjacency oracles with truncation, bounded cone/co-cone witness search, a
greedy spanning construction driven by extension requirements, and an
evidence-graded bimorphism-class probe.
"""

__version__ = "0.1.0"

from .errors import (
    BadParams,
    BudgetExhausted,
    FormatError,
    HomoglabError,
    InternalInvariant,
    NotADirectoryBase,
    OrderTooLarge,
    SeedNotLocalMorphism,
    StarNumberZero,
    Undominated,
)
from .formats import (
    graph_from_edgelist,
    graph_from_graph6,
    graph_to_edgelist,
    graph_to_graph6,
    read_graph,
    write_graph,
)
from .graphs import (
    AnalysisReport,
    Graph,
    address,
    address_union,
    analyze,
    common_neighborhood,
    complement,
    complete_graph,
    cone_set,
    cycle_graph,
    directories,
    disjoint_union,
    domination_number,
    empty_graph,
    exact_neighborhood,
    independence_number,
    induced_subgraph,
    is_connected,
    is_directory,
    is_independent,
    is_independent_dominating,
    lex_product,
    path_graph,
    star_number,
)
from .homogeneity import (
    AgeClass,
    AgePartition,
    Conflict,
    HomogReport,
    age,
    decide_hh_conditions,
    decide_xy,
    kk_okk,
    preceq,
)
from .morphisms import (
    MorphismConstraints,
    PartialMap,
    canonical_code,
    enumerate_graphs,
    extends_in,
    search_morphism,
    validate_total_map,
)
from .presentations import (
    ClassificationReport,
    Presentation,
    PropertyReport,
    RadoConstruction,
    Requirement,
    WitnessResult,
    check_property_bounded,
    classify_mb,
    extension_witness,
    make_presentation,
    parse_spec,
    spanning_rado,
    truncate,
)
from .verify import (
    SuiteReport,
    cross_validate_hh,
    find_triangle_dom2,
    rs_truncation,
    verify_alpha_bound_family,
    verify_directory_lemmas,
    verify_directory_lemmas_random,
    verify_neighbor_richness,
)
