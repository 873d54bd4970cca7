"""Extended persistent homology for filtrations of graded subgroups.

The pipeline: a front end (weighted digraphs via path homology, or valued
hypergraphs via embedded homology) produces an :class:`ExtendedInput`:
an ascending and a descending filtration of graded subgroups over one
generator universe.  :func:`extended_barcode` cones the descending side,
runs the boundary-matrix pairing algorithm on the combined filtration and
returns ordinary/relative/extended intervals; :func:`diagrams` maps them
to critical-value coordinates, and :func:`bottleneck` compares diagrams
with a perfect matching required on the extended part.  Every step has a
rank-arithmetic oracle next to it (``persistent_betti_oracle``,
``extended_module_oracle``, and the homology of ``path_homology`` and
``embedded_homology``), all read from one window-rank table and computed
without any pivot reduction.
"""

from .diagrams import (
    EXT,
    ORD,
    REL,
    DiagramPoint,
    ExtendedDiagram,
    MatchingCertificate,
    bottleneck,
    bottleneck_certificate,
    diagrams,
    format_diagram,
    read_diagram,
    stability_trial,
)
from .digraph import (
    WeightedDigraph,
    allowed_paths,
    build_pph_input,
    parse_digraph,
    path_homology,
    pph_input,
    pph_store,
)
from .errors import ConsistencyError, GradedValidationError, InputFormatError
from .extended import (
    BASE,
    CONE,
    EXTENDED,
    ORDINARY,
    RELATIVE,
    ConeGenerator,
    ExtendedBarcode,
    ExtendedInput,
    ExtendedInterval,
    build_extended_filtration,
    cone_graded,
    extended_barcode,
    extended_module_oracle,
    interval_rank_table,
)
from .field import SparseMatrix, modulus, reduce
from .graded import (
    BASIS,
    EXTENSION,
    FilteredGradedSubgroup,
    GeneratorId,
    GradedSubgroup,
    stage_heights,
)
from .hypergraph import (
    FilteredHypergraph,
    build_hyper_input,
    embedded_homology,
    hyper_input,
    hyper_store,
    parse_hypergraph,
    simplicial_closure,
)
from .persistence import (
    Barcode,
    BoundaryMatrices,
    Pairing,
    barcode,
    betti_table_from_barcode,
    build_matrices,
    compute_pairings,
    persistent_betti_oracle,
)

__version__ = "0.1.0"
