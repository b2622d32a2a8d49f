"""Exact framed link polynomial evaluation and satellite invariant checking.

Subpackages are organized bottom-up:

- ring: exact Laurent arithmetic over Z and GF(2), fractions, mod-2 reduction
- partition: integer partitions, content polynomials, hook corner data
- eigen: closed-form eigenvalues of the meridian maps on annulus skeins
- diagram: planar link diagrams and the satellite surgery toolbox
- skein_eval: framed polynomial evaluators with budgets and memo
- annulus: decorated-unknot expansion plans and branching rules
- verify: end-to-end checks tying the evaluators to the eigenvalue tables
- cli: command line front end
"""

__version__ = "0.1.0"

from .annulus import (
    AnnulusVecK,
    build_satellite_row,
    expand_ylambda,
    hsr_structure_check,
    realize_symbolic,
)
from .corpus import braid_closure, corpus_names, load_corpus
from .diagram import AmbiguousOrientationError, DiagramError, LinkDiagram
from .eigen import (
    adjoint_meridian_eigenvalue,
    check_eigenvalue_distinctness,
    delta_homfly,
    delta_kauffman,
    eigenvalue_table,
    homfly_meridian_eigenvalue,
    isolating_polynomial,
    kauffman_meridian_eigenvalue,
)
from .partition import Partition, partitions_of, partitions_up_to
from .ring import LaurentPoly, RingElem, spow, vpow, z_poly
from .skein_eval import (
    MAX_CROSSINGS,
    SkeinBudgetError,
    adjoint_homfly,
    homfly,
    kauffman,
    skein_relation_probe,
)
from .verify import (
    VerificationReport,
    eigen_consistency,
    verify_main,
    verify_rudolph,
)

__all__ = [
    "AmbiguousOrientationError",
    "AnnulusVecK",
    "DiagramError",
    "LaurentPoly",
    "LinkDiagram",
    "MAX_CROSSINGS",
    "Partition",
    "RingElem",
    "SkeinBudgetError",
    "VerificationReport",
    "__version__",
    "adjoint_homfly",
    "adjoint_meridian_eigenvalue",
    "braid_closure",
    "build_satellite_row",
    "check_eigenvalue_distinctness",
    "corpus_names",
    "delta_homfly",
    "delta_kauffman",
    "eigen_consistency",
    "eigenvalue_table",
    "expand_ylambda",
    "homfly",
    "homfly_meridian_eigenvalue",
    "hsr_structure_check",
    "isolating_polynomial",
    "kauffman",
    "kauffman_meridian_eigenvalue",
    "load_corpus",
    "partitions_of",
    "partitions_up_to",
    "realize_symbolic",
    "skein_relation_probe",
    "spow",
    "verify_main",
    "verify_rudolph",
    "vpow",
    "z_poly",
]
