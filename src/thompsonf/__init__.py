"""Exact-arithmetic toolkit for auditing Folner candidates for Thompson's group F.

Marked subsets of [0,1], standard dyadic partitions and the maximal-standard-
partition operator; group elements as exact piecewise-linear homeomorphisms;
symmetric-difference defect audits with a mesh-bounded reduction pipeline;
and desk-scale diagnostics (tower bounds, measure monotonicity, balls).
Everything is exact rational arithmetic; nothing here ever rounds.
"""

from .diagnostics import (
    FiniteMeasure,
    IntervalChain,
    TowerVerdict,
    ball,
    ball_with_witnesses,
    invariance_defect,
    monotonicity_mass,
    tower,
    tower_check,
)
from .errors import ToolkitError
from .exactnum import (
    ExactNumber,
    format_number,
    parse_coordinate,
    parse_number,
)
from .felement import (
    GENERATOR_NAMES,
    FElement,
    PartitionPair,
    act_marked,
    act_partition,
    compose,
    evaluate_word,
    f_of_partition,
    from_pair,
    generator_table,
    generators,
    identity,
    invert,
    to_minimal_pair,
)
from .folner import (
    CertificateVerdict,
    FolnerReport,
    GeneratorDefect,
    ReductionReport,
    defect_elements,
    defect_marked,
    folner_certificate,
    mesh_max,
    reduce_to_f,
    z_family,
)
from .partition import (
    DyadicPartition,
    MarkedSet,
    common_refinement,
    i_n,
    is_standard,
    mesh,
    t_of,
)

__version__ = "0.1.0"

__all__ = [
    "ExactNumber",
    "parse_number",
    "parse_coordinate",
    "format_number",
    "MarkedSet",
    "DyadicPartition",
    "mesh",
    "is_standard",
    "i_n",
    "t_of",
    "common_refinement",
    "FElement",
    "PartitionPair",
    "GENERATOR_NAMES",
    "generators",
    "generator_table",
    "identity",
    "from_pair",
    "to_minimal_pair",
    "compose",
    "invert",
    "act_marked",
    "act_partition",
    "f_of_partition",
    "evaluate_word",
    "FolnerReport",
    "GeneratorDefect",
    "CertificateVerdict",
    "ReductionReport",
    "defect_elements",
    "defect_marked",
    "z_family",
    "mesh_max",
    "reduce_to_f",
    "folner_certificate",
    "FiniteMeasure",
    "IntervalChain",
    "TowerVerdict",
    "tower",
    "tower_check",
    "monotonicity_mass",
    "invariance_defect",
    "ball",
    "ball_with_witnesses",
    "ToolkitError",
    "__version__",
]
