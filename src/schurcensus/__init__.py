"""Schur rings over rank-2 elementary abelian groups, built from
partitions of the line set of F_q x F_q, plus a census machinery that
cross-validates a non-schurianness criterion against an exact
automorphism-group oracle.  Importing it first caps BLAS at one thread,
unless the environment already sets OPENBLAS_NUM_THREADS or
MKL_NUM_THREADS."""

import os
import sys

# Every matrix product here is on integer arrays, which numpy multiplies
# with its own loops, never BLAS, and the parallel runs come from the
# process pool of cross_validate: a BLAS thread pool would only spin.  The
# variables are read once, when numpy loads, so a process that imported it
# first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")

from .errors import InconsistencyError, PartitionFormatError, SizingError
from .gf import Field, field_from_literal, make_field, parse_field_literal
from .lines import (
    LinePartition,
    condition_holds,
    enumerate_partitions,
    load_partition,
    mobius_normalize,
    one_class_partition,
    singleton_partition,
    singleton_slopes,
    wielandt_partition,
)
from .schur import SchurBasis, structure_constants, verify_line_sum_identities, \
    verify_schur_axioms
from .analysis import (
    SchurianReport,
    analyze_partition,
    census,
    cross_validate,
    invariant_slopes,
    nonschurian_criterion,
    schurian_test,
    verify_slope_closure,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "InconsistencyError",
    "LinePartition",
    "PartitionFormatError",
    "SchurBasis",
    "SchurianReport",
    "SizingError",
    "analyze_partition",
    "census",
    "condition_holds",
    "cross_validate",
    "enumerate_partitions",
    "field_from_literal",
    "invariant_slopes",
    "load_partition",
    "make_field",
    "mobius_normalize",
    "nonschurian_criterion",
    "one_class_partition",
    "parse_field_literal",
    "schurian_test",
    "singleton_partition",
    "singleton_slopes",
    "structure_constants",
    "verify_line_sum_identities",
    "verify_schur_axioms",
    "verify_slope_closure",
    "wielandt_partition",
    "__version__",
]
