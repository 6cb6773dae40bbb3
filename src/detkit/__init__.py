"""detkit: exact Groebner-basis toolkit for ideals of block-constrained
minors and Pfaffians, with a verification harness and CLI.

The layers, bottom up:

- :mod:`detkit.poly`: exact fields, monomial orders, sparse polynomials.
- :mod:`detkit.groebner`: Buchberger engine, normal forms, intersections,
  Hilbert numerators, dimension, and :func:`deadline_scope`, which bounds
  all of them.
- :mod:`detkit.linalg`: exact row reduction of sparse rows.
- :mod:`detkit.combinat`: minor / Pfaffian index posets, order ideals, and
  the closed-form Hilbert series of determinantal and Pfaffian ideals.
- :mod:`detkit.detideals`: matrix shapes, minors, Pfaffians, constrained
  ideals, gradings, truncations.
- :mod:`detkit.harness`: named verification cases and JSON reports.
- :mod:`detkit.cli`: the ``detkit`` command.
"""

from .combinat import (
    MinorIndex,
    PfaffianIndex,
    doset_leq,
    in_doset,
    minor_leq,
    order_ideal_cogenerated,
    order_ideal_generated,
)
from .detideals import (
    components,
    constrained_ideal,
    constrained_minor_ideal,
    constrained_pfaffian_ideal,
    constrained_symmetric_ideal,
    generic_matrix,
    ideal_of_minors,
    ideal_of_pfaffians,
    matrix_ring,
    minor_poly,
    pfaffian_poly,
    skew_matrix,
    symmetric_matrix,
    truncated_ideal,
    truncation_rank,
)
from .groebner import (
    BudgetExceeded,
    IdealHandle,
    UnitIdealError,
    buchberger,
    deadline_scope,
    ideal_equal,
    ideal_height,
    ideal_intersect,
    ideal_member,
    krull_dimension,
    normal_form,
)
from .harness import CaseSpec, Report, run_case, run_suite
from .poly import QQ, PolyRing, PrimeField, VariableTable, field_from_name

__version__ = "0.1.0"
