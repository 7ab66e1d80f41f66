"""Most-preferred feasible compositions under qualitative multi-attribute preferences.

Attributes carry strict partial orders over their value domains and a strict
importance order relates the attributes; component values aggregate per
attribute (worst/best frontier, sum, min/max) and compositions compare through
a witness-based dominance relation.  Four algorithms search a feasibility
provider for the non-dominated feasible compositions, and a simulation /
verification harness checks their soundness and completeness guarantees
against brute force.
"""

from .aggregation import (
    AggValue,
    DomainError,
    KindMismatch,
    Valuation,
    aggregate,
    at_least_as_preferred,
    merge,
    strictly_preferred,
)
from .algorithms import (
    RunResult,
    att_weakly_complete_compose,
    compose_and_filter,
    interleave_compose,
    weakly_complete_compose,
)
from .composition import (
    BudgetExceeded,
    Component,
    Composition,
    ExplicitProvider,
    FeasibilityProvider,
    empty_composition,
    enumerate_feasible,
)
from .dominance import (
    ShapeError,
    dominates,
    nondominated,
    witnesses,
)
from .order import (
    CycleError,
    OrderClass,
    StrictOrder,
    build_order,
    classify,
)
from .preference import (
    AggKind,
    AttributeSchema,
    PreferenceSpec,
    SumPolarity,
    most_important_set,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AggKind",
    "AggValue",
    "AttributeSchema",
    "BudgetExceeded",
    "Component",
    "Composition",
    "CycleError",
    "DomainError",
    "ExplicitProvider",
    "FeasibilityProvider",
    "KindMismatch",
    "OrderClass",
    "PreferenceSpec",
    "RunResult",
    "ShapeError",
    "StrictOrder",
    "SumPolarity",
    "Valuation",
    "aggregate",
    "at_least_as_preferred",
    "att_weakly_complete_compose",
    "build_order",
    "classify",
    "compose_and_filter",
    "dominates",
    "empty_composition",
    "enumerate_feasible",
    "interleave_compose",
    "merge",
    "most_important_set",
    "nondominated",
    "strictly_preferred",
    "validate",
    "weakly_complete_compose",
    "witnesses",
]
