"""User-facing preference model: attributes, value orders, relative importance."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .order import StrictOrder, classify


class AggKind(enum.Enum):
    WORST_FRONTIER = "worst_frontier"
    BEST_FRONTIER = "best_frontier"
    SUM = "sum"
    MIN = "min"
    MAX = "max"


class SumPolarity(enum.Enum):
    LOWER_IS_BETTER = "lower"
    HIGHER_IS_BETTER = "higher"


@dataclass(frozen=True)
class AttributeSchema:
    """One attribute: its value domain, the strict order over values, and how
    component values aggregate into a composition value."""

    attr_id: int
    name: str
    domain: tuple[str, ...]
    intra_order: StrictOrder
    agg_kind: AggKind
    numeric_values: Optional[tuple[float, ...]] = None
    sum_polarity: Optional[SumPolarity] = None


@dataclass
class PreferenceSpec:
    """A full preference problem: attributes plus strict importance among them."""

    attributes: tuple[AttributeSchema, ...]
    importance: StrictOrder
    # What dominance reads of this spec in every table and pool (the value
    # orders, the witness scopes), made on first use and never changed;
    # only dominance reads or sets it.
    packing: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    @property
    def attr_count(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(spec: PreferenceSpec, strict_interval: bool = False) -> ValidationReport:
    """Collect invariant violations; non-interval importance is a warning unless
    ``strict_interval`` upgrades it to an error (dominance transitivity is only
    guaranteed for interval importance)."""
    errors: list[str] = []
    warnings: list[str] = []
    for attr in spec.attributes:
        label = f"attribute {attr.attr_id} ({attr.name})"
        if attr.intra_order.universe_size != len(attr.domain):
            errors.append(
                f"{label}: value order covers {attr.intra_order.universe_size} "
                f"elements but the domain has {len(attr.domain)}"
            )
        if attr.agg_kind in (AggKind.MIN, AggKind.MAX):
            if not classify(attr.intra_order).is_total:
                errors.append(
                    f"{label}: {attr.agg_kind.value} aggregation requires a total "
                    "value order (a unique best/worst value must exist)"
                )
        if attr.agg_kind is AggKind.SUM:
            if attr.numeric_values is None:
                errors.append(f"{label}: sum aggregation requires numeric_values")
            elif len(attr.numeric_values) != len(attr.domain):
                errors.append(f"{label}: numeric_values not aligned with the domain")
            if attr.sum_polarity is None:
                errors.append(f"{label}: sum aggregation requires sum_polarity")
    if spec.importance.universe_size != len(spec.attributes):
        errors.append(
            f"importance order covers {spec.importance.universe_size} attributes "
            f"but the spec has {len(spec.attributes)}"
        )
    if not classify(spec.importance).is_interval:
        message = (
            "importance is not an interval order: dominance may be intransitive"
        )
        if strict_interval:
            errors.append(message)
        else:
            warnings.append(message)
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def most_important_set(spec: PreferenceSpec) -> set[int]:
    """Attribute ids nothing is strictly more important than; nonempty.

    The importance order is closed and acyclic, so these are the attributes
    whose importance column is empty.
    """
    return set(np.flatnonzero(~spec.importance.matrix.any(axis=0)).tolist())
