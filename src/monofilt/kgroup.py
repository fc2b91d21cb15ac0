"""Formal Grothendieck-group classes of twisted simple labels.

A KClass is a Z-linear combination of (label, twist) pairs with no zero
coefficients stored, so equality is plain structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .weights import LabeledGrading, TwistedLabel, WeightedSpace, lefschetz_spread


class BadSupport(ValueError):
    """Kernel grading supported above the allowed top weight."""


@dataclass(frozen=True)
class KClass:
    terms: tuple  # tuple of (TwistedLabel, coefficient), canonically sorted

    @staticmethod
    def from_dict(d: Mapping[TwistedLabel, int]) -> "KClass":
        items = [(lbl, int(c)) for lbl, c in d.items() if c != 0]
        return KClass(tuple(sorted(items, key=lambda t: t[0].sort_key)))

    @staticmethod
    def zero() -> "KClass":
        return KClass(())

    def __str__(self) -> str:
        return " + ".join(str(lbl) if c == 1 else f"{c}*{lbl}"
                          for lbl, c in self.terms) or "0"


def kclass_of_space(ws: WeightedSpace) -> KClass:
    """The class of the grading, which WeightedSpace keeps consistent with the
    graded dimensions."""
    return _sum_labels(ws.grading.terms())


def kclass_psi_from_kernel(kernel_grading: LabeledGrading, n: int) -> KClass:
    """Assemble the class of the full nearby-cycles space from its N-kernel
    grading, whose constituents are primitive about n-1 (lefschetz_spread)."""
    bad = next((w for w in kernel_grading.weights if w > n - 1), None)
    if bad is not None:
        raise BadSupport(f"kernel grading has weight {bad} > {n - 1}")
    return _sum_labels(lefschetz_spread(kernel_grading.terms(), n - 1))


def _sum_labels(terms) -> KClass:
    acc: dict[TwistedLabel, int] = {}
    for _, lbl, m in terms:
        acc[lbl] = acc.get(lbl, 0) + m
    return KClass.from_dict(acc)
