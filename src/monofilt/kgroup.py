"""Formal Grothendieck-group classes of twisted simple labels.

A KClass is a Z-linear combination of (label, twist) pairs with no zero
coefficients stored, so equality is plain structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .weights import LabeledGrading, TwistedLabel, WeightedSpace


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
    acc: dict[TwistedLabel, int] = {}
    for _, terms in ws.grading.entries:
        for lbl, m in terms:
            acc[lbl] = acc.get(lbl, 0) + m
    return KClass.from_dict(acc)


def kclass_psi_from_kernel(kernel_grading: LabeledGrading, n: int) -> KClass:
    """Assemble the class of the full nearby-cycles space from its N-kernel grading.

    A kernel constituent at weight n-1-m spreads over weights
    n-1-m, n-1-m+2, ..., n-1+m, picking up the Tate twist (n-1-m-k)/2 at
    weight k.
    """
    acc: dict[TwistedLabel, int] = {}
    for w, terms in kernel_grading.entries:
        m = (n - 1) - w
        if m < 0:
            raise BadSupport(f"kernel grading has weight {w} > {n - 1}")
        for lbl, mult in terms:
            for k in range(n - 1 - m, n - 1 + m + 1, 2):
                tw = (n - 1 - m - k) // 2
                key = lbl.twisted(tw)
                acc[key] = acc.get(key, 0) + mult
    return KClass.from_dict(acc)
