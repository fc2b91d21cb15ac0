"""Exact-arithmetic verification of monodromy-weight structures on the disk.

Subpackages: qlinalg (rational linear algebra), weights (filtered spaces),
monodromy (Deligne filtration, hard Lefschetz), kgroup (formal classes),
gluing (disk six-functor model), theorems (end-to-end verifiers), cli.
"""
from .qlinalg import QMatrix, Subspace
from .weights import (AdaptedMap, LabeledGrading, TwistedLabel,
                      WeightFiltration, WeightedSpace)
from .monodromy import JordanStringModel, NilpotentModel
from .kgroup import KClass
from .gluing import GluingDatum
from .theorems import DiskModel

__all__ = [
    "QMatrix", "Subspace", "LabeledGrading", "TwistedLabel", "AdaptedMap",
    "WeightFiltration", "WeightedSpace", "JordanStringModel", "NilpotentModel",
    "KClass", "GluingDatum", "DiskModel",
]

__version__ = "0.1.0"
