"""Modular reductions of the rank-4 star Coxeter groups [5,3;k] over Z[tau].

The package exports the entry points of a library session; every other name
is imported from its module (``starcox.matgroup``, ``starcox.builder``, ...).
"""

from .builder import StarParams
from .cgroup import verify_cgroup
from .classify import classify_rank4
from .polytope import face_counts, incidence_report
from .ring import GoldenInt, classify_prime, parse_golden

__version__ = "0.1.0"

__all__ = [
    "GoldenInt",
    "StarParams",
    "classify_prime",
    "classify_rank4",
    "face_counts",
    "incidence_report",
    "parse_golden",
    "verify_cgroup",
    "__version__",
]
