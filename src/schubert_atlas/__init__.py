"""Exact coroot combinatorics and singularity classification for Schubert
varieties in flag varieties G/P, of any simple Lie type."""

from .errors import SchubertAtlasError
from .rootdata import (
    CartanType,
    RootCorootPair,
    RootDatum,
    build_root_datum,
    height,
)
from .weyl import (
    ParabolicSubset,
    WeylElement,
    canonical_reduced_word,
    element_from_word,
    enumerate_coset_reps,
    inversion_sequence,
    min_coset_rep,
    parabolic,
    rightmost_distance,
)
from .schubert import (
    AdaptedBasis,
    ClassificationReport,
    CorootSets,
    SchubertInput,
    Status,
    build_B_wB,
    classify,
    cover_coroots,
    gorenstein_fano_report,
    p_adapt,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedBasis",
    "CartanType",
    "ClassificationReport",
    "CorootSets",
    "ParabolicSubset",
    "RootCorootPair",
    "RootDatum",
    "SchubertAtlasError",
    "SchubertInput",
    "Status",
    "WeylElement",
    "build_B_wB",
    "build_root_datum",
    "canonical_reduced_word",
    "classify",
    "cover_coroots",
    "element_from_word",
    "enumerate_coset_reps",
    "gorenstein_fano_report",
    "height",
    "inversion_sequence",
    "min_coset_rep",
    "p_adapt",
    "parabolic",
    "rightmost_distance",
]
