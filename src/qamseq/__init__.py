"""16-QAM / 64-QAM near-complementary OFDM sequences with low PMEPR.

Construct codewords from quadratic-path functions plus constrained offsets,
enumerate the full families, and verify the star-operator and PMEPR bounds
(2.4 for 16-QAM; 3.62 / 2.48 for the two 64-QAM offset kinds) by direct
computation.  The names below are the ones the README's Library section
documents; everything else lives in the submodules.
"""

from .constructions import (
    ConstructionParams,
    Modulation,
    Offset16,
    build,
    classify_offset64,
    enumerate_family,
    family_size,
)
from .gbf import PathQuadratic
from .verification import lemma_sweep, theorem_bound_audit

__version__ = "0.1.0"

__all__ = [
    "ConstructionParams",
    "Modulation",
    "Offset16",
    "PathQuadratic",
    "build",
    "classify_offset64",
    "enumerate_family",
    "family_size",
    "lemma_sweep",
    "theorem_bound_audit",
]
