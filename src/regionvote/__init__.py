"""Regional versus national winner-take-all voting under concentrated noise.

The package simulates elections on rectangular cell grids, injects
block-concentrated or salt-and-pepper noise, computes analytic robustness
bounds for both voting schemes, searches for minimal overturning noise,
and carries a small eigen-decomposition matching lab that plays the same
regional winner-take-all game with image patterns instead of votes.
"""

from regionvote.grid import (
    Cell,
    DimensionMismatchError,
    Grid,
    GridDims,
    Partition,
    enumerate_partitions,
)
from regionvote.noise import (
    BlockNoiseSpec,
    BlockOverlapError,
    NoiseArea,
    NoiseReport,
    PackResult,
    PlacementInfeasibleError,
    apply_block_noise,
    pack_blocks,
    random_anchor_placement,
)
from regionvote.voting import (
    GlobalTally,
    RegionalTally,
    tally_global,
    tally_regional,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "GridDims",
    "Grid",
    "Partition",
    "DimensionMismatchError",
    "enumerate_partitions",
    "BlockNoiseSpec",
    "NoiseArea",
    "NoiseReport",
    "PackResult",
    "BlockOverlapError",
    "PlacementInfeasibleError",
    "apply_block_noise",
    "random_anchor_placement",
    "pack_blocks",
    "GlobalTally",
    "RegionalTally",
    "tally_global",
    "tally_regional",
    "__version__",
]
