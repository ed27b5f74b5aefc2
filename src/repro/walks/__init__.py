"""Random-walk substrate: Algorithm 6 walk index, absorbing helpers.

See DESIGN.md systems S6-S8.
"""

from .absorbing import absorption_distances, closeness_from_distance, first_absorption
from .index import WalkIndex, WalkRecord, hoeffding_sample_size

__all__ = [
    "WalkRecord",
    "WalkIndex",
    "hoeffding_sample_size",
    "first_absorption",
    "absorption_distances",
    "closeness_from_distance",
]
