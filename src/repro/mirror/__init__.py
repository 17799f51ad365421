"""Multi-cluster federation: mirror links, offset translation, ordering.

This package is the *only* place cross-cluster object references are
allowed (``tests/test_layering_structure.py`` keeps the rest of
``src/repro`` from importing :mod:`repro.mirror` or building its links).
Everything
else sees exactly one cluster and, at most, a ``network=`` handle it
cannot distinguish from its local one.
"""

from repro.mirror.federation import Federation
from repro.mirror.link import MirrorLink
from repro.mirror.netlink import InterClusterLink, LinkedNetwork
from repro.mirror.ordering import (
    HLC_HEADER,
    HLCMerge,
    HybridLogicalClock,
    MergedRecord,
    SequencerMerge,
    make_merge,
    stamp_hlc,
)
from repro.mirror.translation import OffsetTranslator

__all__ = [
    "Federation",
    "HLCMerge",
    "HLC_HEADER",
    "HybridLogicalClock",
    "InterClusterLink",
    "LinkedNetwork",
    "MergedRecord",
    "MirrorLink",
    "OffsetTranslator",
    "SequencerMerge",
    "make_merge",
    "stamp_hlc",
]
