"""Push-based streaming operators: the deployable form of the joins."""

from repro.streaming.kslack import KSlackBuffer
from repro.streaming.operators import (
    ScoredWindow,
    StreamingKSJ,
    StreamingPECJ,
    StreamingWMJ,
    WindowEmission,
)
from repro.streaming.state import ArrivalLog, WindowJoinState

__all__ = [
    "KSlackBuffer",
    "ArrivalLog",
    "WindowJoinState",
    "WindowEmission",
    "ScoredWindow",
    "StreamingWMJ",
    "StreamingKSJ",
    "StreamingPECJ",
]
