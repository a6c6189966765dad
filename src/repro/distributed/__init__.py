"""Distributed runtime: the driver shell every protocol shares, the
message-level Forgiving Tree and its setup phase."""

from .driver import ProtocolDriver
from .messages import (
    Deleted,
    InsertAck,
    InsertRequest,
    LeafWillMsg,
    LeafWillRetract,
    Message,
    ReplaceChild,
    SimChange,
    WillPortionMsg,
)
from .network import Network, RoundStats
from .node import LeafWill, Portion, ProtocolNode, Role
from .protocol import DistributedForgivingTree

__all__ = [
    "Deleted",
    "DistributedForgivingTree",
    "InsertAck",
    "InsertRequest",
    "LeafWill",
    "LeafWillMsg",
    "LeafWillRetract",
    "Message",
    "Network",
    "Portion",
    "ProtocolDriver",
    "ProtocolNode",
    "ReplaceChild",
    "Role",
    "RoundStats",
    "SimChange",
    "WillPortionMsg",
]
