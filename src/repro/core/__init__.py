"""Core of the reproduction: the Forgiving Tree engine and its parts."""

from .errors import (
    DisconnectedGraphError,
    DuplicateNodeError,
    EmptyStructureError,
    InvariantViolationError,
    NodeNotFoundError,
    NotATreeError,
    ProtocolError,
    ReproError,
    SimulationOverError,
)
from .events import (
    EdgeAdded,
    EdgeRemoved,
    HealReport,
    HelperCreated,
    HelperDestroyed,
    HelperTransferred,
    LeafWillSent,
    NodeInserted,
    WillPortionSent,
    edge_key,
)
from .flat import AliveView, FlatCore, FlatWills
from .flat_tree import (
    WILL_REBUILD,
    WILL_SPLICE,
    FlatForgivingTree,
    as_adjacency,
    check_is_tree,
)
from .forgiving_tree import ForgivingTree
from .slot_tree import SlotTree
from .state import ALLOWED_TRANSITIONS, HelperState, NodeState
from .virtual_tree import VirtualTree

__all__ = [
    "ALLOWED_TRANSITIONS",
    "AliveView",
    "DisconnectedGraphError",
    "DuplicateNodeError",
    "EdgeAdded",
    "EdgeRemoved",
    "EmptyStructureError",
    "FlatCore",
    "FlatForgivingTree",
    "FlatWills",
    "ForgivingTree",
    "HealReport",
    "HelperCreated",
    "HelperDestroyed",
    "HelperState",
    "HelperTransferred",
    "InvariantViolationError",
    "LeafWillSent",
    "NodeInserted",
    "NodeNotFoundError",
    "NodeState",
    "NotATreeError",
    "ProtocolError",
    "ReproError",
    "SimulationOverError",
    "SlotTree",
    "VirtualTree",
    "WILL_REBUILD",
    "WILL_SPLICE",
    "WillPortionSent",
    "edge_key",
]
