"""minworld: ground instructions to the detectors they need, build a
minimal world model from simulated perception, and act on it."""

__version__ = "0.1.0"

from .parse import Lexicon, ParseTree, Phrase, load_parse_tree
from .symbols import (
    BehaviorSymbol,
    DetectorSet,
    HierarchicalDetectorSymbol,
    IndependentDetectorSymbol,
    SymbolSpace,
    detectors_from_groundings,
)
from .dcg import (
    Assignment,
    FactorGraph,
    Model,
    build_behavior_graph,
    build_perception_graph,
    infer,
    train,
)
from .world import Aabb, Detection, Pose, WorldModel, WorldObject
from .percept import DetectorSpec, PerceptionConfig, Scene, run_perception
from .executive import BehaviorRequest, DoorSim, ExecState, RobotState, receive_behavior

__all__ = [
    "Aabb",
    "Assignment",
    "BehaviorRequest",
    "BehaviorSymbol",
    "Detection",
    "DetectorSet",
    "DetectorSpec",
    "DoorSim",
    "ExecState",
    "FactorGraph",
    "HierarchicalDetectorSymbol",
    "IndependentDetectorSymbol",
    "Lexicon",
    "Model",
    "ParseTree",
    "PerceptionConfig",
    "Phrase",
    "Pose",
    "RobotState",
    "Scene",
    "SymbolSpace",
    "WorldModel",
    "WorldObject",
    "build_behavior_graph",
    "build_perception_graph",
    "detectors_from_groundings",
    "infer",
    "load_parse_tree",
    "receive_behavior",
    "train",
]
