"""Load balancing: CH-BL and the cluster front end."""

from .chbl import CHBLPolicy, ConsistentHashRing, hash_point
from .cluster import Cluster
from .policies import LeastLoadedBalancer, RoundRobinBalancer, StatusBoard

__all__ = [
    "ConsistentHashRing",
    "hash_point",
    "Cluster",
    "CHBLPolicy",
    "LeastLoadedBalancer",
    "RoundRobinBalancer",
    "StatusBoard",
]
