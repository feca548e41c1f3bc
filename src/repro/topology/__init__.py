"""Direct-network topologies: n-dimensional mesh, k-ary n-cube (torus), hypercube.

Nodes are integers ``0 .. num_nodes-1`` in lexicographic coordinate order;
coordinates are tuples, one entry per dimension (paper §3). Link failures are
first-class (:class:`LinkSet`) because the paper's Figure 2 argument about
routing adaptivity is driven entirely by failed links.
"""

from repro.topology.base import Topology
from repro.topology.fattree import FatTree
from repro.topology.hybrid import ClusterMesh
from repro.topology.hypercube import Hypercube
from repro.topology.irregular import IrregularTopology
from repro.topology.links import LinkSet
from repro.topology.mesh import Mesh
from repro.topology.partition import Partition, partition_topology
from repro.topology.properties import (
    average_distance,
    bfs_distances,
    connected_components,
    diameter,
    is_connected,
)
from repro.topology.torus import Torus

__all__ = [
    "Topology",
    "Mesh",
    "Torus",
    "Hypercube",
    "IrregularTopology",
    "FatTree",
    "ClusterMesh",
    "LinkSet",
    "Partition",
    "partition_topology",
    "bfs_distances",
    "diameter",
    "average_distance",
    "is_connected",
    "connected_components",
]
