"""Simulated message passing: alpha-beta links and multi-socket cluster
projection."""

from .cluster import ClusterPrediction, cluster_sweep, predict_cluster
from .netmodel import ETHERNET_100G, INFINIBAND_HDR, PCIE5_FABRIC, LinkModel

__all__ = [
    "ClusterPrediction",
    "ETHERNET_100G",
    "INFINIBAND_HDR",
    "LinkModel",
    "PCIE5_FABRIC",
    "cluster_sweep",
    "predict_cluster",
]
