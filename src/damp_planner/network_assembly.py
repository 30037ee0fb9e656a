"""Network topology and nodal admittance assembly.

A NetworkGraph holds nodes, series branches and shunt devices.
assemble_grid() stamps them into the stacked 2n x 2n complex nodal
admittance matrices over a frequency array, node i (position p,
zero-based) occupying rows/columns 2p and 2p+1 as (d, q); assemble() is
the single-frequency case.  Both return plain ndarrays, and convert f to
s = j*2*pi*f once for the s-domain models; tables and messages keep f.
Each distinct shunt device is evaluated once per call, however many nodes
use it.  Every series R-L element (a branch, a pi cable's series part, a
grid tie) is inverted by one checked helper, which raises
SingularBranchError naming the element and the frequency where its
impedance is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

import numpy as np

from .component_models import (
    ADParams,
    AdmittanceTable,
    CapacitorParams,
    GridImpedanceParams,
    InverterParams,
    PiCableParams,
    RlBranchParams,
    _ad_admittance,
    cap_block,
    inverter_block,
    rl_block,
)

BranchModel = Union[RlBranchParams, PiCableParams]
ShuntDevice = Union[InverterParams, AdmittanceTable, ADParams,
                    GridImpedanceParams, CapacitorParams]


class InvalidNetworkError(ValueError):
    """Graph failed validation; message lists all diagnostics."""


class SingularBranchError(ValueError):
    """A series R-L impedance (a branch, a pi cable's series part or a grid
    tie) is not invertible at this frequency."""


@dataclass(frozen=True)
class Branch:
    from_node: int
    to_node: int
    model: BranchModel
    label: str = ""


@dataclass(frozen=True)
class Shunt:
    node: int
    device: ShuntDevice
    label: str = ""


@dataclass(frozen=True)
class NetworkGraph:
    """Nodes (ids in file order), series branches, shunt devices, the
    fundamental omega0 [rad/s] and the active damper's base parameters:
    a network file's damper_defaults, None for a graph built in code."""

    nodes: tuple[int, ...]
    branches: tuple[Branch, ...]
    shunts: tuple[Shunt, ...]
    omega0: float = 2 * math.pi * 50.0
    damper_defaults: ADParams | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    def node_index(self, node_id: int) -> int:
        """Zero-based matrix position of a node id."""
        try:
            return self.nodes.index(node_id)
        except ValueError:
            raise KeyError(f"node {node_id} not in graph") from None

    def with_shunt_device(self, node_id: int, device: ShuntDevice,
                          label: str = "") -> "NetworkGraph":
        """Copy of the graph with one more shunt device installed."""
        self.node_index(node_id)
        return replace(self, shunts=self.shunts + (Shunt(node_id, device, label),))

    @cached_property
    def _diagnostics(self) -> tuple[str, ...]:
        # the graph is frozen, so it is validated once per instance
        return tuple(validate(self))


def validate(g: NetworkGraph) -> list[str]:
    """Human-readable diagnostics; empty iff the graph is analyzable."""
    out: list[str] = []
    if not g.nodes:
        out.append("node list is empty")
        return out
    seen = set()
    for nid in g.nodes:
        if nid in seen:
            out.append(f"duplicate node id {nid}")
        seen.add(nid)

    for k, b in enumerate(g.branches):
        name = b.label or f"branch[{k}]"
        for nid in (b.from_node, b.to_node):
            if nid not in seen:
                out.append(f"{name} references unknown node {nid}")
        if b.from_node == b.to_node:
            out.append(f"{name} is a self-loop at node {b.from_node}")

    ad_nodes = set()
    for k, s in enumerate(g.shunts):
        name = s.label or f"shunt[{k}]"
        if s.node not in seen:
            out.append(f"{name} references unknown node {s.node}")
        if isinstance(s.device, ADParams):
            if s.node in ad_nodes:
                out.append(f"more than one active damper at node {s.node}")
            ad_nodes.add(s.node)

    # connectivity over series branches (single node counts as connected)
    if len(g.nodes) > 1 and not out:
        adj: dict[int, set[int]] = {nid: set() for nid in g.nodes}
        for b in g.branches:
            adj[b.from_node].add(b.to_node)
            adj[b.to_node].add(b.from_node)
        stack, reached = [g.nodes[0]], {g.nodes[0]}
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        if reached != seen:
            missing = sorted(seen - reached)
            out.append(f"graph is disconnected; unreachable nodes {missing}")

    # a bare node's rows and columns are zero: every eigenvalue there is 0
    attached = {s.node for s in g.shunts}
    attached.update(nid for b in g.branches for nid in (b.from_node, b.to_node))
    out.extend(f"node {nid} has no branch and no shunt"
               for nid in g.nodes if nid not in attached)
    return out


def _series_admittance(model: RlBranchParams, f: np.ndarray, s: np.ndarray,
                       omega0: float, name: str) -> np.ndarray:
    """Inverse of the series R-L impedance of a branch, a pi cable's series
    part or a grid tie at s = j*2*pi*f, vectorized over f; raises
    SingularBranchError naming the element and the first f where it is
    singular: the fundamental for a lossless element whose f spans it, as
    det Z = (R + sL)^2 + (w0 L)^2 vanishes there only, and only for R = 0."""
    z = rl_block(model.r_ohm, model.l_h, s, omega0)
    det = z[:, 0, 0] * z[:, 1, 1] - z[:, 0, 1] * z[:, 1, 0]
    bad = np.abs(det) < 1e-300
    f0 = omega0 / (2 * math.pi)
    if np.any(bad) or model.r_ohm == 0 and f.min() <= f0 <= f.max():
        at = f[np.argmax(bad)] if np.any(bad) else float(f"{f0:.12g}")  # not 59.99999999999999
        raise SingularBranchError(f"{name} has singular series impedance at f={at} Hz")
    return np.linalg.inv(z)


def _device_block(dev: ShuntDevice, f: np.ndarray, s: np.ndarray, omega0: float,
                  name: str) -> np.ndarray:
    if isinstance(dev, InverterParams):
        return inverter_block(dev, s, omega0)
    if isinstance(dev, AdmittanceTable):
        return dev.query(f)
    if isinstance(dev, ADParams):
        return _ad_admittance(dev, s, omega0)[..., None, None] * np.eye(2)
    if isinstance(dev, GridImpedanceParams):
        return _series_admittance(dev, f, s, omega0, name)
    if isinstance(dev, CapacitorParams):
        return cap_block(dev.c_f, s, omega0)
    raise TypeError(f"unknown shunt device {type(dev).__name__}")


def assemble_grid(g: NetworkGraph, f_hz) -> np.ndarray:
    """Stacked matrices (len(f), 2n, 2n) over a frequency array."""
    f = np.asarray(f_hz, dtype=float)
    if g._diagnostics:
        raise InvalidNetworkError("; ".join(g._diagnostics))
    if np.any(f <= 0):
        raise ValueError("all frequencies must be > 0")
    s = 1j * 2.0 * np.pi * f
    nf = len(f)
    dim = 2 * g.n
    y = np.zeros((nf, dim, dim), dtype=complex)
    pos = {nid: g.node_index(nid) for nid in g.nodes}

    for b in g.branches:
        name = f"branch {b.label or f'{b.from_node}-{b.to_node}'}"
        yb = _series_admittance(b.model, f, s, g.omega0, name)
        i, j = 2 * pos[b.from_node], 2 * pos[b.to_node]
        y[:, i:i + 2, i:i + 2] += yb
        y[:, j:j + 2, j:j + 2] += yb
        y[:, i:i + 2, j:j + 2] -= yb
        y[:, j:j + 2, i:i + 2] -= yb
        if isinstance(b.model, PiCableParams):
            ysh = cap_block(b.model.c_f / 2.0, s, g.omega0)
            y[:, i:i + 2, i:i + 2] += ysh
            y[:, j:j + 2, j:j + 2] += ysh

    # each distinct device is evaluated once and stamped at every node
    # using it: frozen parameter sets are keyed by value, tables by identity
    blocks: dict[ShuntDevice, np.ndarray] = {}
    for k, sh in enumerate(g.shunts):
        if sh.device not in blocks:
            blocks[sh.device] = _device_block(sh.device, f, s, g.omega0,
                                              sh.label or f"shunt[{k}]")
        i = 2 * pos[sh.node]
        y[:, i:i + 2, i:i + 2] += blocks[sh.device]
    return y


def assemble(g: NetworkGraph, f_hz: float) -> np.ndarray:
    """Full 2n x 2n nodal admittance matrix at one frequency."""
    return assemble_grid(g, [f_hz])[0]
