"""Byte-exact table output of the three CSV exporters."""

from types import SimpleNamespace

import numpy as np

from staticlab.barriers import export_barrier_csv
from staticlab.elliptic import export_solution_csv
from staticlab.graphs import export_graph_csv
from staticlab.numerics import fd_derivative

NODES = np.linspace(0.0, 1.0, 7)
VALUES = np.array([float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1.0 / 3.0, 1e300])


def _reference(header, columns, sep=","):
    """Each row formatted on its own, every value as repr(float)."""
    rows = [sep.join(f"{float(col[i])!r}" for col in columns) + "\n" for i in range(len(columns[0]))]
    return (header + "\n" + "".join(rows)).encode()


def test_export_graph_csv_bytes(tmp_path):
    graph = SimpleNamespace(grid=SimpleNamespace(nodes=NODES), tau=VALUES, slope=VALUES[::-1],
                            flux=-VALUES, cosh_theta=VALUES + 1.0)
    path = tmp_path / "graph.csv"
    export_graph_csv(graph, path)
    cols = (NODES, VALUES, VALUES[::-1], -VALUES, VALUES + 1.0)
    assert path.read_bytes() == _reference("s,tau,slope,flux,cosh_theta", cols)


def test_export_barrier_csv_bytes(tmp_path):
    w = np.linspace(1.0, 2.0, NODES.size)
    f = np.array([-0.0, 0.1, 1.0 / 3.0, 2.5, -7.0, 1e-300, 0.0])
    barrier = SimpleNamespace(grid=SimpleNamespace(nodes=NODES), f=SimpleNamespace(values=f),
                              u0=SimpleNamespace(values=-VALUES), w_nodes=w, rhs_A=VALUES)
    path = tmp_path / "barrier.csv"
    export_barrier_csv(barrier, path)
    resid = fd_derivative(w * f, float(NODES[1] - NODES[0])) / w - VALUES
    assert path.read_bytes() == _reference("s,f,u0,residual", (NODES, f, -VALUES, resid))


def test_export_solution_csv_bytes(tmp_path):
    q_faces = VALUES[1:] * 0.5
    op = SimpleNamespace(grid=SimpleNamespace(nodes=NODES), w_nodes=VALUES[::-1], q_faces=q_faces,
                         slope_cap=0.999)
    path = tmp_path / "solution.csv"
    export_solution_csv(op, VALUES, -VALUES, path)
    assert path.read_bytes() == _reference("s,u", (NODES, VALUES))
    q = np.append(q_faces, q_faces[-1])
    meta = _reference("slope_cap 0.999\ns w q_face(right) H", (NODES, VALUES[::-1], q, -VALUES), sep=" ")
    assert (tmp_path / "solution.csv.meta.txt").read_bytes() == meta
