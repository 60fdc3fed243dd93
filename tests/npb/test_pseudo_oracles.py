"""Differential tests: LU's plane-major sweep and the buffered operator.

The oracles are the earlier point-ordered implementations, copied here
verbatim: a hyperplane sweep that gathers and scatters by flat index and
updates boundary points through boolean masks, and an operator built
from ``np.roll`` copies.  The fast paths perform the same floating-point
operations in the same order, so the results must be equal bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.npb.lu import OMEGA, Hyperplanes
from repro.npb.pseudo import NCOMP, VELOCITY, VISCOSITY, apply_operator, coupling_matrix


class MaskedHyperplanes:
    """The point-ordered sweep with boolean-mask boundary updates."""

    def __init__(self, n: int) -> None:
        self.n = n
        idx = np.arange(n)
        gi, gj, gk = np.meshgrid(idx, idx, idx, indexing="ij")
        h = (gi + gj + gk).ravel()
        flat = np.arange(n**3)
        order = np.argsort(h, kind="stable")
        sorted_h = h[order]
        boundaries = np.searchsorted(sorted_h, np.arange(3 * n - 2 + 1))
        self.planes = [
            flat[order[boundaries[i] : boundaries[i + 1]]]
            for i in range(3 * n - 2)
        ]
        coords = (gi.ravel(), gj.ravel(), gk.ravel())
        self._lower = [self._links(p, coords, -1) for p in self.planes]
        self._upper = [self._links(p, coords, 1) for p in self.planes]

    def _links(self, plane, coords, sign):
        links = []
        for axis, stride in enumerate((self.n * self.n, self.n, 1)):
            pos = coords[axis][plane]
            mask = pos > 0 if sign < 0 else pos < self.n - 1
            if mask.any():
                nb = plane[mask] + sign * stride
                links.append((axis, None if mask.all() else mask, nb))
        return plane, links

    def sweep(self, rhs, diag_inv, neighbour_coeff, forward):
        x = np.zeros_like(rhs)
        planes = self._lower if forward else self._upper[::-1]
        weight = [OMEGA * c for c in neighbour_coeff]
        for plane, links in planes:
            acc = rhs[:, plane]
            for axis, mask, nb in links:
                if mask is None:
                    acc -= weight[axis] * x[:, nb]
                else:
                    acc[:, mask] -= weight[axis] * x[:, nb]
            x[:, plane] = diag_inv @ acc
        return x


def _ddx(u, axis, h):
    return (np.roll(u, -1, axis=axis + 1) - np.roll(u, 1, axis=axis + 1)) / (2 * h)


def _d2dx2(u, axis, h):
    return (
        np.roll(u, -1, axis=axis + 1) - 2.0 * u + np.roll(u, 1, axis=axis + 1)
    ) / (h * h)


def rolled_operator(u, h, k_matrix):
    """``L(u)`` from twelve ``np.roll`` copies."""
    out = np.einsum("cd,dxyz->cxyz", k_matrix, u)
    for axis, c in enumerate(VELOCITY):
        out += c * _ddx(u, axis, h)
        out -= VISCOSITY * _d2dx2(u, axis, h)
    return out


def table_bytes(obj) -> int:
    """Bytes of every index array an object holds, shared buffers once."""
    seen: dict[int, int] = {}

    def walk(item):
        if isinstance(item, np.ndarray):
            base = item if item.base is None else item.base
            seen[id(base)] = base.nbytes
        elif isinstance(item, (list, tuple)):
            for sub in item:
                walk(sub)

    walk(list(vars(obj).values()))
    return sum(seen.values())


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("forward", [True, False])
def test_sweep_matches_masked_oracle(n, forward):
    rng = np.random.default_rng(100 * n + forward)
    rhs = rng.normal(size=(NCOMP, n**3))
    diag = rng.normal(size=(NCOMP, NCOMP)) + 4.0 * np.eye(NCOMP)
    coeff = tuple(rng.normal(size=3))
    diag_inv = np.linalg.inv(diag)
    got = Hyperplanes(n).sweep(rhs, diag_inv, coeff, forward)
    want = MaskedHyperplanes(n).sweep(rhs, diag_inv, coeff, forward)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(2, 8))
def test_planes_match_masked_oracle(n):
    got, want = Hyperplanes(n).planes, MaskedHyperplanes(n).planes
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [12, 33])
def test_index_tables_no_larger_than_masked_oracle(n):
    assert table_bytes(Hyperplanes(n)) <= table_bytes(MaskedHyperplanes(n))


@given(
    n=st.integers(4, 9),
    h=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_apply_operator_matches_rolled_oracle(n, h, seed):
    u = np.random.default_rng(seed).normal(size=(NCOMP, n, n, n))
    k = coupling_matrix()
    assert np.array_equal(apply_operator(u, h, k), rolled_operator(u, h, k))
