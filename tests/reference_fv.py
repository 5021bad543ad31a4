"""Face-by-face assembly of the semi-discrete operator, the reference
``chemolab.solver.rhs`` is tested against.

It shares no code with the solver, so one fault cannot pass both: each face
gets its own centered signal gradient, its own density value (the upwind
cell or the two-cell average) and its own two-point diffusive flux, and the
zero-flux boundary faces carry exactly 0.
"""

import numpy as np

from chemolab.model import Grid


def lo(axis: int, dim: int) -> tuple[slice, ...]:
    """All but the last entry along ``axis``: the low side of each interior
    face of a cell array, or every face but the last of a face array."""
    return tuple(slice(None, -1) if k == axis else slice(None) for k in range(dim))


def hi(axis: int, dim: int) -> tuple[slice, ...]:
    """All but the first entry along ``axis``; the counterpart of :func:`lo`."""
    return tuple(slice(1, None) if k == axis else slice(None) for k in range(dim))


def _with_boundary_faces(interior: np.ndarray, axis: int, grid: Grid) -> np.ndarray:
    """Full face array along ``axis``: the zero-flux boundary faces carry 0."""
    return np.pad(interior, [(1, 1) if k == axis else (0, 0) for k in range(grid.dim)])


def grad_w_faces(w: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Centered two-point signal gradient on faces, one array per axis.

    Face arrays include the boundary faces, which carry exactly zero.
    """
    w = np.asarray(w, float)
    faces = []
    for axis, h in enumerate(grid.spacing):
        interior = (w[hi(axis, grid.dim)] - w[lo(axis, grid.dim)]) / h
        faces.append(_with_boundary_faces(interior, axis, grid))
    return faces


def species_flux(
    density: np.ndarray,
    chi: float,
    gw: np.ndarray,
    scheme: str,
    grid: Grid,
    axis: int,
) -> np.ndarray:
    """Face flux F = -grad(density) + chi * density_at_face * grad(w).

    ``gw`` is the full face array for this axis (as from
    :func:`grad_w_faces`); boundary faces of the result are exactly zero.
    """
    density = np.asarray(density, float)
    low, high = lo(axis, grid.dim), hi(axis, grid.dim)
    d_lo, d_hi = density[low], density[high]
    vel = chi * gw[high][low]  # interior faces
    if scheme == "upwind":
        face = np.where(vel > 0, d_lo, d_hi)  # the cell the velocity points away from
    else:
        face = 0.5 * (d_lo + d_hi)
    flux = face * vel - (d_hi - d_lo) / grid.spacing[axis]
    return _with_boundary_faces(flux, axis, grid)


def divergence(fluxes: list[np.ndarray], grid: Grid) -> np.ndarray:
    """Conservative face-difference divergence of per-axis face fluxes."""
    out = np.zeros(grid.shape)
    for axis, (flux, h) in enumerate(zip(fluxes, grid.spacing)):
        out += (flux[hi(axis, grid.dim)] - flux[lo(axis, grid.dim)]) / h
    return out
