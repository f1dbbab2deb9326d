"""Contour extraction on binary masks.

Replaces ``cv2.findContours`` for the paper's preprocessing routine
(Sec. 3.2): threshold, *contour detection on cascade*, then crop to the
contour of largest area.

Connected foreground components are located with ``scipy.ndimage.label``
(8-connectivity, matching OpenCV's default).  Area is the pixel count,
which is what the paper's "largest area" selection needs; all component
areas come from one ``np.bincount`` over the label image.  Each component's
outer boundary is traced with Moore-neighbour tracing only when a caller
reads :attr:`Contour.points` (or the perimeter): the recognition cascade
needs the region and its bounding box, never the polygon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import ndimage

from repro.errors import ContourError

#: 8-connected structuring element used for component labelling.
_STRUCT8 = np.ones((3, 3), dtype=bool)

#: Moore neighbourhood in clockwise order starting east: (dr, dc).
_MOORE = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]


@dataclass(frozen=True)
class Contour:
    """An extracted object contour.

    ``mask`` is the component as a boolean image of the same shape as the
    source; ``start`` its first pixel in raster order, where the boundary
    trace begins.  ``points`` is the ordered ``(N, 2)`` array of (row, col)
    boundary coordinates, traced on first access.
    """

    mask: np.ndarray = field(repr=False)
    start: tuple[int, int]

    @property
    def area(self) -> float:
        """Area in pixels."""
        return float(self.mask.sum())

    @cached_property
    def points(self) -> np.ndarray:
        """The traced outer boundary (see :func:`_trace_boundary`)."""
        return _trace_boundary(self.mask, self.start)

    @property
    def perimeter(self) -> float:
        """Polygonal arc length of the traced boundary."""
        if len(self.points) < 2:
            return 0.0
        diffs = np.diff(
            np.vstack([self.points, self.points[:1]]).astype(np.float64), axis=0
        )
        return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())

    @property
    def bounding_box(self) -> tuple[int, int, int, int]:
        """(top, left, height, width) of the tight bounding rectangle."""
        rows = np.flatnonzero(self.mask.any(axis=1))
        cols = np.flatnonzero(self.mask.any(axis=0))
        top, bottom = int(rows[0]), int(rows[-1])
        left, right = int(cols[0]), int(cols[-1])
        return top, left, bottom - top + 1, right - left + 1


def _trace_boundary(mask: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """Moore-neighbour boundary trace of the component containing *start*.

    *start* must be the first foreground pixel in raster order, which
    guarantees the pixel above it is background — the canonical entry
    condition for Moore tracing.  The trace stops by Jacob's criterion: when
    the first move (start → first neighbour) is about to repeat.  Stopping
    on the first return to *start* instead loses every lobe beyond it when
    *start* is a cut vertex (an inverted V).  A pixel the trace passes more
    than once appears once per pass.
    """
    rows, cols = mask.shape

    def on(r: int, c: int) -> bool:
        return 0 <= r < rows and 0 <= c < cols and bool(mask[r, c])

    boundary = [start]
    # Backtrack direction: we entered `start` coming from the pixel above.
    prev_dir = 6  # index of (-1, 0) in _MOORE
    current = start
    first_move: tuple[tuple[int, int], tuple[int, int]] | None = None
    for _ in range(4 * mask.size + 8):  # hard bound; trace must terminate
        found = False
        # Scan clockwise starting just after the backtrack direction.
        for step in range(1, 9):
            idx = (prev_dir + step) % 8
            dr, dc = _MOORE[idx]
            nr, nc = current[0] + dr, current[1] + dc
            if on(nr, nc):
                # New backtrack points from the neighbour to the pixel we
                # scanned just before finding it.
                prev_dir = (idx + 4) % 8
                found = True
                break
        if not found:  # isolated single pixel
            break
        # A move fixes the next scan (it starts after the pixel we came
        # from), so a repeated first move means the boundary has closed.
        move = (current, (nr, nc))
        if first_move is None:
            first_move = move
        elif move == first_move:
            boundary.pop()  # the closing return to start
            break
        current = (nr, nc)
        boundary.append(current)
    return np.array(boundary, dtype=np.intp)


def _labelled(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-connected labels of *mask* and each label's pixel count."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ContourError(f"mask must be 2-D, got shape {mask.shape}")
    labels, count = ndimage.label(mask.astype(bool), structure=_STRUCT8)
    return labels, np.bincount(labels.ravel(), minlength=count + 1)


def _contour_of(labels: np.ndarray, label_id: int) -> Contour:
    component = labels == label_id
    start_flat = int(np.argmax(component))
    start = (start_flat // component.shape[1], start_flat % component.shape[1])
    return Contour(mask=component, start=start)


def find_contours(mask: np.ndarray, min_area: float = 1.0) -> list[Contour]:
    """Extract outer contours of all foreground components in *mask*.

    Components smaller than *min_area* pixels are dropped.  Contours are
    returned sorted by descending area (lowest label first among equal
    areas), so ``find_contours(m)[0]`` is the paper's "contour of largest
    area" — :func:`largest_contour` without the other components.
    """
    labels, areas = _labelled(mask)
    # Stable sort: equal areas keep ascending label order.
    order = np.argsort(-areas[1:], kind="stable") + 1
    return [
        _contour_of(labels, int(label_id))
        for label_id in order
        if areas[label_id] >= min_area
    ]


def largest_contour(mask: np.ndarray) -> Contour:
    """Return the largest-area contour, raising if the mask is empty.

    Only the winning component's mask is built; among equal areas the
    lowest label (first in raster order) wins, as in :func:`find_contours`.
    """
    labels, areas = _labelled(mask)
    if len(areas) < 2:
        raise ContourError("no foreground component found in mask")
    return _contour_of(labels, int(np.argmax(areas[1:])) + 1)


def contour_area(contour: Contour) -> float:
    """Area of *contour* in pixels."""
    return contour.area


def contour_perimeter(contour: Contour) -> float:
    """Arc length of *contour*'s traced boundary polygon."""
    return contour.perimeter


def bounding_rect(contour: Contour) -> tuple[int, int, int, int]:
    """(top, left, height, width) bounding rectangle of *contour*."""
    return contour.bounding_box
