"""The paper's preprocessing routine (Sec. 3.2).

    "we (i) first converted to grayscale, (ii) applied global binary
    thresholding (or its inverse, depending on whether the input background
    was black or white respectively), (iii) contour detection on cascade,
    and (iv) cropped the original RGB image to the contour of largest area."

:func:`extract_object_crop` performs exactly these four steps and returns the
cropped RGB image together with the foreground mask and contour, which the
matching pipelines reuse for moments and masked histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import ndimage

from repro.errors import ContourError, ImageError, PipelineError
from repro.imaging.contours import Contour, largest_contour
from repro.imaging.image import as_float, crop
from repro.imaging.threshold import threshold_binary

#: Global threshold for black-background inputs (NYU segmented crops):
#: anything brighter than the mask black is foreground.
BLACK_BG_THRESHOLD = 0.02

#: Global threshold for white-background inputs (ShapeNet views), applied in
#: inverse mode: anything darker than near-white is foreground.
WHITE_BG_THRESHOLD = 0.97


@dataclass(frozen=True)
class ObjectCrop:
    """Result of the four-step preprocessing routine.

    ``image`` is the RGB crop around the largest contour; ``mask`` the
    foreground pixels inside the crop; ``contour`` the full-frame contour it
    was derived from; ``bbox`` the (top, left, height, width) crop window.
    """

    image: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    contour: Contour = field(repr=False)
    bbox: tuple[int, int, int, int]

    @property
    def filled_mask(self) -> np.ndarray:
        """The crop's object region with interior holes filled.

        This is what OpenCV's contour moments describe: ``cv2.matchShapes``
        on an outer contour integrates over the enclosed polygon via Green's
        theorem, so holes inside the outline (a window's panes) do not
        exist at the moment level.  Filling inside the crop equals filling
        the whole frame and cropping: everything outside the bounding box
        is background connected to the frame border.
        """
        return ndimage.binary_fill_holes(self.mask)


def detect_background(image: np.ndarray) -> str:
    """Guess whether *image* lies on a black or white background.

    Looks at the mean luma of the one-pixel border, which is pure mask black
    for NYU crops and near white for ShapeNet views.
    """
    data = as_float(image)
    border = np.concatenate([data[0, :], data[-1, :], data[1:-1, 0], data[1:-1, -1]])
    if border.ndim == 2:
        border = border.mean(axis=-1)  # luma of the border pixels only
    return "black" if border.mean() < 0.5 else "white"


def extract_object_crop(image: np.ndarray, background: str = "auto") -> ObjectCrop:
    """Run the paper's grayscale → threshold → contour → crop cascade.

    *background* is ``"black"``, ``"white"`` or ``"auto"`` (border
    inspection).  Raises :class:`~repro.errors.ContourError` if thresholding
    finds no foreground at all.
    """
    if background not in ("black", "white", "auto"):
        raise PipelineError(f"unknown background mode {background!r}")
    if background == "auto":
        background = detect_background(image)

    if background == "black":
        mask = threshold_binary(image, BLACK_BG_THRESHOLD, inverse=False)
    else:
        mask = threshold_binary(image, WHITE_BG_THRESHOLD, inverse=True)
    if not mask.any():
        raise ContourError(f"no foreground found against {background} background")

    contour = largest_contour(mask)
    top, left, height, width = contour.bounding_box
    rgb = as_float(image)
    return ObjectCrop(
        image=crop(rgb, top, left, height, width),
        mask=contour.mask[top : top + height, left : left + width].copy(),
        contour=contour,
        bbox=(top, left, height, width),
    )


def shared_crop(image: np.ndarray) -> Callable[[], ObjectCrop | None]:
    """A thunk that runs the cascade on *image* at its first call only.

    The shape and colour extractions of one image call it in turn, so a
    hybrid query crops once, and not at all when both features are cache
    hits.  ``None`` means the cascade failed; each extraction then runs its
    own failure path on the image.
    """
    memo: list[ObjectCrop | None] = []

    def object_crop() -> ObjectCrop | None:
        if not memo:
            try:
                memo.append(extract_object_crop(image, background="auto"))
            except (ContourError, ImageError):
                memo.append(None)
        return memo[0]

    return object_crop
