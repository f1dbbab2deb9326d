"""Unit tests for the four-step preprocessing routine (Sec. 3.2)."""

import numpy as np
import pytest

from repro.errors import ContourError, PipelineError
from repro.pipelines.preprocess import detect_background, extract_object_crop


def object_on_background(bg, fg=(0.8, 0.2, 0.2), size=32, top=8, left=10, h=12, w=8):
    image = np.empty((size, size, 3))
    image[:] = bg
    image[top : top + h, left : left + w] = fg
    return image


class TestDetectBackground:
    def test_black(self):
        assert detect_background(object_on_background((0, 0, 0))) == "black"

    def test_white(self):
        assert detect_background(object_on_background((1, 1, 1))) == "white"

    def test_object_does_not_confuse_border(self):
        # A big bright object in the middle should not flip the decision.
        image = object_on_background((0, 0, 0), fg=(1, 1, 1), top=4, left=4, h=24, w=24)
        assert detect_background(image) == "black"


class TestExtractObjectCrop:
    def test_black_background_crop(self):
        image = object_on_background((0, 0, 0), top=8, left=10, h=12, w=8)
        crop = extract_object_crop(image, background="black")
        assert crop.bbox == (8, 10, 12, 8)
        assert crop.image.shape == (12, 8, 3)
        assert crop.mask.all()

    def test_white_background_crop(self):
        image = object_on_background((1, 1, 1), fg=(0.3, 0.3, 0.7))
        crop = extract_object_crop(image, background="white")
        assert crop.bbox == (8, 10, 12, 8)

    def test_auto_matches_explicit(self):
        image = object_on_background((0, 0, 0))
        auto = extract_object_crop(image, background="auto")
        explicit = extract_object_crop(image, background="black")
        assert auto.bbox == explicit.bbox

    def test_largest_contour_selected(self):
        image = object_on_background((0, 0, 0), top=2, left=2, h=4, w=4)
        image[16:30, 14:28] = (0.2, 0.8, 0.2)  # larger second object
        crop = extract_object_crop(image, background="black")
        assert crop.bbox == (16, 14, 14, 14)

    def test_crop_preserves_colours(self):
        image = object_on_background((0, 0, 0), fg=(0.1, 0.5, 0.9))
        crop = extract_object_crop(image, background="black")
        assert np.allclose(crop.image[crop.mask], (0.1, 0.5, 0.9))

    def test_empty_foreground_raises(self):
        with pytest.raises(ContourError):
            extract_object_crop(np.zeros((16, 16, 3)), background="black")

    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError):
            extract_object_crop(np.zeros((16, 16, 3)), background="green")

    def test_mask_shape_matches_crop(self):
        image = object_on_background((0, 0, 0))
        crop = extract_object_crop(image)
        assert crop.mask.shape == crop.image.shape[:2]


class TestFilledMask:
    def test_filled_mask_fills_holes(self):
        image = object_on_background((0, 0, 0), top=2, left=2, h=8, w=8)
        image[4:8, 4:8] = 0.0  # a hole
        crop = extract_object_crop(image, background="black")
        assert crop.contour.area == 64 - 16
        assert crop.filled_mask.sum() == 64

    def test_filled_mask_no_hole_is_identity(self):
        crop = extract_object_crop(object_on_background((0, 0, 0)), background="black")
        assert (crop.filled_mask == crop.mask).all()
