"""Unit tests for contour extraction."""

import numpy as np
import pytest

from repro.errors import ContourError
from repro.imaging.contours import (
    bounding_rect,
    contour_area,
    contour_perimeter,
    find_contours,
    largest_contour,
)


def square_mask(size=12, top=3, left=4, side=5):
    mask = np.zeros((size, size), dtype=bool)
    mask[top : top + side, left : left + side] = True
    return mask


class TestFindContours:
    def test_single_square(self):
        contours = find_contours(square_mask())
        assert len(contours) == 1
        assert contours[0].area == 25

    def test_bounding_box(self):
        contour = largest_contour(square_mask(top=3, left=4, side=5))
        assert bounding_rect(contour) == (3, 4, 5, 5)

    def test_multiple_components_sorted_by_area(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[1:4, 1:4] = True  # area 9
        mask[8:16, 8:16] = True  # area 64
        contours = find_contours(mask)
        assert len(contours) == 2
        assert contours[0].area == 64
        assert contours[1].area == 9

    def test_min_area_filter(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True
        mask[4:8, 4:8] = True
        contours = find_contours(mask, min_area=2)
        assert len(contours) == 1
        assert contours[0].area == 16

    def test_diagonal_pixels_are_8_connected(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, 1] = mask[2, 2] = mask[3, 3] = True
        contours = find_contours(mask)
        assert len(contours) == 1
        assert contours[0].area == 3

    def test_empty_mask_gives_no_contours(self):
        assert find_contours(np.zeros((5, 5), dtype=bool)) == []

    def test_largest_contour_raises_on_empty(self):
        with pytest.raises(ContourError):
            largest_contour(np.zeros((5, 5), dtype=bool))

    def test_rejects_non_2d(self):
        with pytest.raises(ContourError):
            find_contours(np.zeros((2, 2, 3)))

    def test_full_frame_component(self):
        mask = np.ones((7, 7), dtype=bool)
        contour = largest_contour(mask)
        assert contour.area == 49
        assert bounding_rect(contour) == (0, 0, 7, 7)

    def test_single_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 3] = True
        contour = largest_contour(mask)
        assert contour.area == 1
        assert len(contour.points) == 1


class TestContourProperties:
    def test_boundary_points_lie_on_component(self):
        contour = largest_contour(square_mask())
        for row, col in contour.points:
            assert contour.mask[row, col]

    def test_perimeter_of_square(self):
        contour = largest_contour(square_mask(side=5))
        # 5x5 square: boundary trace has 16 points, arc length 16.
        assert contour_perimeter(contour) == pytest.approx(16.0)

    def test_trace_passes_a_cut_vertex_start_twice(self):
        # The topmost pixel joins two legs; stopping on the first return to
        # it lost the left leg.
        mask = np.array([[0, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, 0, 0, 1]])
        points = largest_contour(mask).points.tolist()
        assert points == [[0, 2], [1, 3], [2, 4], [1, 3], [0, 2], [1, 1], [2, 0], [1, 1]]

    def test_points_are_traced_on_first_access_only(self):
        contour = largest_contour(square_mask())
        assert "points" not in contour.__dict__
        assert contour.points is contour.points

    def test_area_helper(self):
        contour = largest_contour(square_mask(side=4))
        assert contour_area(contour) == 16

    def test_uint8_mask_accepted(self):
        mask = square_mask().astype(np.uint8) * 255
        assert largest_contour(mask).area == 25
