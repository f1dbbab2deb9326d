"""Seeded property tests pinning the cold cascade against independent oracles.

The fast paths of the threshold → contour → crop → features cascade must
give bit-identical answers to the straightforward code they replaced; each
oracle below is that code, kept here as the reference:

* the boundary trace against the set of component pixels 4-adjacent to the
  background reachable from outside the frame;
* ``largest_contour`` (one ``bincount``, one component mask) against the
  per-label loop of ``find_contours`` sorted by area;
* the one-``bincount`` ``rgb_histogram`` against three ``np.histogram``
  calls;
* the crop-local hole fill against filling the whole frame and cropping.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.imaging.contours import find_contours, largest_contour
from repro.imaging.histogram import rgb_histogram
from repro.imaging.image import as_float
from repro.pipelines.preprocess import extract_object_crop

_CROSS = ndimage.generate_binary_structure(2, 1)
_STRUCT8 = np.ones((3, 3), dtype=bool)


def random_masks(seed, count, size=9):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.random((size, size)) < rng.uniform(0.15, 0.85)


def outer_boundary(component):
    """Component pixels with a 4-neighbour in the outside background."""
    padded = np.pad(component, 1)
    labels, _ = ndimage.label(~padded, structure=_CROSS)
    outside = labels == labels[0, 0]
    touching = ndimage.binary_dilation(outside, structure=_CROSS) & padded
    rows, cols = np.nonzero(touching[1:-1, 1:-1])
    return set(zip(rows.tolist(), cols.tolist()))


def per_label_largest(mask):
    """The pre-bincount selection: every component's mask, stable-sorted."""
    labels, count = ndimage.label(mask.astype(bool), structure=_STRUCT8)
    components = [labels == label_id for label_id in range(1, count + 1)]
    components.sort(key=lambda component: component.sum(), reverse=True)
    winner = components[0]
    flat = int(np.argmax(winner))
    return winner, (flat // winner.shape[1], flat % winner.shape[1])


def per_channel_histogram(image, bins, mask=None):
    """The pre-bincount histogram: one ``np.histogram`` per channel."""
    data = as_float(image)
    parts = []
    for channel in range(3):
        values = data[..., channel]
        if mask is not None:
            values = values[mask]
        counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
        parts.append(counts.astype(np.float64))
    hist = np.concatenate(parts)
    total = hist.sum()
    return hist / total if total > 0 else hist


class TestTraceOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_is_the_outer_boundary(self, seed):
        for mask in random_masks(seed, 1000):
            for contour in find_contours(mask):
                traced = set(map(tuple, contour.points.tolist()))
                assert traced == outer_boundary(contour.mask), mask.astype(int)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_trace_is_a_closed_8_connected_walk(self, seed):
        for mask in random_masks(seed, 300):
            for contour in find_contours(mask):
                points = contour.points
                if len(points) < 2:
                    continue
                steps = np.abs(np.diff(np.vstack([points, points[:1]]), axis=0))
                assert (steps.max(axis=1) == 1).all()


class TestLargestContourOracle:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_mask_and_start_match_the_per_label_selection(self, seed):
        for mask in random_masks(seed, 500, size=12):
            if not mask.any():
                continue
            want_mask, want_start = per_label_largest(mask)
            got = largest_contour(mask)
            assert (got.mask == want_mask).all()
            assert got.start == want_start
            first = find_contours(mask)[0]
            assert (first.mask == got.mask).all() and first.start == got.start

    def test_equal_areas_pick_the_lowest_label(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[5:7, 5:7] = True  # label 2 in raster order
        mask[0:2, 1:3] = True  # label 1
        contour = largest_contour(mask)
        assert contour.start == (0, 1)
        assert contour.area == 4

    def test_many_equal_single_pixels(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[::2, ::2] = True  # 25 isolated pixels, all area 1
        want_mask, want_start = per_label_largest(mask)
        got = largest_contour(mask)
        assert got.start == want_start == (0, 0)
        assert (got.mask == want_mask).all()


class TestHistogramOracle:
    @pytest.mark.parametrize("masked", [False, True])
    def test_random_images(self, masked):
        rng = np.random.default_rng(7)
        for _ in range(300):
            bins = int(rng.integers(2, 65))
            shape = (int(rng.integers(1, 16)), int(rng.integers(1, 16)), 3)
            image = rng.random(shape)
            mask = None
            if masked:
                mask = rng.random(shape[:2]) < 0.5
                mask.flat[0] = True
            want = per_channel_histogram(image, bins, mask)
            assert rgb_histogram(image, bins=bins, mask=mask).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bins", [2, 3, 7, 10, 32, 33, 64])
    def test_values_on_bin_edges_and_at_one(self, bins):
        rng = np.random.default_rng(bins)
        edges = np.linspace(0.0, 1.0, bins + 1)
        near = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0)])
        image = rng.choice(np.clip(near, 0.0, 1.0), size=(12, 12, 3))
        image[0, 0] = 1.0
        want = per_channel_histogram(image, bins)
        assert rgb_histogram(image, bins=bins).tobytes() == want.tobytes()

    def test_uint8_derived_values(self):
        rng = np.random.default_rng(11)
        image = rng.integers(0, 256, size=(20, 20, 3)).astype(np.uint8)
        image[0, 0] = 255
        mask = rng.random((20, 20)) < 0.7
        for bins in (4, 32, 51, 255):
            want = per_channel_histogram(image, bins, mask)
            assert rgb_histogram(image, bins=bins, mask=mask).tobytes() == want.tobytes()

    def test_out_of_range_and_nan_values_are_dropped(self):
        rng = np.random.default_rng(13)
        image = rng.uniform(-0.3, 1.3, size=(16, 16, 3))
        image[rng.random(image.shape) < 0.1] = np.nan
        want = per_channel_histogram(image, 32)
        got = rgb_histogram(image, bins=32)
        assert got.tobytes() == want.tobytes()


class TestCropFillOracle:
    @pytest.mark.parametrize("seed", [17, 18])
    def test_crop_local_fill_equals_full_frame_fill(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            # Noisy blobs with holes on a black background, off-centre so
            # bounding boxes touch the frame edge some of the time.
            mask = ndimage.binary_dilation(rng.random((24, 24)) < 0.08, iterations=2)
            mask &= rng.random((24, 24)) < 0.9
            if not mask.any():
                continue
            image = np.zeros((24, 24, 3))
            image[mask] = rng.uniform(0.2, 1.0, size=(int(mask.sum()), 3))
            crop = extract_object_crop(image, background="black")
            top, left, height, width = crop.bbox
            full = ndimage.binary_fill_holes(crop.contour.mask)
            want = full[top : top + height, left : left + width]
            assert (crop.filled_mask == want).all()
