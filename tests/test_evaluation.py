"""Metric, curve and quad-tree checks.

The quad-tree dynamic program is compared against a brute-force oracle
that enumerates every decodable labeling of a tile (for an 8x8 tile with
minimum block 4 that is 18 alternatives: two whole-tile modes plus 2^4
labelings of the four quadrants), so optimality is established by an
independent route.
"""

import itertools
import math

import numpy as np
import pytest

from gdclab import evaluation as V
from gdclab.errors import ContractError, ShapeError


class TestPsnr:
    def test_hand_values(self):
        a = np.zeros((1, 3, 8, 8))
        assert V.psnr(a, np.full_like(a, 0.1)) == pytest.approx(20.0, abs=1e-12)
        assert V.psnr(a, np.full_like(a, 0.5)) == pytest.approx(
            -10.0 * math.log10(0.25), abs=1e-12)

    def test_identical_inputs_report_cap(self):
        a = np.random.default_rng(0).uniform(size=(1, 3, 4, 4))
        assert V.psnr(a, a) == V.PSNR_CAP
        # mse 1e-12 is 120 dB, above the cap
        assert V.psnr(a, a + 1e-6) == V.PSNR_CAP

    def test_nan_reads_as_nan_not_the_cap(self):
        # a diverged coder's reconstruction must not report as lossless
        a = np.full((1, 3, 4, 4), 0.5)
        b = a.copy()
        b[0, 1, 2, 3] = np.nan
        assert math.isnan(V.psnr(a, b)) and math.isnan(V.psnr(b, a))

    def test_shape_contract(self):
        with pytest.raises(ShapeError):
            V.psnr(np.zeros((1, 3, 4, 4)), np.zeros((1, 3, 4, 5)))


class TestBitsPerPixel:
    def test_value(self):
        assert V.bits_per_pixel(1024, 32, 32) == 1.0
        assert V.bits_per_pixel(512, 32, 32) == 0.5

    def test_contract(self):
        with pytest.raises(ContractError):
            V.bits_per_pixel(100, 0, 32)


class TestCurves:
    def test_check_curve_contracts(self):
        good = [V.RDPoint(b, p) for b, p in [(0.1, 30), (0.2, 33), (0.4, 36), (0.8, 39)]]
        V.check_curve(good)
        with pytest.raises(ContractError):
            V.check_curve(good[:3])
        bad_bpp = [V.RDPoint(b, p) for b, p in [(0.1, 30), (0.1, 33), (0.4, 36), (0.8, 39)]]
        with pytest.raises(ContractError):
            V.check_curve(bad_bpp)
        bad_q = [V.RDPoint(b, p) for b, p in [(0.1, 30), (0.2, 29), (0.4, 36), (0.8, 39)]]
        with pytest.raises(ContractError):
            V.check_curve(bad_q)
        neg = [V.RDPoint(b - 0.2, p) for b, p in [(0.1, 30), (0.2, 33), (0.4, 36), (0.8, 39)]]
        with pytest.raises(ContractError):
            V.check_curve(neg)

    @pytest.mark.parametrize("bad", [(0.8, float("inf")), (float("inf"), 39.0),
                                     (0.8, float("nan")), (float("nan"), 39.0)])
    def test_check_curve_rejects_non_finite(self, bad):
        # an infinite psnr once reached np.polyfit, which raised LinAlgError
        pts = [V.RDPoint(b, p) for b, p in [(0.1, 30), (0.2, 33), (0.4, 36), bad]]
        with pytest.raises(ContractError, match="not finite"):
            V.check_curve(pts)


def _bd_oracle(reference, test, samples=20001):
    """Independent route: Vandermonde interpolation plus trapezoid
    integration (both curves must have exactly four points)."""
    qr = np.array([p.psnr for p in reference])
    rr = np.log10([p.bpp for p in reference])
    qt = np.array([p.psnr for p in test])
    rt = np.log10([p.bpp for p in test])
    cr = np.linalg.solve(np.vander(qr, 4), rr)
    ct = np.linalg.solve(np.vander(qt, 4), rt)
    lo, hi = max(qr.min(), qt.min()), min(qr.max(), qt.max())
    qs = np.linspace(lo, hi, samples)
    avg = (np.trapezoid(np.polyval(ct, qs), qs)
           - np.trapezoid(np.polyval(cr, qs), qs)) / (hi - lo)
    return 100.0 * (10.0 ** avg - 1.0)


class TestBdRate:
    PTS = [V.RDPoint(b, p) for b, p in [(0.1, 30), (0.2, 33), (0.4, 36), (0.8, 39)]]

    def test_identical_curves_are_zero(self):
        assert abs(V.bd_rate(self.PTS, self.PTS)) < 1e-12

    def test_half_rate_is_minus_fifty(self):
        half = [V.RDPoint(p.bpp / 2, p.psnr) for p in self.PTS]
        assert V.bd_rate(self.PTS, half) == pytest.approx(-50.0, abs=1e-9)

    def test_constant_factor_offset(self):
        # scaling every rate by 0.8 must read as exactly -20 percent
        scaled = [V.RDPoint(p.bpp * 0.8, p.psnr) for p in self.PTS]
        assert V.bd_rate(self.PTS, scaled) == pytest.approx(-20.0, abs=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            q = np.sort(rng.uniform(28, 42, size=5)) + np.arange(5) * 1e-3
            r1 = np.sort(rng.uniform(0.05, 2.0, size=5)) + np.arange(5) * 1e-6
            r2 = np.sort(rng.uniform(0.05, 2.0, size=5)) + np.arange(5) * 1e-6
            c1 = [V.RDPoint(b, p) for b, p in zip(r1, q)]
            c2 = [V.RDPoint(b, p) for b, p in zip(r2, q)]
            f, g = V.bd_rate(c1, c2), V.bd_rate(c2, c1)
            assert (1 + f / 100) * (1 + g / 100) == pytest.approx(1.0, abs=1e-9)

    def test_against_trapezoid_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q1 = np.sort(rng.uniform(28, 40, size=4)) + np.arange(4) * 1e-2
            q2 = np.sort(rng.uniform(28, 40, size=4)) + np.arange(4) * 1e-2
            r1 = np.sort(rng.uniform(0.05, 2.0, size=4)) + np.arange(4) * 1e-5
            r2 = np.sort(rng.uniform(0.05, 2.0, size=4)) + np.arange(4) * 1e-5
            c1 = [V.RDPoint(b, p) for b, p in zip(r1, q1)]
            c2 = [V.RDPoint(b, p) for b, p in zip(r2, q2)]
            got = V.bd_rate(c1, c2)
            want = _bd_oracle(c1, c2)
            assert got == pytest.approx(want, abs=max(1e-3, abs(want) * 1e-3))

    def test_no_overlap_rejected(self):
        far = [V.RDPoint(p.bpp, p.psnr + 100) for p in self.PTS]
        with pytest.raises(ContractError):
            V.bd_rate(self.PTS, far)


def exhaustive_cost(x, d, g, lam, min_block, block):
    """Enumerate every decodable labeling of each root tile and take the
    cheapest; written without reference to the dynamic program."""
    h, w = x.shape[2], x.shape[3]

    def sse(src, y0, x0, s):
        delta = (x[:, :, y0:y0 + s, x0:x0 + s] - src[:, :, y0:y0 + s, x0:x0 + s]) * 255.0
        return float(np.sum(delta * delta))

    def alts(y0, x0, s):
        flag = 1 if s > min_block else 0
        out = [(flag + 1, sse(d, y0, x0, s)), (flag + 1, sse(g, y0, x0, s))]
        if s > min_block:
            half = s // 2
            kids = [alts(y0 + dy * half, x0 + dx * half, half)
                    for dy in (0, 1) for dx in (0, 1)]
            for combo in itertools.product(*kids):
                out.append((flag + sum(c[0] for c in combo),
                            sum(c[1] for c in combo)))
        return out

    total = 0.0
    for y0 in range(0, h, block):
        for x0 in range(0, w, block):
            total += min(s + lam * bits for bits, s in alts(y0, x0, block))
    return total


class TestQuadTree:
    def _hand_case(self, rng):
        # candidate d is perfect only in the top-left quadrant, candidate g
        # everywhere else
        x = rng.uniform(size=(1, 3, 8, 8))
        d = x + 0.05
        g = x + 0.05
        d[:, :, :4, :4] = x[:, :, :4, :4]
        g[:, :, :4, 4:] = x[:, :, :4, 4:]
        g[:, :, 4:, :] = x[:, :, 4:, :]
        return x, d, g

    def test_hand_case(self):
        x, d, g = self._hand_case(np.random.default_rng(9))
        res = V.quadtree_search(x, d, g, lam=1.0, min_block=4, max_block=8)
        assert res.leaves == ((0, 0, 4, "d"), (0, 4, 4, "g"), (4, 0, 4, "g"), (4, 4, 4, "g"))
        assert res.bits == [1, 0, 1, 1, 1]  # one split flag, four mode bits
        assert np.array_equal(res.merged, x)
        assert res.mode_d_fraction == 0.25

    def test_root_leaf_accounting(self):
        x, d, g = self._hand_case(np.random.default_rng(10))
        res = V.quadtree_search(x, d, g, lam=0.0, min_block=8, max_block=8)
        assert res.leaves == ((0, 0, 8, "g"),)
        assert res.side_bits == 1  # no flag at minimum size, one mode bit

    def test_ties_prefer_leaf_and_mode_d(self):
        x = np.random.default_rng(11).uniform(size=(1, 1, 8, 8))
        res = V.quadtree_search(x, x.copy(), x.copy(), lam=0.0,
                                min_block=4, max_block=8)
        assert res.leaves == ((0, 0, 8, "d"),)
        assert res.mode_d_fraction == 1.0

    def test_exhaustive_agreement_8x8(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            x = rng.uniform(size=(1, 1, 8, 8))
            d = x + rng.normal(scale=0.03, size=x.shape)
            g = x + rng.normal(scale=0.03, size=x.shape)
            lam = float(rng.uniform(0, 2000))
            res = V.quadtree_search(x, d, g, lam, min_block=4, max_block=8)
            want = exhaustive_cost(x, d, g, lam, 4, 8)
            assert math.isclose(res.cost, want, rel_tol=1e-9, abs_tol=1e-6)

    def test_exhaustive_agreement_16x16(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            x = rng.uniform(size=(1, 1, 16, 16))
            d = x + rng.normal(scale=0.02, size=x.shape)
            g = x + rng.normal(scale=0.02, size=x.shape)
            lam = float(rng.uniform(0, 500))
            res = V.quadtree_search(x, d, g, lam, min_block=4, max_block=16)
            want = exhaustive_cost(x, d, g, lam, 4, 16)
            assert math.isclose(res.cost, want, rel_tol=1e-9, abs_tol=1e-6)

    def test_never_worse_than_root_leaves(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.uniform(size=(1, 2, 16, 16))
            d = x + rng.normal(scale=0.05, size=x.shape)
            g = x + rng.normal(scale=0.05, size=x.shape)
            lam = float(rng.uniform(0, 1000))
            res = V.quadtree_search(x, d, g, lam, min_block=4, max_block=16)
            for cand in (d, g):
                delta = (x - cand) * 255.0
                root_cost = float(np.sum(delta * delta)) + lam * 2  # flag + mode
                assert res.cost <= root_cost + 1e-9

    def test_merged_matches_leaf_walk(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(size=(1, 3, 16, 16))
        d = x + rng.normal(scale=0.04, size=x.shape)
        g = x + rng.normal(scale=0.04, size=x.shape)
        res = V.quadtree_search(x, d, g, 50.0, min_block=4, max_block=16)
        assert len(res.leaves) > 1
        for leaf in res.leaves:
            src = d if leaf.mode == "d" else g
            sl = np.s_[:, :, leaf.y:leaf.y + leaf.size, leaf.x:leaf.x + leaf.size]
            assert np.array_equal(res.merged[sl], src[sl])
        # the merged frame is in cand_d's dtype
        merged32 = V.merge_reconstructions(d.astype(np.float32), g, res.leaves)
        assert merged32.dtype == np.float32
        assert np.array_equal(merged32, res.merged.astype(np.float32))
        areas = res.mode_d_area + sum(
            leaf.size * leaf.size for leaf in res.leaves if leaf.mode == "g")
        assert areas == res.area == 256

    def test_side_bits_equal_serialization_length(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            x = rng.uniform(size=(1, 1, 16, 16))
            d = x + rng.normal(scale=0.03, size=x.shape)
            g = x + rng.normal(scale=0.03, size=x.shape)
            res = V.quadtree_search(x, d, g, float(rng.uniform(0, 300)),
                                    min_block=4, max_block=16)
            # a mode bit per leaf, a split flag per leaf above the minimum
            # size and one per split node; a split turns one leaf into four
            n = len(res.leaves)
            flags = sum(leaf.size > 4 for leaf in res.leaves) + (n - 1) // 3
            assert res.side_bits == len(res.bits) == n + flags

    def test_serialize_parse_round_trip(self):
        # the hand case's tree, as the search's per-size (split, mode_g)
        levels = {4: ([[False, False], [False, False]], [[False, True], [True, True]]),
                  8: ([[True]], [[True]])}
        bits = V.serialize_quadtree(levels)
        assert bits == [1, 0, 1, 1, 1]
        x, d, g = self._hand_case(np.random.default_rng(17))
        res = V.quadtree_search(x, d, g, 1.0, min_block=4, max_block=8)
        assert res.bits == bits
        assert V.parse_quadtree(bits, 8, 8, 4, 8) == res.leaves
        # every bit must belong to the tree
        with pytest.raises(ContractError):
            V.parse_quadtree(bits + [0, 1], 8, 8, 4, 8)

    def test_multiple_roots_raster_order(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(size=(1, 1, 8, 16))
        d = x + rng.normal(scale=0.03, size=x.shape)
        g = x + rng.normal(scale=0.03, size=x.shape)
        res = V.quadtree_search(x, d, g, 10.0, min_block=4, max_block=8)
        # every leaf of the left root comes before any leaf of the right one
        right = [leaf.x >= 8 for leaf in res.leaves]
        assert right == sorted(right) and right[0] is False and right[-1] is True
        assert V.parse_quadtree(res.bits, 8, 16, 4, 8) == res.leaves

    def test_parse_contracts(self):
        with pytest.raises(ContractError):
            V.parse_quadtree([1], 8, 8, 4, 8)  # ends before any leaf
        with pytest.raises(ContractError):
            V.parse_quadtree([2, 0], 8, 8, 4, 8)  # non-binary bit

    def test_root_block_rule(self):
        assert V.root_block(48, 32, 4, 256) == 16
        assert V.root_block(24, 36, 4, 256) == 4
        assert V.root_block(64, 64, 4, 16) == 16
        with pytest.raises(ContractError):
            V.root_block(10, 6, 4, 256)  # root tile 2 < min_block

    def test_search_contracts(self):
        x = np.zeros((1, 1, 8, 8))
        with pytest.raises(ContractError):
            V.quadtree_search(x, x, x, 1.0, min_block=3, max_block=8)
        with pytest.raises(ContractError):
            V.quadtree_search(x, x, x, 1.0, min_block=16, max_block=8)
        with pytest.raises(ContractError):
            V.quadtree_search(x, x, x, 1.0, min_block=4, max_block=512)
        for lam in (-1.0, math.nan, math.inf):
            with pytest.raises(ContractError):
                V.quadtree_search(x, x, x, lam)
        with pytest.raises(ShapeError):
            V.quadtree_search(np.zeros((2, 1, 8, 8)), x, x, 1.0)
        with pytest.raises(ShapeError):
            V.quadtree_search(x, np.zeros((1, 1, 8, 4)), x, 1.0)
        odd = np.zeros((1, 1, 10, 6))
        with pytest.raises(ContractError):
            V.quadtree_search(odd, odd, odd, 1.0)
