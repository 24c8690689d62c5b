import numpy as np
import pytest

from multilevel_control import (
    ConvexProfile,
    Partition,
    PwlConvex,
    barrier_constants,
    build_penalization,
    conjugate,
    interp_error_bound,
    quadratic_profile,
    slopes,
    subdifferential,
)

FIVE_POINTS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


@pytest.fixture
def ladder():
    """Chord interpolation of u^2 on {-1, -0.5, 0, 0.5, 1}."""
    return build_penalization(quadratic_profile(), Partition(FIVE_POINTS))


def abs_value_pwl():
    return PwlConvex([-1.0, 1.0], [0.0, 0.0], interval=(-1.0, 1.0))


class TestPartition:
    def test_widths(self):
        p = Partition(np.array([-1.0, -0.25, 0.75, 1.0]))
        assert np.allclose(p.widths, [0.75, 1.0, 0.25])
        assert p.mesh_size == 1.0

    def test_rejects_short_or_unsorted(self):
        with pytest.raises(ValueError):
            Partition(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Partition(np.array([0.0, 1.0, 0.5]))


class TestBuildPenalization:
    def test_matches_profile_at_points(self, ladder):
        assert np.allclose(ladder.value(FIVE_POINTS), FIVE_POINTS**2, atol=0)

    def test_reference_values(self, ladder):
        assert ladder.value(0.25) == pytest.approx(0.125, abs=1e-15)
        # chord through (0.5, 0.25)-(1, 1) extended to u = 2
        assert ladder.value(2.0) == pytest.approx(2.5, abs=1e-14)
        assert ladder.value(-2.0) == pytest.approx(2.5, abs=1e-14)

    def test_profile_must_cover_partition(self):
        prof = ConvexProfile(
            fun=lambda u: np.where(np.abs(u) > 0.75, np.nan, u * u),
            second_derivative=lambda u: np.full_like(np.asarray(u, float), 2.0),
        )
        with pytest.raises(ValueError):
            build_penalization(prof, Partition(FIVE_POINTS))

    def test_offgrid_minimizer_rejected(self):
        part = Partition(np.linspace(-1, 1, 6))  # 0 is not a point
        with pytest.raises(ValueError, match="minimizer"):
            build_penalization(quadratic_profile(), part)
        prof = quadratic_profile()
        relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
        pen = build_penalization(relaxed, part)
        assert pen.pieces == 5


class TestSlopes:
    def test_reference_slopes(self, ladder):
        assert np.allclose(slopes(ladder), [-1.5, -0.5, 0.5, 1.5], atol=0)

    def test_antisymmetric_for_even_profile(self):
        part = Partition(np.array([-2.0, -1.2, 0.0, 1.2, 2.0]))
        s = slopes(build_penalization(quadratic_profile(), part))
        assert np.allclose(s, -s[::-1], atol=1e-15)

    def test_zero_slope_segment(self):
        # equal profile values at a segment's endpoints give a flat chord
        prof = quadratic_profile()
        relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
        pen = build_penalization(relaxed, Partition(np.array([-1.0, -0.2, 0.2, 1.0])))
        assert slopes(pen)[1] == 0.0

    def test_strictly_increasing_for_strictly_convex(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pts = np.sort(rng.uniform(-2, 2, size=6))
            while np.min(np.diff(pts)) < 1e-3:
                pts = np.sort(rng.uniform(-2, 2, size=6))
            a, b = rng.uniform(0.2, 3.0), rng.uniform(0.1, 1.0)
            prof = ConvexProfile(
                fun=lambda u, a=a, b=b: a * u * u + b * np.cosh(u),
                second_derivative=lambda u, a=a, b=b: 2 * a + b * np.cosh(u),
            )
            s = slopes(build_penalization(prof, Partition(pts)))
            assert np.all(np.diff(s) > 0)


class TestSubdifferential:
    def test_open_segment_singleton(self, ladder):
        iv = subdifferential(ladder, 0.25)
        assert iv.lower == iv.upper == pytest.approx(0.5, abs=0)

    def test_interior_breakpoints(self, ladder):
        iv0 = subdifferential(ladder, 0.0)
        assert (iv0.lower, iv0.upper) == (-0.5, 0.5)
        iv = subdifferential(ladder, 0.5)
        assert (iv.lower, iv.upper) == (0.5, 1.5)

    def test_extended_ends_are_smooth(self, ladder):
        iv = subdifferential(ladder, 1.0)
        assert (iv.lower, iv.upper) == (1.5, 1.5)

    def test_clamped_ends_half_infinite(self, ladder):
        lo = subdifferential(ladder, -1.0, clamped=True)
        hi = subdifferential(ladder, 1.0, clamped=True)
        assert lo.lower == -np.inf and lo.upper == -1.5
        assert hi.lower == 1.5 and hi.upper == np.inf
        with pytest.raises(ValueError):
            subdifferential(ladder, 1.5, clamped=True)

    def test_finite_domain_endpoints(self, ladder):
        conj = conjugate(ladder)
        lo = subdifferential(conj, conj.domain[0])
        assert lo.lower == -np.inf
        with pytest.raises(ValueError):
            subdifferential(conj, conj.domain[1] + 1.0)


class TestSlopeBounds:
    def test_off_a_kink(self, ladder):
        lo, hi = ladder.slope_bounds(np.array([0.25, -0.75, 3.0]))
        assert lo.tolist() == hi.tolist() == [0.5, -1.5, 1.5]

    def test_on_a_breakpoint(self, ladder):
        lo, hi = ladder.slope_bounds(np.array([0.0, 0.5, 0.5 + 1e-7]))
        assert lo.tolist() == [-0.5, 0.5, 1.5] and hi.tolist() == [0.5, 1.5, 1.5]
        lo, hi = ladder.slope_bounds(0.5 + 1e-7, tol=1e-6)
        assert (lo, hi) == (0.5, 1.5)

    def test_finite_domain_ends_half_infinite(self, ladder):
        conj = conjugate(ladder)
        lo, hi = conj.slope_bounds(np.array(conj.domain))
        assert lo.tolist() == [-np.inf, conj.slopes[-1]]
        assert hi.tolist() == [conj.slopes[0], np.inf]

    def test_single_point_domain(self):
        point = conjugate(PwlConvex([2.0], [1.0]))
        assert point.domain == (2.0, 2.0)
        assert point.slope_bounds(2.0) == (-np.inf, np.inf)

    def test_agrees_with_subdifferential(self, ladder):
        for pwl in (ladder, conjugate(ladder), abs_value_pwl(), conjugate(abs_value_pwl())):
            lo_d, hi_d = pwl.domain
            span = (max(lo_d, -2.0), min(hi_d, 2.0))
            us = np.concatenate([np.linspace(*span, 257), pwl.breakpoints, [*span]])
            lo, hi = pwl.slope_bounds(us)
            for u, a, b in zip(us, lo, hi):
                iv = subdifferential(pwl, u)
                assert (iv.lower, iv.upper) == (a, b)
            assert np.array_equal(pwl.selection(us), 0.5 * (lo + hi))


class TestConjugate:
    def test_abs_value_gives_indicator(self):
        conj = conjugate(abs_value_pwl())
        assert conj.domain == (-1.0, 1.0)
        assert np.allclose(conj.value(np.array([-1.0, -0.3, 0.0, 0.8, 1.0])), 0.0, atol=0)
        assert conj.value(1.0001) == np.inf

    def test_two_piece_max(self):
        # f = max(u, 2u - 1): f*(v) = v - 1 on [1, 2]
        f = PwlConvex([1.0, 2.0], [0.0, -1.0])
        fs = conjugate(f)
        assert fs.domain == (1.0, 2.0)
        for v in (1.0, 1.5, 2.0):
            assert fs.value(v) == pytest.approx(v - 1.0, abs=1e-14)
        assert fs.value(0.5) == np.inf

    def test_against_grid_oracle(self, ladder):
        # brute-force sup over a 1e-4-spaced grid of u
        uu = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
        lvals = ladder.value(uu)
        conj = conjugate(ladder)
        vv = np.linspace(conj.domain[0], conj.domain[1], 501)
        oracle = np.max(np.multiply.outer(vv, uu) - lvals, axis=1)
        exact = conj.value(vv)
        # the grid sup underestimates by at most spacing * slope gap
        assert np.all(oracle <= exact + 1e-12)
        assert np.max(exact - oracle) <= 1e-4 * (3.0 + 1.5)

    def test_biconjugation(self, ladder):
        back = conjugate(conjugate(ladder))
        rng = np.random.default_rng(4)
        uu = rng.uniform(-2.0, 2.0, size=1000)
        assert np.allclose(back.value(uu), ladder.value(uu), atol=1e-10)

    def test_fenchel_young_and_subdiff_duality(self, ladder):
        conj = conjugate(ladder)
        rng = np.random.default_rng(8)
        uu = rng.uniform(-1.5, 1.5, size=1000)
        # include the breakpoints themselves
        uu[: ladder.breakpoints.size] = ladder.breakpoints
        for u in uu:
            iv = subdifferential(ladder, float(u))
            for v in {iv.lower, iv.upper, 0.5 * (iv.lower + iv.upper)}:
                eq = float(u) * v - ladder.value(float(u))
                assert eq == pytest.approx(conj.value(v), abs=1e-10)
                back = subdifferential(conj, v)
                assert back.contains(float(u), slack=1e-10)

    def test_max_of_affines_agreement(self, ladder):
        # the segment lookup of value against the max-of-affines form (the
        # ladder's domain is all of R)
        rng = np.random.default_rng(12)
        uu = rng.uniform(-4, 4, size=1000)
        reference = np.max(np.multiply.outer(uu, ladder.slopes) + ladder.intercepts, axis=-1)
        assert ladder.domain == (-np.inf, np.inf)
        assert np.allclose(ladder.value(uu), reference, atol=1e-12)

    def test_redundant_piece_dropped(self):
        # middle piece never attains the max of the envelope
        f = PwlConvex([-1.0, 0.0, 1.0], [0.0, -5.0, 0.0])
        assert f.pieces == 2


class TestBarrierConstants:
    def test_reference_ladder(self, ladder):
        a1, a2 = barrier_constants(ladder, (-1.0, 1.0))
        assert a1 == pytest.approx(0.5, abs=1e-14)
        assert a2 == pytest.approx(1.0, abs=1e-14)
        uu = np.linspace(-1, 1, 1001)
        uu = uu[np.abs(uu) > 1e-9]
        vals = ladder.value(uu)
        assert np.all(vals >= a1 * np.abs(uu) - 1e-12)
        assert np.all(vals <= a2 * np.abs(uu) + 1e-12)

    def test_abs_value(self):
        a1, a2 = barrier_constants(abs_value_pwl(), (-1.0, 1.0))
        assert (a1, a2) == (1.0, 1.0)

    def test_scaling_homogeneity(self, ladder):
        beta = 3.0
        scaled = PwlConvex(
            beta * ladder.slopes, beta * ladder.intercepts, interval=ladder.interval
        )
        a1, a2 = barrier_constants(ladder, (-1.0, 1.0))
        b1, b2 = barrier_constants(scaled, (-1.0, 1.0))
        assert (b1, b2) == (pytest.approx(beta * a1), pytest.approx(beta * a2))

    def test_requires_zero_at_zero(self):
        prof = quadratic_profile()
        relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
        pen = build_penalization(relaxed, Partition(np.linspace(-1, 1, 6)))
        with pytest.raises(ValueError):
            barrier_constants(pen, (-1.0, 1.0))


class TestInterpErrorBound:
    def test_quadratic_reference(self):
        part = Partition(FIVE_POINTS)
        seg, global_bound = interp_error_bound(quadratic_profile(), part)
        assert global_bound == pytest.approx(0.25, abs=1e-14)
        assert np.allclose(seg, 0.25, atol=1e-14)

    def test_measured_error_below_bound(self, ladder):
        uu = np.linspace(-1, 1, 4001)
        measured = np.max(np.abs(ladder.value(uu) - uu**2))
        assert measured == pytest.approx(0.0625, abs=1e-6)
        assert measured <= 0.25

    def test_refinement_quarters_bound(self):
        coarse = Partition.uniform(-1, 1, 4)
        fine = Partition.uniform(-1, 1, 8)
        _, b_coarse = interp_error_bound(quadratic_profile(), coarse)
        _, b_fine = interp_error_bound(quadratic_profile(), fine)
        assert b_fine == pytest.approx(b_coarse / 4.0, rel=1e-12)

    def test_random_profiles_respect_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.05, 1.0)
            c = rng.uniform(-0.5, 0.5)
            prof = ConvexProfile(
                fun=lambda u, a=a, b=b, c=c: a * (u - c) ** 2 + b * np.cosh(u),
                second_derivative=lambda u, a=a, b=b: 2 * a + b * np.cosh(u),
            )
            pts = np.sort(rng.uniform(-1.5, 1.5, size=rng.integers(4, 9)))
            while np.min(np.diff(pts)) < 1e-2:
                pts = np.sort(rng.uniform(-1.5, 1.5, size=pts.size))
            part = Partition(pts)
            pen = build_penalization(prof, part)
            seg_bounds, global_bound = interp_error_bound(prof, part)
            uu = np.linspace(pts[0], pts[-1], 3001)
            measured = np.max(np.abs(pen.value(uu) - prof(uu)))
            assert measured <= global_bound + 1e-12

    def test_sup_error_shrinks_with_refinement(self):
        prof = quadratic_profile()
        errs = []
        for m in (4, 8, 16):
            pen = build_penalization(prof, Partition.uniform(-1, 1, m))
            uu = np.linspace(-1, 1, 4001)
            errs.append(np.max(np.abs(pen.value(uu) - uu**2)))
        assert errs[0] > errs[1] > errs[2]
