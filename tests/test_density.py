import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fprom import DensityField, Grid, kde_estimate, kl_divergence, tikhonov_smooth
from fprom.analytic import gaussian_density
from fprom.density import (
    KL_FLOOR,
    MomentSet,
    auto_bandwidth,
    kl_divergence_rows,
    l1_distance,
    moments,
    read_density_csv,
    write_density_csv,
)
from fprom.errors import InputDataError


def second_difference_matrix(grid):
    """Dense flux-form second difference: (1, -2, 1)/h^2 inside, and at
    each wall the zero-flux row (-2, 2)/h^2 of a half cell whose outer
    face carries no flux."""
    n, h2 = grid.n_points, grid.spacing**2
    e = (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / h2
    e[0, 1] = e[-1, -2] = 2.0 / h2
    return e


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def gaussian_kl(m1, v1, m2, v2):
    return 0.5 * (np.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1.0)


def exact_kde(samples, grid, bw):
    """Reference KDE: the direct Gaussian sum at every node, normalized."""
    x = grid.nodes
    acc = np.zeros(grid.n_points)
    for lo in range(0, len(samples), 2048):
        block = np.asarray(samples[lo : lo + 2048], dtype=float)
        acc += np.exp(-0.5 * ((x[:, None] - block[None, :]) / bw) ** 2).sum(axis=1)
    return DensityField.normalized(grid, acc, 0.0)


class TestDensityField:
    def test_values_read_only_and_copied(self):
        grid = Grid(-1.0, 1.0, 9)
        raw = np.full(9, 0.5)
        f = DensityField(grid=grid, values=raw, time_stamp=0.0)
        raw[0] = 99.0
        assert f.values[0] == 0.5
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_rejects_negative_and_non_finite(self):
        grid = Grid(-1.0, 1.0, 9)
        with pytest.raises(ValueError):
            DensityField(grid=grid, values=-np.ones(9), time_stamp=0.0)
        with pytest.raises(ValueError):
            DensityField(grid=grid, values=np.full(9, np.nan), time_stamp=0.0)

    def test_normalized_clips_and_scales(self):
        grid = Grid(-1.0, 1.0, 33)
        values = np.linspace(-0.5, 1.0, 33)
        f = DensityField.normalized(grid, values, 1.5)
        assert f.mass == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.values >= 0.0)
        assert f.time_stamp == 1.5

    def test_normalized_rejects_all_zero(self):
        grid = Grid(-1.0, 1.0, 9)
        with pytest.raises(ValueError):
            DensityField.normalized(grid, np.zeros(9), 0.0)


class TestKde:
    def test_auto_bandwidth_formula(self):
        samples = _philox(7).standard_normal(400)
        sd = np.std(samples, ddof=1)
        q75, q25 = np.percentile(samples, [75, 25])
        expected = 1.06 * min(sd, (q75 - q25) / 1.349) * 400 ** (-0.2)
        assert auto_bandwidth(samples) == pytest.approx(expected, rel=1e-12)

    def test_standard_normal_recovery(self):
        samples = _philox(42).standard_normal(10_000)
        grid = Grid(-6.0, 6.0, 513)
        f = kde_estimate(samples, grid)
        m = moments(f)
        assert abs(m.mean) <= 0.05
        assert abs(m.variance - 1.0) <= 0.1

    def test_two_point_bimodal_symmetric(self):
        grid = Grid(-4.0, 4.0, 513)
        f = kde_estimate([-1.0, 1.0], grid, bandwidth=0.5)
        m = moments(f)
        assert abs(m.mean) <= 1e-10
        # symmetric: mirrored values agree
        assert np.allclose(f.values, f.values[::-1], atol=1e-12)
        # bimodal: a local dip at the center
        mid = grid.n_points // 2
        peak = np.argmax(f.values[:mid])
        assert f.values[mid] < f.values[peak]

    def test_auto_needs_ten_samples(self):
        grid = Grid(-4.0, 4.0, 65)
        with pytest.raises(ValueError):
            kde_estimate([0.0, 1.0], grid)

    def test_identical_samples_error_points_to_fallback(self):
        grid = Grid(-4.0, 4.0, 65)
        with pytest.raises(ValueError, match="bandwidth"):
            kde_estimate([1.0] * 20, grid)

    def test_explicit_bandwidth_lifts_preconditions(self):
        grid = Grid(-4.0, 4.0, 257)
        f = kde_estimate([0.5] * 3, grid, bandwidth=0.2)
        m = moments(f)
        assert m.mean == pytest.approx(0.5, abs=1e-8)
        assert m.variance == pytest.approx(0.04, rel=1e-3)

    def test_rejects_non_finite_samples(self):
        grid = Grid(-4.0, 4.0, 65)
        with pytest.raises(ValueError):
            kde_estimate([0.0, np.nan] + [0.1] * 10, grid)

    def test_narrow_grid_warns(self):
        samples = _philox(3).standard_normal(200)
        grid = Grid(-1.0, 1.0, 65)
        with pytest.warns(UserWarning, match="3 bandwidth"):
            kde_estimate(samples, grid)

    def test_result_is_normalized(self):
        samples = _philox(5).standard_normal(1000)
        f = kde_estimate(samples, Grid(-8.0, 8.0, 257))
        assert f.mass == pytest.approx(1.0, abs=1e-12)


class TestBinnedKdeAccuracy:
    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_matches_exact_sum_across_bandwidth_to_spacing(self, ratio):
        grid = Grid(-8.0, 8.0, 129)
        samples = _philox(21).standard_normal(2000)
        bw = ratio * grid.spacing
        fast = kde_estimate(samples, grid, bandwidth=bw)
        assert l1_distance(fast, exact_kde(samples, grid, bw)) <= 1e-3

    def test_matches_exact_sum_at_workflow_scale(self):
        grid = Grid(-6.0, 6.0, 513)
        samples = 0.2 + 1.3 * _philox(22).standard_normal(5000)
        fast = kde_estimate(samples, grid)
        assert l1_distance(fast, exact_kde(samples, grid, auto_bandwidth(samples))) <= 5e-4

    def test_samples_straddling_an_edge_warn_and_match(self):
        grid = Grid(-1.0, 3.0, 257)
        samples = 3.0 + 0.5 * _philox(23).standard_normal(3000)
        with pytest.warns(UserWarning, match="KDE mass will be truncated"):
            fast = kde_estimate(samples, grid, bandwidth=0.1)
        assert l1_distance(fast, exact_kde(samples, grid, 0.1)) <= 1e-3

    def test_refinement_cap_bounds_memory(self):
        grid = Grid(-1.0, 1.0, 4097)
        samples = grid.nodes[::7].copy()
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="3 bandwidths"):
                f = kde_estimate(samples, grid, bandwidth=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.mass == pytest.approx(1.0, abs=1e-12)
        assert peak < 32 * 2**20

    def test_bandwidth_wider_than_grid_bounds_memory(self):
        grid = Grid(-1.0, 1.0, 129)
        samples = 50.0 * _philox(24).standard_normal(1000)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="3 bandwidths"):
                fast = kde_estimate(samples, grid, bandwidth=100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert l1_distance(fast, exact_kde(samples, grid, 100.0)) <= 5e-3

    @settings(max_examples=40, deadline=None)
    @given(
        half=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40),
        bw=st.floats(0.01, 1.5),
    )
    def test_unit_mass_nonnegative_and_mirror_symmetric(self, half, bw):
        grid = Grid(-4.0, 4.0, 129)
        samples = np.concatenate([half, np.negative(half)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            f = kde_estimate(samples, grid, bandwidth=bw)
        assert f.mass == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.values >= 0.0)
        assert np.allclose(f.values, f.values[::-1], rtol=0.0, atol=1e-12 * f.values.max())


class TestMoments:
    def test_gaussian_moments(self):
        grid = Grid(-2.0, 6.0, 1025)
        f = gaussian_density(grid, 2.0, 0.25, 0.0)
        m = moments(f)
        assert m.mean == pytest.approx(2.0, abs=1e-4)
        assert m.variance == pytest.approx(0.25, abs=1e-4)

    def test_rejects_unnormalized(self):
        grid = Grid(-1.0, 1.0, 65)
        f = DensityField(grid=grid, values=np.full(65, 1.0), time_stamp=0.0)
        with pytest.raises(ValueError, match="mass"):
            moments(f)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            MomentSet(mean=0.0, variance=-1e-3)


class TestKl:
    def test_closed_form_gaussian_pairs(self):
        grid = Grid(-12.0, 12.0, 2049)
        cases = [
            (0.0, 1.0, 0.5, 1.0),
            (0.0, 1.0, 0.0, 2.0),
            (1.0, 0.5, -0.5, 1.5),
        ]
        for m1, v1, m2, v2 in cases:
            p = gaussian_density(grid, m1, v1, 0.0)
            q = gaussian_density(grid, m2, v2, 0.0)
            expected = gaussian_kl(m1, v1, m2, v2)
            assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-6)

    def test_zero_on_identical(self, unit_gaussian):
        assert kl_divergence(unit_gaussian, unit_gaussian) == 0.0

    def test_positive_on_distinct(self):
        grid = Grid(-10.0, 10.0, 513)
        p = gaussian_density(grid, 0.0, 1.0, 0.0)
        q = gaussian_density(grid, 1.0, 1.0, 0.0)
        assert kl_divergence(p, q) > 1e-3

    def test_disjoint_supports_large_finite(self):
        grid = Grid(0.0, 10.0, 513)
        left = np.where(grid.nodes < 4.0, 1.0, 0.0)
        right = np.where(grid.nodes > 6.0, 1.0, 0.0)
        p = DensityField.normalized(grid, left, 0.0)
        q = DensityField.normalized(grid, right, 0.0)
        kl = kl_divergence(p, q)
        assert np.isfinite(kl)
        assert kl > 10.0

    def test_grid_mismatch_rejected(self):
        p = gaussian_density(Grid(-5.0, 5.0, 65), 0.0, 1.0, 0.0)
        q = gaussian_density(Grid(-5.0, 5.0, 129), 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            kl_divergence(p, q)

    def test_mass_checked_on_both_sides(self, unit_gaussian):
        grid = unit_gaussian.grid
        bad = DensityField(
            grid=grid, values=unit_gaussian.values * 2.0, time_stamp=0.0
        )
        with pytest.raises(ValueError):
            kl_divergence(unit_gaussian, bad)
        with pytest.raises(ValueError):
            kl_divergence(bad, unit_gaussian)

    @settings(max_examples=30, deadline=None)
    @given(
        m1=st.floats(-1.5, 1.5),
        m2=st.floats(-1.5, 1.5),
        v1=st.floats(0.3, 2.0),
        v2=st.floats(0.3, 2.0),
    )
    def test_nonnegative_property(self, m1, m2, v1, v2):
        grid = Grid(-14.0, 14.0, 513)
        p = gaussian_density(grid, m1, v1, 0.0)
        q = gaussian_density(grid, m2, v2, 0.0)
        assert kl_divergence(p, q) >= 0.0


def reference_kl_divergence(p, q):
    """kl_divergence as it was before the row-wise core: one pair, the
    masses from DensityField.mass, clamped at zero."""
    return max(reference_kl_row(p, q), 0.0)


def reference_kl_row(p, q):
    """reference_kl_divergence without the clamp: one row of
    kl_divergence_rows."""
    if p.grid != q.grid:
        raise ValueError("density grids differ")
    for f in (p, q):
        if abs(f.mass - 1.0) > 1e-3:
            raise ValueError(f"unnormalized density: mass {f.mass!r}")
    pv = p.values
    qv = q.values + KL_FLOOR
    ratio = np.ones_like(pv)
    np.divide(pv, qv, out=ratio, where=pv > KL_FLOOR)
    integrand = np.where(pv > KL_FLOOR, pv * np.log(ratio), 0.0)
    return float(np.trapezoid(integrand, p.grid.nodes))


def kl_pairs():
    """Density pairs on one grid: shifted, wider, disjoint, identical,
    and with values at and around the 1e-12 floor."""
    grid = Grid(-10.0, 10.0, 513)
    x = grid.nodes
    gauss = [gaussian_density(grid, m, v, 0.0) for m, v in ((0.0, 1.0), (1.3, 0.4), (-2.0, 3.0))]
    left = DensityField.normalized(grid, np.where(x < -1.0, 1.0, 0.0), 0.0)
    right = DensityField.normalized(grid, np.where(x > 1.0, 1.0, 0.0), 0.0)
    floor = np.exp(-0.5 * x**2)
    floor[::7] = KL_FLOOR
    floor[3::11] = 0.5 * KL_FLOOR
    floored = DensityField.normalized(grid, floor, 0.0)
    fields = [*gauss, left, right, floored]
    return [(p, q) for p in fields for q in fields]


class TestKlRowsMatchReference:
    def test_each_pair_bitwise(self):
        for p, q in kl_pairs():
            assert kl_divergence(p, q) == reference_kl_divergence(p, q)

    def test_all_pairs_in_one_pass(self):
        pairs = kl_pairs()
        p = np.stack([a.values for a, _ in pairs])
        q = np.stack([b.values for _, b in pairs])
        got = kl_divergence_rows(p, q, pairs[0][0].grid.nodes)
        assert got == [reference_kl_row(a, b) for a, b in pairs]
        # an identical pair integrates p log(p / (p + 1e-12)) < 0
        assert min(got) < 0.0
        assert all(type(v) is float for v in got)

    def test_rows_are_checked_in_order_p_before_q(self, unit_gaussian):
        good = unit_gaussian.values
        x = unit_gaussian.grid.nodes

        def refusal(p_scale, q_scale):
            p = np.stack([good * p_scale[0], good * p_scale[1]])
            q = np.stack([good * q_scale[0], good * q_scale[1]])
            with pytest.raises(ValueError) as info:
                kl_divergence_rows(p, q, x)
            return str(info.value)

        def message(scale):
            return f"unnormalized density: mass {float(np.trapezoid(good * scale, x))!r}"

        # q's first row comes before p's second, p's first before q's first
        assert refusal((1.0, 3.0), (2.0, 1.0)) == message(2.0)
        assert refusal((3.0, 1.0), (2.0, 1.0)) == message(3.0)


class TestL1:
    def test_identical_is_zero(self, unit_gaussian):
        assert l1_distance(unit_gaussian, unit_gaussian) == 0.0

    def test_disjoint_boxes_give_two(self):
        grid = Grid(0.0, 10.0, 1001)
        left = np.where(grid.nodes < 4.0, 1.0, 0.0)
        right = np.where(grid.nodes > 6.0, 1.0, 0.0)
        p = DensityField.normalized(grid, left, 0.0)
        q = DensityField.normalized(grid, right, 0.0)
        assert l1_distance(p, q) == pytest.approx(2.0, rel=1e-2)


class TestTikhonov:
    def test_small_lambda_identity_limit(self, unit_gaussian):
        errs = []
        for lam in (1e-6, 1e-9, 1e-12):
            smoothed = tikhonov_smooth(unit_gaussian, lam=lam)
            errs.append(np.max(np.abs(smoothed.values - unit_gaussian.values)))
        assert errs[1] < errs[0]
        assert errs[2] <= 1e-9

    def test_rejects_nonpositive_lambda(self, unit_gaussian):
        with pytest.raises(ValueError):
            tikhonov_smooth(unit_gaussian, lam=0.0)

    def test_roughness_contracts(self):
        grid = Grid(-6.0, 6.0, 513)
        samples = _philox(9).standard_normal(200)
        noisy = kde_estimate(samples, grid)
        smoothed = tikhonov_smooth(noisy, lam=1e-6)
        e2 = second_difference_matrix(grid)

        def roughness(f):
            return float(np.sum((e2 @ f.values) ** 2))

        assert roughness(smoothed) < roughness(noisy)

    def test_kl_to_truth_drops_for_undersmoothed_input(self):
        grid = Grid(-6.0, 6.0, 513)
        truth = gaussian_density(grid, 0.0, 1.0, 0.0)
        samples = _philox(9).standard_normal(200)
        # deliberately undersmoothed KDE: wiggly estimate of the truth
        noisy = kde_estimate(samples, grid, bandwidth=0.05)
        smoothed = tikhonov_smooth(noisy, lam=1e-4)
        assert kl_divergence(truth, smoothed) < kl_divergence(truth, noisy)

    @pytest.mark.parametrize(
        "grid", [Grid(-8.0, 8.0, 513), Grid(-6.0, 6.0, 301), Grid(-3.0, 5.0, 100)]
    )
    @pytest.mark.parametrize("lam", [1e-4, 1e-6, 1e-2])
    def test_banded_solve_matches_dense_cholesky(self, grid, lam):
        # rough everywhere, walls included, so every band entry matters
        noisy = DensityField.normalized(
            grid, 1.0 + _philox(8).random(grid.n_points), 0.0
        )
        e = second_difference_matrix(grid)
        system = np.eye(grid.n_points) + lam * (e.T @ e)
        dense = scipy.linalg.cho_solve(scipy.linalg.cho_factor(system), noisy.values)
        want = DensityField.normalized(grid, dense, noisy.time_stamp)
        got = tikhonov_smooth(noisy, lam=lam)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12

    @pytest.mark.parametrize("grid", [Grid(-8.0, 8.0, 513), Grid(-3.0, 5.0, 100)])
    def test_commutes_with_reflection(self, grid):
        # the penalty treats both walls alike, so smoothing a mirrored
        # density gives the mirrored result
        noisy = DensityField.normalized(
            grid, 1.0 + _philox(8).random(grid.n_points), 0.0
        )
        mirrored = DensityField.normalized(grid, noisy.values[::-1], 0.0)
        got = tikhonov_smooth(mirrored, lam=1e-4).values
        want = tikhonov_smooth(noisy, lam=1e-4).values[::-1]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_preserves_mass_and_time(self, unit_gaussian):
        smoothed = tikhonov_smooth(unit_gaussian, lam=1e-4)
        assert smoothed.mass == pytest.approx(1.0, abs=1e-12)
        assert smoothed.time_stamp == unit_gaussian.time_stamp


class TestDensityCsv:
    def test_round_trip_bitwise(self, tmp_path, unit_gaussian):
        path = tmp_path / "f.csv"
        write_density_csv(unit_gaussian, path)
        back = read_density_csv(path, time_stamp=unit_gaussian.time_stamp)
        assert back.grid == unit_gaussian.grid
        assert np.array_equal(back.values, unit_gaussian.values)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,1.0\n")
        with pytest.raises(InputDataError, match="x,f"):
            read_density_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        rows = ["x,f"] + [f"{i * 0.1!r},1.0" for i in range(10)]
        rows[3] = "0.2,not_a_number"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputDataError, match=":4"):
            read_density_csv(path)

    def test_too_few_rows_rejected(self, tmp_path):
        body = "\n".join(f"{i * 0.1!r},1.0" for i in range(5))
        path = tmp_path / "short.csv"
        path.write_text("x,f\n" + body + "\n")
        with pytest.raises(InputDataError, match="fewer than 8"):
            read_density_csv(path)

    def test_non_uniform_axis_rejected(self, tmp_path):
        xs = [0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7]
        body = "\n".join(f"{x!r},1.0" for x in xs)
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n" + body + "\n")
        with pytest.raises(InputDataError, match="uniform"):
            read_density_csv(path)

    def test_negative_value_rejected(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 9)
        body = "\n".join(f"{x!r},{v!r}" for x, v in zip(xs, [1.0] * 8 + [-1.0]))
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n" + body + "\n")
        with pytest.raises(InputDataError):
            read_density_csv(path)


def _density_rows(n=8):
    return [f"{0.25 * i!r},{1.0 + i!r}" for i in range(n)]


_DENSITY_ACCEPTED = [
    ("blank_line", "x,f\n" + "\n".join(_density_rows()[:4] + [""] + _density_rows()[4:]) + "\n"),
    ("crlf", "x,f\r\n" + "\r\n".join(_density_rows()) + "\r\n"),
    (
        "spaces_around_fields",
        " x , f \n" + "\n".join(" " + r.replace(",", " , ") + " " for r in _density_rows()) + "\n",
    ),
    (
        "quoted_numbers",
        '"x","f"\n' + "\n".join('"' + r.replace(",", '","') + '"' for r in _density_rows()) + "\n",
    ),
    ("no_final_newline", "x,f\n" + "\n".join(_density_rows())),
]


def _density_with(row_index, row):
    rows = _density_rows(9)
    rows[row_index] = row
    return "x,f\n" + "\n".join(rows) + "\n"


_DENSITY_REJECTED = [
    ("comment_line", "x,f\n# note\n" + "\n".join(_density_rows()) + "\n", ":2: expected 2 fields"),
    ("nan", _density_with(0, "0.0,nan"), ":2: non-finite value"),
    ("inf_x", _density_with(2, "inf,1.0"), ":4: non-finite value"),
    ("three_fields", _density_with(1, "0.25,2.0,3.0"), ":3: expected 2 fields"),
    ("whitespace_line", _density_with(3, "  "), ":5: expected 2 fields"),
    ("non_numeric", _density_with(4, "1.0,abc"), ":6: could not convert string to float: 'abc'"),
    ("too_few_rows", "x,f\n" + "\n".join(_density_rows(7)) + "\n", ": fewer than 8 rows"),
    ("negative_value", _density_with(5, "1.25,-1.0"), ": density values must be >= 0"),
    (
        "non_uniform",
        _density_with(5, "1.3,2.0"),
        ": x column is not a uniform increasing grid",
    ),
]


class TestDensityCsvEdgeCases:
    @pytest.mark.parametrize(
        "text", [c[1] for c in _DENSITY_ACCEPTED], ids=[c[0] for c in _DENSITY_ACCEPTED]
    )
    def test_accepted(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        f = read_density_csv(path, time_stamp=0.5)
        assert f.grid == Grid(0.0, 1.75, 8)
        assert np.array_equal(f.values, 1.0 + np.arange(8.0))
        assert f.time_stamp == 0.5

    @pytest.mark.parametrize(
        "text,suffix",
        [c[1:] for c in _DENSITY_REJECTED],
        ids=[c[0] for c in _DENSITY_REJECTED],
    )
    def test_rejected_with_exact_message(self, tmp_path, text, suffix):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputDataError) as info:
            read_density_csv(path)
        assert str(info.value) == f"{path}{suffix}"
