import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from segloss import (
    DegenerateInputError,
    ValidationError,
    boundary_penalty_map,
    edt,
    edt_bruteforce,
    hausdorff_exact,
    level_set,
    one_hot,
    sentinel_value,
    unsigned_boundary_distance,
)
from segloss import distance
from segloss.distance import _load_min_plus_rows, _min_plus, as_spacing

masks_1d = hnp.arrays(bool, st.integers(1, 24))
masks_2d = hnp.arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10)))


@pytest.fixture(scope="class", params=["compiled", "numpy"])
def min_plus_pass(request):
    """Runs a class's tests on the compiled later-axis pass, then on the
    numpy one by unloading the compiled pass."""
    if request.param == "numpy":
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_min_plus_rows", None)
            yield request.param
    else:
        if distance._min_plus_rows is None:
            pytest.skip("the compiled pass did not load")
        yield request.param


class TestEdtExamples:
    def test_single_source_line(self):
        np.testing.assert_array_equal(edt(np.array([0, 0, 1, 0], bool)), [2, 1, 0, 1])
        np.testing.assert_array_equal(edt(np.array([1, 0, 0, 0], bool)), [0, 1, 2, 3])

    def test_center_source_3x3(self):
        m = np.zeros((3, 3), bool)
        m[1, 1] = True
        d = edt(m)
        r2 = np.sqrt(2.0)
        np.testing.assert_allclose(d, [[r2, 1, r2], [1, 0, 1], [r2, 1, r2]], atol=1e-12)

    def test_pythagorean_triple(self):
        m = np.zeros((4, 5), bool)
        m[0, 0] = True
        assert edt(m)[3, 4] == pytest.approx(5.0, abs=1e-12)

    def test_anisotropic_spacing(self):
        d = edt(np.array([1, 0, 0], bool), spacing=[2.5])
        np.testing.assert_allclose(d, [0.0, 2.5, 5.0])

    def test_empty_source_gives_sentinel(self):
        m = np.zeros((3, 4), bool)
        d = edt(m)
        assert (d == sentinel_value(m.shape, None)).all()
        assert d[0, 0] == 7.0

    def test_all_sources_gives_zero(self):
        np.testing.assert_array_equal(edt(np.ones((2, 3), bool)), 0.0)


class TestEdtAgainstBruteForce:
    @given(masks_2d)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_2d(self, m):
        np.testing.assert_allclose(edt(m), edt_bruteforce(m), atol=1e-9)

    def test_matches_on_random_3d_with_spacing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            shape = tuple(rng.integers(1, 7, size=3))
            m = rng.random(shape) < 0.35
            sp = rng.uniform(0.5, 3.0, size=3)
            np.testing.assert_allclose(
                edt(m, sp), edt_bruteforce(m, sp), atol=1e-9
            )


@pytest.mark.usefixtures("min_plus_pass")
class TestEdtBlockEdges:
    # Shapes that reach the edges of the tiled minimum: tiles of 64 query
    # positions with a ragged last tile (a 100-long axis: 64 + 36; a
    # 600-long axis: 9 x 64 + 24), axes short enough for one tile, a long
    # first-axis scan, and ragged row blocks on both later axes of a 3D grid
    # (630 rows of 70 in blocks of 58; 4900 rows of 9 in blocks of 3236).
    @pytest.mark.parametrize(
        "shape", [(100, 37), (37, 100), (600, 3), (3, 600), (70, 70, 9)]
    )
    @pytest.mark.parametrize("anisotropic", [False, True])
    def test_matches_brute_force(self, shape, anisotropic):
        rng = np.random.default_rng(sum(shape))
        m = np.zeros(shape, bool)
        m.flat[rng.choice(m.size, size=8, replace=False)] = True
        m.flat[0] = True
        sp = rng.uniform(0.5, 3.0, size=m.ndim) if anisotropic else None
        np.testing.assert_allclose(edt(m, sp), edt_bruteforce(m, sp), atol=1e-9)


@pytest.mark.usefixtures("min_plus_pass")
class TestEdtAgainstScipy:
    @pytest.mark.parametrize("shape", [(256, 256), (64, 64, 64)])
    @pytest.mark.parametrize("anisotropic", [False, True])
    def test_matches_scipy(self, shape, anisotropic):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(len(shape))
        m = rng.random(shape) < 0.02
        sp = tuple(rng.uniform(0.5, 3.0, size=m.ndim)) if anisotropic else None
        expected = ndimage.distance_transform_edt(~m, sampling=sp)
        np.testing.assert_allclose(edt(m, sp), expected, atol=1e-9)


def _min_plus_reference(d2, axis, step):
    """The whole-table minimum over every candidate p, the definition itself."""
    moved = np.moveaxis(d2, axis, -1)
    pos = np.arange(moved.shape[-1], dtype=np.float64) * step
    table = moved[..., None, :] + (pos[:, None] - pos) ** 2  # [.., q, p]
    return np.moveaxis(table.min(axis=-1), -1, axis)


@st.composite
def min_plus_inputs(draw):
    """Non-negative rows with inf entries, all-inf rows, rows whose one
    finite entry is at either end, axes of one or several tiles (ragged
    last tile), more rows than one block holds, and anisotropic steps. The
    pass runs along axis 1 of a 2-D array or of a 3-D one with empty slabs."""
    depth = draw(st.sampled_from([0, 1, 3]))  # 0: a 2-D array
    rows = draw(st.integers(1, 40 // max(depth, 1)))
    n = draw(st.integers(1, 260))
    density = draw(st.sampled_from([0.0, 0.005, 0.05, 0.5, 1.0]))
    step = draw(st.sampled_from([1.0, 0.37, 2.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, n, depth) if depth else (rows, n)
    vals = rng.uniform(0.0, n * step, size=shape) ** 2
    d2 = np.where(rng.random(shape) < density, vals, np.inf)
    d2[rng.random(rows) < 0.2] = np.inf
    lone = rng.random(rows) < 0.2
    d2[lone] = np.inf
    d2[lone, draw(st.sampled_from([0, -1]))] = vals[lone, 0]
    if depth:
        d2[:, :, rng.random(depth) < 0.3] = np.inf
    return d2, 1, step


@pytest.mark.usefixtures("min_plus_pass")
class TestMinPlusAxis:
    @given(min_plus_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_table_bit_for_bit(self, args):
        d2, axis, step = args
        got = _min_plus(d2, axis, step)
        assert np.array_equal(got, _min_plus_reference(d2, axis, step))

    def test_keeps_a_candidate_just_inside_the_reach(self):
        # Tile [64, 128) holds 5.0 everywhere, so its outputs are at most 5
        # and its reach is sqrt(5) = 2.24 steps; the source 2 steps to its
        # left gives 4 at q = 64 and must stay in the window.
        d2 = np.full((1, 200), np.inf)
        d2[0, 62] = 0.0
        d2[0, 64:128] = 5.0
        got = _min_plus(d2, 1, 1.0)
        assert got[0, 64] == 4.0
        assert np.array_equal(got, _min_plus_reference(d2, 1, 1.0))


@pytest.mark.usefixtures("min_plus_pass")
class TestEdtLongThinAxes:
    # A long later axis with few rows, so one row per block. Sparse sources
    # leave whole tiles without a finite entry; on the 20000-long axis (six
    # sources) some tiles reach past 4096 candidates, which a block takes
    # in chunks.
    @pytest.mark.parametrize("shape, density", [((2, 20000), 0.0002), ((3, 5000), 0.001)])
    @pytest.mark.parametrize("anisotropic", [False, True])
    def test_matches_scipy(self, shape, density, anisotropic):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(shape[1])
        m = rng.random(shape) < density
        m[0, shape[1] // 3] = True
        sp = (0.7, 1.9) if anisotropic else None
        expected = ndimage.distance_transform_edt(~m, sampling=sp)
        np.testing.assert_allclose(edt(m, sp), expected, atol=1e-9)


class TestCompiledPassBuild:
    SOURCE = Path(distance.__file__).with_name("_minplus.c")

    def test_builds_once_then_only_loads(self, tmp_path, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        assert _load_min_plus_rows(self.SOURCE, tmp_path) is not None
        built = list(tmp_path.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"

        def no_subprocess(*args, **kwargs):
            raise AssertionError("a cached library was compiled again")

        monkeypatch.setattr(subprocess, "run", no_subprocess)
        assert _load_min_plus_rows(self.SOURCE, tmp_path) is not None
        assert list(tmp_path.iterdir()) == built

    def test_no_compiler_or_a_failed_build_falls_back_to_numpy(self, tmp_path, monkeypatch):
        broken = tmp_path / "_minplus.c"
        broken.write_text("this is not C\n")
        assert _load_min_plus_rows(broken, tmp_path / "cache") is None
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc on it
        assert _load_min_plus_rows(self.SOURCE, tmp_path / "cache") is None
        assert not any(p.suffix == ".so" for p in (tmp_path / "cache").iterdir())

        m = np.random.default_rng(4).random((40, 70)) < 0.05
        sp = (0.7, 1.9)
        expected = edt(m, sp)
        monkeypatch.setattr(distance, "_min_plus_rows", None)
        assert np.array_equal(edt(m, sp), expected)

    def test_compiled_pass_is_in_use_where_cc_exists(self):
        # Otherwise every test parametrized over both passes would run the
        # numpy pass twice without notice.
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        assert distance._min_plus_rows is not None


class TestAsSpacing:
    @pytest.mark.parametrize(
        "spacing",
        [[[1, 1]], "ab", [[1], [1, 2]], [1, None], [True, True], [1, True],
         [np.bool_(True), 1.0], np.array([True, False]), [10**400, 1]],
    )
    def test_malformed_spacing_is_a_validation_error(self, spacing):
        with pytest.raises(ValidationError, match="spacing must be a non-empty list of numbers"):
            as_spacing(spacing, 2)

    def test_edt_rejects_a_bool_spacing_entry(self):
        with pytest.raises(ValidationError):
            edt(np.array([[0, 1], [0, 0]], bool), [1, True])

    def test_accepts_scalars_and_flat_sequences(self):
        assert as_spacing(2, 1) == (2.0,)
        assert as_spacing((1, 2.5), 2) == (1.0, 2.5)
        assert as_spacing(np.array([0.5, 3.0]), 2) == (0.5, 3.0)


class TestEdtInvariants:
    @given(masks_1d)
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_between_neighbors(self, m):
        d = edt(m)
        if m.any() and m.size > 1:
            assert np.abs(np.diff(d)).max() <= 1.0 + 1e-12

    @given(masks_2d)
    @settings(max_examples=40, deadline=None)
    def test_zero_exactly_on_sources(self, m):
        if not m.any():
            return
        d = edt(m)
        assert (d[m] == 0.0).all()
        assert (d[~m] > 0.0).all()


class TestLevelSet:
    def test_sign_convention(self):
        phi = level_set(np.array([0, 0, 1, 1, 0], bool))
        np.testing.assert_array_equal(phi, [2, 1, -1, -1, 1])

    @given(masks_1d)
    @settings(max_examples=60, deadline=None)
    def test_complement_antisymmetry(self, m):
        if not m.any() or m.all():
            return
        np.testing.assert_allclose(level_set(m), -level_set(~m), atol=1e-12)

    def test_degenerate_masks_get_sentinel(self):
        empty = np.zeros(4, bool)
        snt = sentinel_value((4,), None)
        np.testing.assert_array_equal(level_set(empty), snt)
        np.testing.assert_array_equal(level_set(~empty), -snt)


class TestUnsignedBoundaryDistance:
    def test_checkerboard_is_all_ones(self):
        m = np.indices((2, 2)).sum(0) % 2 == 0
        np.testing.assert_array_equal(unsigned_boundary_distance(m), 1.0)

    @pytest.mark.parametrize(
        "shape, spacing",
        [((9,), None), ((6, 7), None), ((6, 7), (0.7, 1.9)), ((4, 5, 3), (1.0, 0.5, 2.5))],
    )
    @pytest.mark.parametrize("fill", [None, True, False])  # random, all inside, all outside
    def test_matches_level_set_magnitude(self, shape, spacing, fill):
        if fill is None:
            m = np.random.default_rng(5).random(shape) < 0.4
            assert m.any() and not m.all()
        else:
            m = np.full(shape, fill)
        np.testing.assert_array_equal(
            unsigned_boundary_distance(m, spacing), np.abs(level_set(m, spacing))
        )

    def test_degenerate_gives_sentinel(self):
        d = unsigned_boundary_distance(np.ones((2, 2), bool))
        assert (d == sentinel_value((2, 2), None)).all()


class TestBoundaryPenaltyMap:
    def test_values_in_unit_interval_with_distant_pixels_low(self):
        g = one_hot(np.array([0, 0, 0, 0, 1, 0, 0, 0, 0]), 2)
        pen = boundary_penalty_map(g)
        assert pen.shape == g.shape
        assert (pen >= 0).all() and (pen <= 1).all()
        # the farthest pixel from each class boundary carries zero penalty
        assert pen[..., 1].min() == 0.0

    def test_degenerate_class_is_zeroed(self):
        g = one_hot(np.zeros(5, dtype=int), 2)
        pen = boundary_penalty_map(g)
        np.testing.assert_array_equal(pen, 0.0)

    @given(masks_1d, st.floats(0.25, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_spacing_scale_invariance(self, m, scale):
        if not m.any() or m.all():
            return
        g = np.stack([(~m).astype(float), m.astype(float)], axis=-1)
        base = boundary_penalty_map(g, spacing=[1.0])
        scaled = boundary_penalty_map(g, spacing=[scale])
        np.testing.assert_allclose(base, scaled, atol=1e-12)


class TestHausdorffExact:
    def test_known_value(self):
        g = np.array([0, 0, 1, 1, 0], bool)
        s = np.array([0, 0, 1, 1, 1], bool)
        assert hausdorff_exact(g, s) == pytest.approx(1.0)

    def test_identical_masks_zero(self):
        m = np.array([1, 0, 1], bool)
        assert hausdorff_exact(m, m) == 0.0

    @given(masks_1d, masks_1d.map(np.copy))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, a, b):
        if a.shape != b.shape or not a.any() or not b.any():
            return
        assert hausdorff_exact(a, b) == hausdorff_exact(b, a)

    def test_rejects_and_names_empty_side(self):
        full = np.ones(3, bool)
        empty = np.zeros(3, bool)
        with pytest.raises(DegenerateInputError, match="first"):
            hausdorff_exact(empty, full)
        with pytest.raises(DegenerateInputError, match="second"):
            hausdorff_exact(full, empty)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            hausdorff_exact(np.ones(3, bool), np.ones(4, bool))


class TestSentinel:
    def test_value_is_extent_sum(self):
        assert sentinel_value((3, 4), None) == 7.0
        assert sentinel_value((3, 4), [2.0, 0.5]) == 8.0

    def test_dominates_any_distance(self):
        rng = np.random.default_rng(9)
        m = rng.random((5, 6)) < 0.5
        if m.any():
            assert edt(m).max() < sentinel_value(m.shape, None)
