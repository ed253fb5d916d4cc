"""Grid construction, kernel values, and the discrete convolution."""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import phaseuq
from oracles import naive_convolution, naive_kernel
from phaseuq import (
    ConfigError,
    DegenerateStencilError,
    Grid,
    KernelParams,
    build_grid,
    build_stencil,
    convolve,
    desk_config,
    kernel_value,
    reference_config,
)
from phaseuq import grid as grid_module
from phaseuq.grid import cached_stencil
from phaseuq.solver import model_stencil

DEFAULTS = KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.25, c_f=1.0)


class TestKernel:
    def test_peak_value_frozen(self):
        # 4 * 0.00178 / (pi * (0.25/3)**4), computed independently
        assert kernel_value(0.0, DEFAULTS) == pytest.approx(46.995373455338445, rel=1e-14)

    def test_interior_value_frozen(self):
        assert kernel_value(0.1, DEFAULTS) == pytest.approx(11.134508501202612, rel=1e-14)

    def test_value_at_cutoff_is_positive(self):
        assert kernel_value(0.25, DEFAULTS) == pytest.approx(0.005799689831103658, rel=1e-12)

    def test_zero_beyond_cutoff(self):
        short = KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.125, c_f=1.0)
        assert kernel_value(0.1250001, short) == 0.0
        assert kernel_value(0.2, short) == 0.0
        assert kernel_value(0.125, short) > 0.0

    def test_truncation_preserves_peak(self):
        short = KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.125, c_f=1.0)
        assert kernel_value(0.0, short) == kernel_value(0.0, DEFAULTS)
        assert kernel_value(0.1, short) == kernel_value(0.1, DEFAULTS)

    def test_monotone_decay(self):
        r = np.linspace(0.0, 0.25, 50)
        vals = kernel_value(r, DEFAULTS)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0)

    def test_matches_naive_scalar(self):
        for r in (0.0, 0.03, 0.12499, 0.125, 0.2, 0.25):
            assert kernel_value(r, DEFAULTS) == pytest.approx(
                naive_kernel(r, 0.00178, 0.25, 0.25), rel=1e-15, abs=0.0
            )

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigError):
            kernel_value(-0.1, DEFAULTS)

    def test_invalid_params_rejected(self, junk_floats):
        with pytest.raises(ConfigError):
            KernelParams(eps2=0.0)
        with pytest.raises(ConfigError):
            KernelParams(delta=0.3, delta_hf=0.25)
        with pytest.raises(ConfigError):
            KernelParams(delta=0.0)
        with pytest.raises(ConfigError):
            KernelParams(c_f=0.0)
        inf = float("inf")
        for kwargs in (
            {"eps2": inf},
            {"delta_hf": inf},
            {"delta_hf": inf, "delta": inf},
            {"delta": inf},
            {"c_f": inf},
        ):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                KernelParams(**kwargs)
        for name in ("eps2", "delta_hf", "delta", "c_f"):
            for bad in junk_floats:
                with pytest.raises(ConfigError, match=name):
                    KernelParams(**{name: bad})


class TestGrid:
    @pytest.mark.parametrize(
        "n,expected_pad",
        [(128, 32), (88, 22), (64, 16), (32, 8), (24, 6), (16, 4), (4, 1)],
    )
    def test_pad_layers(self, n, expected_pad):
        grid = build_grid(n, 0.25)
        assert grid.pad == expected_pad
        assert grid.n_side == n + 1 + 2 * expected_pad

    def test_small_grid_shape(self):
        grid = build_grid(4, 0.25)
        assert grid.n_side == 7
        assert grid.n_solution == 5

    def test_coordinates(self):
        grid = build_grid(4, 0.25)
        coords = grid.coords_1d()
        assert coords[grid.pad] == 0.0
        assert coords[grid.pad + grid.n_interior] == 1.0
        assert coords[0] == pytest.approx(-0.25)
        assert coords[-1] == pytest.approx(1.25)

    def test_solution_mask_count(self):
        grid = build_grid(8, 0.25)
        assert grid.solution_mask().sum() == 9 * 9

    def test_invalid_inputs(self, junk_floats, junk_ints):
        with pytest.raises(ConfigError):
            build_grid(0, 0.25)
        with pytest.raises(ConfigError):
            build_grid(8, 0.0)
        with pytest.raises(ConfigError, match="delta_hf must be positive and finite"):
            build_grid(16, math.inf)
        for bad in junk_ints:
            with pytest.raises(ConfigError, match="n_interior must be an int"):
                build_grid(bad, 0.25)
            with pytest.raises(ConfigError, match="pad must be an int"):
                Grid(n_interior=8, pad=bad)
        for bad in junk_floats:
            with pytest.raises(ConfigError, match="delta_hf"):
                build_grid(16, bad)


class TestStencil:
    def test_center_weight(self):
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, DEFAULTS)
        center = st.patch[st.radius_cells, st.radius_cells]
        assert center == pytest.approx(46.995373455338445 * (1 / 16) ** 2, rel=1e-14)

    def test_disc_point_count(self):
        # Lattice points with |offset| <= 4 cells at h = 1/16, delta = 0.25:
        # a 9x9 patch minus the four 2x2 corners outside the disc.
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, DEFAULTS)
        assert st.radius_cells == 4
        assert np.count_nonzero(st.patch) == 49

    def test_boundary_lattice_point_included(self):
        # offset (4, 0) at h = 1/16 lies exactly on the truncation circle
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, DEFAULTS)
        assert st.patch[st.radius_cells + 4, st.radius_cells] > 0.0
        assert st.patch[st.radius_cells + 4, st.radius_cells + 1] == 0.0

    def test_discrete_mass_approximates_integral(self):
        # High-resolution radial quadrature of the kernel over the disc.
        grid = build_grid(128, 0.25)
        st = build_stencil(grid, DEFAULTS)
        integrand = lambda r: 2 * math.pi * r * naive_kernel(r, 0.00178, 0.25, 0.25)
        integral, _ = quad(integrand, 0.0, 0.25)
        assert st.c_gamma == pytest.approx(integral, rel=5e-4)
        assert st.c_gamma == pytest.approx(1.025150393820277, rel=1e-12)

    def test_xi_positive_at_family_radius(self):
        grid = build_grid(128, 0.25)
        st = build_stencil(grid, DEFAULTS)
        assert st.xi == pytest.approx(0.02515039382027706, abs=1e-12)
        assert 0.0 < st.xi < 0.05

    def test_mass_monotone_in_truncation_radius(self):
        grid = build_grid(32, 0.25)
        masses = []
        for delta in (0.125, 0.1875, 0.25):
            st = build_stencil(grid, KernelParams(delta=delta))
            masses.append(st.c_gamma)
        assert masses[0] < masses[1] < masses[2]

    def test_xi_sign_flips_for_short_truncation(self):
        # Heavy truncation discards enough kernel mass to push c_gamma below c_f.
        grid = build_grid(32, 0.25)
        st = build_stencil(grid, KernelParams(delta=0.125))
        assert st.xi < 0.0

    def test_degenerate_when_delta_below_h(self):
        grid = build_grid(8, 0.25)
        with pytest.raises(DegenerateStencilError):
            build_stencil(grid, KernelParams(delta=0.1))

    def test_pad_too_small_rejected(self):
        grid = Grid(n_interior=16, pad=2)
        with pytest.raises(ConfigError):
            build_stencil(grid, DEFAULTS)


class TestConvolution:
    def test_matches_naive_pairwise_sum(self):
        rng = np.random.default_rng(42)
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, DEFAULTS)
        for _ in range(3):
            padded = rng.uniform(-1.0, 1.0, (grid.n_side, grid.n_side))
            expected = naive_convolution(padded, 8, grid.pad, 0.00178, 0.25, 0.25)
            got = convolve(st, padded)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)

    def test_matches_naive_with_truncation(self):
        rng = np.random.default_rng(7)
        grid = build_grid(8, 0.25)
        params = KernelParams(delta=0.125)
        st = build_stencil(grid, params)
        padded = rng.uniform(-1.0, 1.0, (grid.n_side, grid.n_side))
        expected = naive_convolution(padded, 8, grid.pad, 0.00178, 0.25, 0.125)
        np.testing.assert_allclose(convolve(st, padded), expected, rtol=1e-13, atol=1e-15)

    def test_matches_scipy_signal_on_desk_models(self):
        from scipy import signal

        rng = np.random.default_rng(13)
        config = desk_config()
        for model in config.models:
            kernel = config.kernel_for(model)
            st = build_stencil(build_grid(model.n_interior, kernel.delta_hf), kernel)
            lo, n = st.grid.pad - st.radius_cells, st.grid.n_solution
            for _ in range(3):
                padded = rng.uniform(-1.0, 1.0, (st.grid.n_side, st.grid.n_side))
                full = signal.convolve(padded, st.patch, mode="valid")
                np.testing.assert_array_equal(convolve(st, padded), full[lo : lo + n, lo : lo + n])

    @pytest.mark.parametrize("config, model_id", [(desk_config(), 9), (reference_config(), 1)],
                             ids=["desk-n16", "reference-n128"])
    def test_matches_fftconvolve_bit_for_bit(self, config, model_id):
        # The stored kernel spectrum leaves the arithmetic of a full
        # ``fftconvolve`` unchanged.
        from scipy import signal

        model = config.model(model_id)
        st = model_stencil(model, config.kernel_for(model))
        lo, n = st.grid.pad + st.radius_cells, st.grid.n_solution
        padded = np.random.default_rng(model_id).uniform(-1.0, 1.0, (st.grid.n_side,) * 2)
        full = signal.fftconvolve(padded, st.patch)
        np.testing.assert_array_equal(convolve(st, padded), full[lo : lo + n, lo : lo + n])

    @pytest.mark.parametrize("model_id", range(1, 10))
    def test_fft_product_matches_rfftn_bit_for_bit(self, model_id):
        # ``grid._fft_product`` reaches scipy's private pocketfft transforms;
        # a scipy release that changes them must fail here.
        from scipy.fft import irfftn, rfftn

        config = desk_config()
        model = config.model(model_id)
        st = model_stencil(model, config.kernel_for(model))
        rng = np.random.default_rng(model_id)
        for scale in (1.0, 1e-8, 1e8):
            field = np.zeros(st.fft_shape)
            field[: st.grid.n_side, : st.grid.n_side] = rng.uniform(-scale, scale,
                                                                   (st.grid.n_side,) * 2)
            got = grid_module._fft_product(field, st.spectrum)
            expected = irfftn(rfftn(field, st.fft_shape) * st.spectrum, st.fft_shape)
            assert got.dtype == np.float64 and got.shape == st.fft_shape
            assert np.array_equal(got, expected)

    def test_stencil_arrays_are_read_only(self):
        # Cached stencils are shared, and a changed patch would no longer
        # match its stored spectrum.
        st = cached_stencil(16, 0.00178, 0.25, 0.25, 1.0)
        for array in (st.patch, st.spectrum):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0

    def test_import_leaves_scipy_signal_out(self):
        check = "import sys, phaseuq, phaseuq.cli; sys.exit('scipy.signal' in sys.modules)"
        src = str(Path(phaseuq.__file__).resolve().parents[1])
        assert subprocess.run([sys.executable, "-c", check], cwd=src).returncode == 0

    def test_constant_field_gives_kernel_mass(self):
        grid = build_grid(12, 0.25)
        st = build_stencil(grid, DEFAULTS)
        out = convolve(st, np.ones((grid.n_side, grid.n_side)))
        np.testing.assert_allclose(out, st.c_gamma, rtol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        grid = build_grid(6, 0.25)
        st = build_stencil(grid, DEFAULTS)
        u = rng.normal(size=(grid.n_side, grid.n_side))
        v = rng.normal(size=(grid.n_side, grid.n_side))
        left = convolve(st, 2.0 * u - 3.0 * v)
        right = 2.0 * convolve(st, u) - 3.0 * convolve(st, v)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)

    def test_output_shape(self):
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, DEFAULTS)
        out = convolve(st, np.zeros((grid.n_side, grid.n_side)))
        assert out.shape == (9, 9)

    def test_shape_mismatch_rejected(self):
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, DEFAULTS)
        with pytest.raises(ConfigError):
            convolve(st, np.zeros((5, 5)))
