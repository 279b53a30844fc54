"""Tests for the SOR application."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.sor import SORApp, SORParams
from repro.apps.sor import grid as gridmod
from repro.harness import run_app
from repro.sim import engine
from repro.sim._build import compiler_available

from .test_engine_tiers import _SRC, _copy_package

#: both implementations of ``sweep_phase`` by name, whichever of them the
#: loaded engine tier bound: a host with a compiler never *runs* the
#: numpy reference otherwise, and ``REPRO_ENGINE=python`` never the C one.
KERNELS = {"reference": gridmod.sweep_phase_reference}
if compiler_available():
    from repro.sim import _cengine

    KERNELS["compiled"] = _cengine.sweep_phase

needs_cc = pytest.mark.skipif("compiled" not in KERNELS,
                              reason="no C compiler: no compiled kernel")


# ----------------------------------------------------------------- domain


def test_sweep_phase_is_the_loaded_tiers_kernel():
    compiled = engine.ENGINE_TIER == "compiled"
    assert engine.sweep_phase is (KERNELS["compiled"] if compiled else None)
    assert gridmod.sweep_phase is KERNELS["compiled" if compiled
                                          else "reference"]


def spec_sweep(padded, parity, omega, row0):
    """The definition: a per-cell float32 red/black half-sweep."""
    f32 = np.float32
    keep, scale = f32(1.0) - f32(omega), f32(omega) * f32(0.25)
    maxdiff = 0.0
    for i in range(1, padded.shape[0] - 1):
        for j in range(1, padded.shape[1] - 1):
            if (row0 + i - 1 + j) % 2 != parity:
                continue
            x = padded[i, j]
            nb = ((padded[i - 1, j] + padded[i + 1, j])
                  + padded[i, j - 1]) + padded[i, j + 1]
            upd = keep * x + scale * nb
            maxdiff = max(maxdiff, float(abs(upd - x)))
            padded[i, j] = upd
    return maxdiff


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 9), cols=st.integers(2, 9),
       row0=st.integers(0, 3), omega=st.floats(0.5, 1.95),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_phase_matches_per_cell_definition(rows, cols, row0, omega,
                                                 seed):
    rng = np.random.default_rng(seed)
    start = rng.random((rows + 2, cols)).astype(np.float32)
    for name, kernel in KERNELS.items():
        got, want = start.copy(), start.copy()
        for _ in range(3):
            for parity in (0, 1):
                d_got = kernel(got, parity, omega, row0)
                d_want = spec_sweep(want, parity, omega, row0)
                assert d_got == d_want, name
                np.testing.assert_array_equal(got, want, err_msg=name)
        # Ghost rows and the fixed first/last columns are never written.
        np.testing.assert_array_equal(got[[0, -1]], start[[0, -1]], name)
        np.testing.assert_array_equal(got[:, [0, -1]], start[:, [0, -1]],
                                      name)


@pytest.mark.parametrize("shape", [(3, 1), (3, 2), (0, 6), (-1, 6), (2, 0)])
def test_sweep_without_interior_updates_nothing(shape):
    padded = np.ones((shape[0] + 2, shape[1]), dtype=np.float32)
    padded[:1] = 5.0
    before = padded.copy()
    for name, kernel in KERNELS.items():
        for parity in (0, 1):
            got = kernel(padded, parity, 1.5, 0)
            assert type(got) is float and got == 0.0, name
        np.testing.assert_array_equal(padded, before, err_msg=name)


def test_single_row_single_column_has_one_colour():
    for name, kernel in KERNELS.items():
        # One interior cell at global (row 2, column 1): odd, so black.
        padded = np.zeros((3, 3), dtype=np.float32)
        padded[0] = 1.0
        assert kernel(padded, 0, 1.5, 2) == 0.0, name
        assert padded[1, 1] == 0.0, name
        assert kernel(padded, 1, 1.5, 2) == 0.375, name
        assert padded[1, 1] == np.float32(0.375), name


@needs_cc
@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(2, 49),
       parity=st.integers(0, 1), row0=st.integers(-2 ** 40, 2 ** 40),
       omega=st.floats(0, 2, exclude_min=True, exclude_max=True),
       wild=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
@example(rows=58, cols=900, parity=0, row0=58, omega=1.5, wild=0.25, seed=0)
@example(rows=58, cols=900, parity=1, row0=58, omega=1.5, wild=0.25, seed=1)
def test_compiled_kernel_equals_reference_bit_for_bit(rows, cols, parity,
                                                      row0, omega, wild,
                                                      seed):
    """Buffer bytes and the returned float, not values within a
    tolerance: ``tools/golden.py`` and ``expected.json`` hash them.

    A ``wild`` share of the cells holds arbitrary float32 bit patterns —
    denormals, both zeros, infinities, magnitudes whose neighbour sums
    overflow and then meet as ``inf - inf`` — among ordinary values.
    Only NaN *inputs* are left out: which operand's payload a NaN + NaN
    keeps is numpy's vector loop's business.

    The compiled kernel updates up to eight cells of one colour per
    vector step, so up to 49 columns every row tail of either colour
    offset (none to seven cells) also follows two or more full steps.
    The two examples are one node's block of the paper's grid (58 rows
    of 900 columns, ``SORParams.paper()``'s omega), from either colour.
    """
    rng = np.random.default_rng(seed)
    shape = (rows + 2, cols)
    bits = rng.integers(0, 2 ** 32, size=shape, dtype=np.uint32)
    start = np.where(rng.random(shape) < wild, bits.view(np.float32),
                     rng.random(shape, dtype=np.float32) * 2 - 1)
    start[np.isnan(start)] = -0.0
    ref, got = start.copy(), start.copy()
    with np.errstate(all="ignore"):
        for par in (parity, 1 - parity, parity):
            d_ref = gridmod.sweep_phase_reference(ref, par, omega, row0)
            d_got = KERNELS["compiled"](got, par, omega, row0)
            assert type(d_got) is float and d_got.hex() == d_ref.hex()
            assert got.tobytes() == ref.tobytes()


# Builds the extension of the package on PYTHONPATH with _build's flags
# plus argv, then runs its ``sweep_phase`` over a seeded corpus: every
# row width up to 49 and three around the paper's 900, both starting
# colours, wild bit patterns and explicit infinities (no NaN inputs, as
# in the property above).  Prints one digest of every buffer and every
# return.  ``--reference`` runs the numpy kernel instead and builds nothing.
_CORPUS_SCRIPT = """
import hashlib, sys
import numpy as np
from repro.sim import _build

if sys.argv[1:] == ["--reference"]:
    from repro.apps.sor.grid import sweep_phase_reference as sweep
else:
    _build._CFLAGS += tuple(sys.argv[1:])
    sweep = _build.load_ccore().sweep_phase
digest = hashlib.sha256()
rng = np.random.default_rng(41)
for cols in [*range(2, 50), 899, 900, 901]:
    for parity in (0, 1):
        shape = (int(rng.integers(3, 9)), cols)
        bits = rng.integers(0, 2 ** 32, size=shape, dtype=np.uint32)
        cell = rng.random(shape)
        block = np.where(cell < 0.2, bits.view(np.float32),
                         rng.random(shape, dtype=np.float32) * 2 - 1)
        block[np.isnan(block)] = -0.0
        block[cell > 0.95] = np.inf
        block[(cell > 0.9) & (cell <= 0.95)] = -np.inf
        with np.errstate(all="ignore"):
            for par in (parity, 1 - parity) * 2:
                digest.update(sweep(block, par, 1.7, cols).hex().encode())
        digest.update(block.tobytes())
print(digest.hexdigest())
"""


def _corpus_digest(src, *flags):
    env = dict(os.environ, REPRO_ENGINE="python")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _CORPUS_SCRIPT, *flags],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.fixture(scope="module")
def default_build_digest():
    return _corpus_digest(_SRC)


#: the compile-time switches of the kernel's loops, each the build of a
#: host that lacks the instructions: without AVX2 the SSE2 loop runs, and
#: without SSE2 the scalar loop is the whole kernel.
KERNEL_BUILDS = {"default": (), "no-avx2": ("-DCCORE_NO_AVX2",),
                 "no-sse2": ("-U__SSE2__",)}


@needs_cc
@pytest.mark.parametrize("build", KERNEL_BUILDS)
def test_each_kernel_build_equals_the_default_build(build, tmp_path,
                                                    default_build_digest):
    """``_ccore.c`` built as a host without AVX2 or without SSE2 builds
    it equals the default build byte for byte, and the default build
    equals the numpy reference on the same corpus.  The other builds
    compile in a private copy of the package, so the extension the rest
    of the suite runs on stays put."""
    if build == "default":
        got = _corpus_digest(_SRC, "--reference")
    else:
        _copy_package(tmp_path / "repro")
        got = _corpus_digest(str(tmp_path), *KERNEL_BUILDS[build])
    assert got == default_build_digest


@needs_cc
@pytest.mark.parametrize("bad", [
    np.zeros((4, 6)),                                  # float64
    np.zeros((4, 6), dtype=np.int32),                  # 4 bytes, not "f"
    np.zeros((4, 6), dtype=np.float32).astype(">f4"),  # foreign byte order
    np.zeros((4, 12), dtype=np.float32)[:, ::2],       # not contiguous
    np.zeros((6, 4), dtype=np.float32).T,              # Fortran order
    np.zeros(24, dtype=np.float32),                    # 1-D
    np.zeros((2, 3, 4), dtype=np.float32),             # 3-D
    [[0.0] * 6] * 4,                                   # no buffer at all
], ids=["float64", "int32", "big-endian", "strided", "fortran", "1-d",
        "3-d", "list"])
def test_compiled_kernel_takes_only_a_float32_c_buffer(bad):
    """A ``TypeError``, never a per-call fallback to numpy."""
    with pytest.raises(TypeError, match="float32"):
        KERNELS["compiled"](bad, 0, 1.5, 0)


@needs_cc
def test_compiled_kernel_refuses_a_read_only_buffer_untouched():
    padded = np.random.default_rng(0).random((5, 7)).astype(np.float32)
    before = padded.copy()
    padded.flags.writeable = False
    with pytest.raises(TypeError, match="writable"):
        KERNELS["compiled"](padded, 0, 1.5, 0)
    np.testing.assert_array_equal(padded, before)


def test_padded_block_holds_the_boundary_rows():
    params = SORParams.small()
    top = gridmod.padded_block(params, 0, 5)
    assert top.shape == (7, params.n_cols) and top.dtype == np.float32
    assert (top[0] == 1).all() and (top[1:] == 0).all()
    assert (gridmod.padded_block(params, 5, 9) == 0).all()


def test_sequential_reference_converges_toward_gradient():
    params = SORParams.small(n_rows=16, n_cols=12).with_(n_iterations=400)
    g, _ = gridmod.sequential_reference(params)
    assert g.shape == (16, 12)
    assert (g[:, 0] == 0).all() and (g[:, -1] == 0).all()
    interior = g[:, 1:-1]
    # Top rows (next to the hot boundary) are warmer than bottom rows.
    assert interior[0].mean() > interior[-1].mean()
    assert interior.max() <= 1.0 + 1e-5


def test_precision_mode_stops_early():
    params = SORParams.small(n_rows=12, n_cols=10,
                             precision=1e-3).with_(n_iterations=500)
    _, iters = gridmod.sequential_reference(params)
    assert iters < 500


def test_maxdiff_decreases():
    params = SORParams.small(n_rows=16, n_cols=12)
    padded = gridmod.padded_block(params, 0, params.n_rows)
    diffs = []
    for it in range(30):
        d = max(gridmod.sweep_phase(padded, par, params.omega, 0)
                for par in (0, 1))
        diffs.append(d)
    assert diffs[-1] < diffs[0]


# ------------------------------------------------------------ application


@pytest.mark.parametrize("variant", ["original", "splitphase"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (4, 2)])
def test_sor_bitexact_vs_sequential(variant, shape):
    params = SORParams.small(n_rows=24, n_cols=16).with_(n_iterations=20)
    ref, _ = gridmod.sequential_reference(params)
    res = run_app(SORApp(), variant, shape[0], shape[1], params)
    np.testing.assert_array_equal(res.answer["grid"], ref)


def test_sor_chaotic_single_cluster_is_exact():
    # Within one cluster nothing is dropped, so chaotic == original.
    params = SORParams.small(n_rows=24, n_cols=16).with_(n_iterations=20)
    ref, _ = gridmod.sequential_reference(params)
    res = run_app(SORApp(), "optimized", 1, 4, params)
    np.testing.assert_array_equal(res.answer["grid"], ref)


def test_sor_chaotic_converges_with_modest_iteration_penalty():
    """Paper: dropping 2/3 intercluster exchanges costs 5-10% iterations."""
    params = SORParams.small(n_rows=64, n_cols=24,
                             precision=5e-4).with_(n_iterations=800)
    full = run_app(SORApp(), "original", 4, 4, params)
    chaotic = run_app(SORApp(), "optimized", 4, 4, params)
    it_full = full.answer["iterations"]
    it_chaotic = chaotic.answer["iterations"]
    assert it_chaotic >= it_full
    assert it_chaotic <= 1.35 * it_full
    # And the solutions agree closely.
    np.testing.assert_allclose(chaotic.answer["grid"], full.answer["grid"],
                               atol=5e-3)


def test_sor_chaotic_reduces_intercluster_traffic():
    params = SORParams.small(n_rows=64, n_cols=24).with_(n_iterations=30)
    full = run_app(SORApp(), "original", 4, 4, params)
    chaotic = run_app(SORApp(), "optimized", 4, 4, params)
    fb = full.traffic["inter.rpc"]["bytes"]
    cb = chaotic.traffic["inter.rpc"]["bytes"]
    assert cb < 0.5 * fb


def test_sor_chaotic_faster_on_four_clusters():
    params = SORParams.paper().with_(n_rows=240, n_cols=120, n_iterations=30)
    full = run_app(SORApp(), "original", 4, 4, params)
    chaotic = run_app(SORApp(), "optimized", 4, 4, params)
    assert chaotic.elapsed < full.elapsed


def test_sor_splitphase_faster_than_blocking_on_wan():
    params = SORParams.paper().with_(n_rows=240, n_cols=120, n_iterations=30)
    orig = run_app(SORApp(), "original", 4, 4, params)
    split = run_app(SORApp(), "splitphase", 4, 4, params)
    assert split.elapsed < orig.elapsed


def test_sor_too_many_processors_rejected():
    params = SORParams.small(n_rows=4, n_cols=8)
    with pytest.raises(ValueError, match="one row per processor"):
        run_app(SORApp(), "original", 2, 3, params)
