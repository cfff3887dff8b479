"""Tests for the compiled kernel backends and the per-host auto-tuner.

The load-bearing property is the *bit-exactness spine*: a compiled kernel
may only replace the NumPy reference when its output is bit-for-bit
identical — on synthetic probes, on every step's real filters, and on
whole zoo networks across thread counts and batch sizes.  A host without
a toolchain (simulated via ``REPRO_NO_CC`` + an empty build cache) must
degrade to the NumPy path with unchanged results, never to an error.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core import backends, binary_conv, bitpack
from repro.core import plan as plan_mod
from repro.core.backends import tuner
from repro.core.engine import PhoneBitEngine
from repro.core.plan import default_num_threads, positive_int
from repro.models.zoo import SERVING_MODELS, build_phonebit_network, get_serving_config

#: Reduced input resolutions so the paper-scale networks stay test-sized
#: (same idiom as tests/test_plan.py).
_TEST_SIZES = {"VGG16": 32, "AlexNet": 67, "YOLOv2 Tiny": 32}

_NETWORK_CACHE = {}


def zoo_network(name):
    """Build (once) a reduced-size network for a serving-zoo entry."""
    if name not in _NETWORK_CACHE:
        config = get_serving_config(name)
        size = _TEST_SIZES.get(config.name)
        if size is not None:
            config = dataclasses.replace(config, input_shape=(size, size, 3))
        _NETWORK_CACHE[name] = build_phonebit_network(config, rng=7)
    return _NETWORK_CACHE[name]


def compiled_impl():
    """The auto-resolved compiled backend, or skip when none builds here."""
    name, impl = backends.resolve_backend("auto")
    if impl is None:
        pytest.skip("no compiled backend available on this host")
    return name, impl


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate a host with no C compiler and no prebuilt kernel cache."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    monkeypatch.setenv("REPRO_BACKEND_CACHE", str(tmp_path / "empty-cache"))
    backends._reset_for_tests()
    yield
    backends._reset_for_tests()


def _random_words(rng, shape, word_size):
    dtype = bitpack.word_dtype(word_size)
    return rng.integers(0, 2 ** word_size, size=shape, dtype=dtype)


class TestKernelBitExactness:
    """Per-kernel probes of the compiled backend against the NumPy reference."""

    @pytest.mark.parametrize("word_size", [8, 16, 32, 64])
    @pytest.mark.parametrize("cols", [1, 7, 64, 130])
    def test_fused_threshold_kernel(self, word_size, cols, rng):
        _, impl = compiled_impl()
        n_words = 5
        rows = 23
        a = _random_words(rng, (rows, n_words), word_size)
        b = _random_words(rng, (cols, n_words), word_size)
        length = n_words * word_size
        thresh = rng.integers(0, length, size=cols).astype(np.int32)
        flip = rng.integers(0, 2, size=cols).astype(bool)
        wc = bitpack.words_per_channel(cols, word_size)
        out_np = np.zeros((rows, wc), dtype=bitpack.word_dtype(word_size))
        out_c = np.zeros_like(out_np)
        # Split across row ranges so the tiling offsets are exercised.
        for r0, r1 in ((0, 9), (9, rows)):
            bitpack.fused_xor_threshold_rows(
                a, b, thresh, flip, out_np, r0, r1, word_size
            )
            impl.fused_xor_threshold_rows(
                a, b, thresh, flip, out_c, r0, r1, word_size
            )
        np.testing.assert_array_equal(out_np, out_c)

    @pytest.mark.parametrize("word_size", [8, 32, 64])
    def test_xor_popcount_gemm(self, word_size, rng):
        _, impl = compiled_impl()
        a = _random_words(rng, (17, 9), word_size)
        b = _random_words(rng, (12, 9), word_size)
        expected = bitpack.xor_popcount_gemm(a, b)
        got = np.empty_like(expected)
        impl.xor_popcount_gemm_rows(a, b, got, 0, 10)
        impl.xor_popcount_gemm_rows(a, b, got, 10, a.shape[0])
        np.testing.assert_array_equal(expected, got)

    @pytest.mark.parametrize("word_size", [8, 32, 64])
    @pytest.mark.parametrize("geometry", [
        (3, 1, 1), (3, 2, 1), (5, 2, 2), (2, 2, 0), (3, 1, 0),
    ])
    def test_packed_patch_extraction(self, word_size, geometry, rng):
        _, impl = compiled_impl()
        k, stride, padding = geometry
        packed = _random_words(rng, (2, 9, 7, 3), word_size)
        expected, oh, ow = binary_conv.packed_patch_matrix(
            packed, k, stride, padding
        )
        expected = np.ascontiguousarray(expected)
        got = np.empty_like(expected)
        impl.packed_patch_rows(packed, k, stride, padding, oh, ow,
                               got, 0, got.shape[0])
        np.testing.assert_array_equal(expected, got)


class TestZooBitExactness:
    """Whole-network equality: compiled selection vs the NumPy plan."""

    @pytest.mark.parametrize("model", sorted(SERVING_MODELS))
    @pytest.mark.parametrize("threads", [1, 4])
    def test_compiled_matches_numpy(self, model, threads, rng):
        name, _ = compiled_impl()
        network = zoo_network(model)
        plan = plan_mod.get_plan(network)
        for batch_size in (1, 17, 64):
            images = rng.integers(
                0, 256, size=(batch_size,) + tuple(network.input_shape)
            ).astype(np.uint8)
            plan.select_backend("numpy")
            reference = plan.execute(images, threads=threads).data.copy()
            report = plan.select_backend(name)
            assert any(value == name for value in report.values()), (
                f"{model}: no step adopted the {name} backend"
            )
            compiled = plan.execute(images, threads=threads).data
            np.testing.assert_array_equal(
                reference, compiled,
                err_msg=f"{model} batch={batch_size} threads={threads}",
            )

    def test_selection_report_shape(self):
        name, _ = compiled_impl()
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        report = plan.select_backend(name)
        assert plan.backend_report()["backend"] == name
        assert set(report.values()) <= {"numpy", name}
        for step, value in zip(plan.steps, report.values()):
            if not getattr(step, "compilable", False):
                # Fallback layers (and a float64-GEMM input conv) never
                # adopt compiled kernels.
                assert value == "numpy"
        # The float32 exact-GEMM input conv has a compiled kernel now.
        assert "float32" in plan.steps[0].describe
        assert plan.steps[0].compilable

    def test_selection_is_idempotent_and_switchable(self):
        name, impl = compiled_impl()
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        first = plan.select_backend(name)
        second = plan.select_backend(name)
        assert first == second
        assert any(
            getattr(step, "compiled", None) is impl for step in plan.steps
        )
        plan.select_backend("numpy")
        assert all(
            getattr(step, "compiled", None) is None for step in plan.steps
        )


class TestFallback:
    def test_explicit_compiled_backend_raises(self, no_toolchain):
        with pytest.raises(backends.BackendUnavailable):
            backends.resolve_backend("cffi")

    def test_auto_degrades_to_numpy_with_unchanged_results(
        self, no_toolchain, tiny_bnn_network, tiny_images
    ):
        plan = plan_mod.get_plan(tiny_bnn_network)
        report = plan.select_backend("auto")
        assert plan.backend_spec == "numpy"
        assert set(report.values()) == {"numpy"}
        out = plan.execute(tiny_images, threads=1)
        expected = tiny_bnn_network.forward(tiny_images)
        np.testing.assert_array_equal(out.data, expected.data)

    def test_availability_reports_reasons(self, no_toolchain):
        report = backends.availability()
        assert report["numpy"] is None
        assert isinstance(report["cffi"], str)  # a reason, not usable

    def test_engine_runs_with_masked_toolchain(self, no_toolchain,
                                               tiny_bnn_network, tiny_images):
        engine = PhoneBitEngine(num_threads=1)
        result = engine.run_batch(tiny_bnn_network, tiny_images,
                                  collect_estimate=False)
        np.testing.assert_array_equal(
            result.output.data, tiny_bnn_network.forward(tiny_images).data
        )
        assert engine.backend_report(tiny_bnn_network)["backend"] == "numpy"

    def test_mismatching_kernel_is_rejected_per_step(self):
        name, impl = compiled_impl()

        class Broken:
            """Wraps the real backend but corrupts the fused kernel."""

            name = "broken"

            def __init__(self, inner):
                self._inner = inner
                self.packed_patch_rows = inner.packed_patch_rows

            # Each kernel flips a bit: the probe must catch every one.
            def fused_xor_threshold_rows(self, a, b, thresh, flip, out,
                                         r0, r1, word_size, col_tile=None):
                self._inner.fused_xor_threshold_rows(
                    a, b, thresh, flip, out, r0, r1, word_size
                )
                out[r0:r1] ^= 1

            def xor_popcount_gemm_rows(self, a, b, out, r0, r1):
                self._inner.xor_popcount_gemm_rows(a, b, out, r0, r1)
                out[r0:r1] ^= 1

            def threshold_pack_rows(self, x1, thresh, flip, out, r0, r1,
                                    word_size):
                self._inner.threshold_pack_rows(x1, thresh, flip, out, r0, r1,
                                                word_size)
                out[r0:r1] ^= 1

        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        eligible = [step for step in plan.steps
                    if getattr(step, "compilable", False)]
        # The input conv and the float head are eligible too.
        assert any(step.is_input_conv for step in eligible)
        assert any(step.float_out for step in eligible)
        for step in eligible:
            assert backends.verify_fused_step(impl, step)
            assert not backends.verify_fused_step(Broken(impl), step)
        report = plan.select_backend(name)
        assert sum(value == name for value in report.values()) == len(eligible)
        plan.select_backend("numpy")  # leave the shared plan clean


class TestTuner:
    def test_batch_bucket(self):
        assert tuner.batch_bucket(1) == 1
        assert tuner.batch_bucket(2) == 2
        assert tuner.batch_bucket(3) == 4
        assert tuner.batch_bucket(17) == 32
        assert tuner.batch_bucket(10_000) == 256
        with pytest.raises(ValueError):
            tuner.batch_bucket(0)

    def test_cache_round_trip_same_selection(self, tmp_path):
        network = zoo_network("MicroCNN")
        cache = tuner.TuningCache(str(tmp_path))
        config = tuner.tune_network(network, 8, repeats=1, cache=cache)
        digest = tuner.network_digest(network)
        # A fresh instance must reload the persisted record identically.
        reloaded = tuner.TuningCache(str(tmp_path)).lookup(digest, 8)
        assert reloaded == config
        # Every size in the bucket resolves to the same record.
        assert tuner.TuningCache(str(tmp_path)).lookup(digest, 5) == config
        assert tuner.TuningCache(str(tmp_path)).lookup(digest, 100) is None
        plan_mod.get_plan(network).select_backend("numpy")

    def test_corrupt_record_degrades_to_none(self, tmp_path):
        cache = tuner.TuningCache(str(tmp_path))
        digest = "a" * 64
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache._path(digest), "w") as fh:
            fh.write("{ not json")
        assert cache.lookup(digest, 4) is None
        with open(cache._path(digest), "w") as fh:
            json.dump({"version": tuner._SCHEMA_VERSION, "entries": {
                cache._key(4): {"backend": "cffi", "threads": -3,
                                "row_tile": 512, "mean_ms": 1.0},
            }}, fh)
        assert tuner.TuningCache(str(tmp_path)).lookup(digest, 4) is None

    def test_tuned_threads_precedence(self, monkeypatch):
        tuned = tuner.TunedConfig(backend="numpy", threads=3, row_tile=256,
                                  col_tile=None, chunk_bytes=None, mean_ms=1.0)
        engine = PhoneBitEngine()
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert engine._resolve_execution(tuned) == (3, 256, None)
        # The environment override beats the tuned record ...
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        assert engine._resolve_execution(tuned)[0] is None
        assert default_num_threads() == 2
        # ... and an explicit engine setting beats both.
        explicit = PhoneBitEngine(num_threads=5)
        assert explicit._resolve_execution(tuned)[0] == 5

    def test_thread_candidates_seeding(self):
        from repro.gpusim.cost_model import thread_candidates

        wide_first = thread_candidates(None, cpu_count=8)
        assert set(wide_first) == {1, 2, 4, 8}
        assert wide_first[0] == 8  # compute-bound default: wide first
        cost = PhoneBitEngine().estimate(zoo_network("MicroCNN")).run_cost
        assert 0.0 <= cost.compute_bound_fraction <= 1.0
        assert set(thread_candidates(cost, cpu_count=4)) == {1, 2, 4}


class TestThreadValidation:
    """The single validation path shared by env, CLI and tuned counts."""

    @pytest.mark.parametrize("bad", ["0", "-2", "x", "2.5", ""])
    def test_env_override_rejected_consistently(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_NUM_THREADS", bad)
        if bad == "":
            assert default_num_threads() >= 1  # blank means "unset"
        else:
            with pytest.raises(ValueError, match="must be a positive integer"):
                default_num_threads()

    def test_positive_int_accepts_and_rejects(self):
        assert positive_int(4, "n") == 4
        assert positive_int("7", "n") == 7
        assert positive_int(2.0, "n") == 2
        for bad in (0, -1, 2.5, "nope", None):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                positive_int(bad, "n")

    def test_row_tile_validated_by_same_helper(self):
        with pytest.raises(ValueError, match="row_tile must be a positive"):
            plan_mod._row_tiles(100, 1, row_tile=0)


class TestCliSurface:
    def test_backend_choices_in_lockstep(self):
        from repro import cli

        assert tuple(cli.BACKEND_CHOICES) == tuple(backends.BACKEND_CHOICES)

    def test_parser_accepts_backend(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve-bench", "--backend", "numpy", "--batches", "1"]
        )
        assert args.backend == "numpy"
        worker = parser.parse_args(
            ["cluster-worker", "--connect", "tcp://127.0.0.1:1",
             "--backend", "cffi"]
        )
        assert worker.backend == "cffi"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-bench", "--backend", "fortran"])
