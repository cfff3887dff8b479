"""Pluggable compiled-kernel backends behind the fused execution plan.

The fused plan (:mod:`repro.core.plan`) is the seam the paper's native
frameworks exploit: every step is a named kernel with known shapes, so a
compiled inner loop can replace the NumPy one without touching the graph.
This package provides that layer:

* ``numpy`` — the vectorized kernels in :mod:`repro.core.bitpack` /
  :mod:`repro.core.binary_conv`.  Always available, always correct; the
  reference every other backend is gated against.
* ``cffi`` — a single C translation unit (``_kernels.c``: xor-popcount
  GEMM, fused-threshold-accumulate-and-pack, packed patch extraction, and
  the input convolution's float32 threshold-pack)
  compiled at first use with the host toolchain and cached per host
  (:mod:`repro.core.backends.cffi_backend`).  OpenMP-free: parallelism
  stays in the plan's shared thread pool, and cffi releases the GIL for
  the duration of each call.

**Selection is gated by the bit-exactness spine.**  A backend is attached
per plan step at warm time (``Network.warm`` / ``ModelPool`` /
``PhoneBitEngine``): before a step adopts a compiled kernel, the kernel is
probed against the NumPy reference on that step's *actual* packed filters
and thresholds, and on synthetic packed inputs covering its geometry.  Any
mismatch — or any build/import failure — silently falls the step back to
the NumPy path, so a missing compiler can never change results, only
speed.  ``ExecutionPlan.backend_report()`` says what each step runs on.

``REPRO_BACKEND`` sets the process-default spec (``auto`` when unset);
``REPRO_NO_CC=1`` masks the host toolchain, which is how CI proves the
fallback path stays green.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import binary_conv, bitpack

#: Backend spec names accepted everywhere a backend can be chosen
#: (engine, CLI ``--backend``, worker config).  ``auto`` resolves to the
#: fastest available compiled backend, falling back to ``numpy``.
BACKEND_CHOICES = ("auto", "numpy", "cffi")

#: Preference order ``auto`` resolves through.
_AUTO_ORDER = ("cffi",)


class BackendUnavailable(RuntimeError):
    """A compiled backend cannot be used on this host (reason in args)."""


def default_backend_spec() -> str:
    """Process-default backend spec: ``REPRO_BACKEND`` or ``auto``."""
    spec = os.environ.get("REPRO_BACKEND", "").strip().lower()
    return spec if spec in BACKEND_CHOICES else "auto"


# --------------------------------------------------------------- registry
_CACHE: Dict[str, object] = {}
_FAILURES: Dict[str, str] = {}


def _load_backend(name: str):
    """Build/import one compiled backend (uncached); raises on failure."""
    if name == "cffi":
        from repro.core.backends import cffi_backend

        return cffi_backend.load()
    raise BackendUnavailable(f"unknown compiled backend {name!r}")


def get_backend(name: str):
    """Compiled backend object for ``name``, or ``None`` for ``"numpy"``.

    Results (including failures) are cached per process; a failure reason
    is kept so :func:`availability` can report *why* a backend is out.

    Raises
    ------
    BackendUnavailable
        If the backend cannot be built or imported on this host.
    """
    if name == "numpy":
        return None
    if name not in BACKEND_CHOICES:
        raise BackendUnavailable(
            f"unknown backend {name!r}; expected one of {BACKEND_CHOICES}"
        )
    if name in _CACHE:
        return _CACHE[name]
    if name in _FAILURES:
        raise BackendUnavailable(_FAILURES[name])
    try:
        impl = _load_backend(name)
        _self_test(impl)
    except BackendUnavailable as exc:
        _FAILURES[name] = str(exc)
        raise
    except Exception as exc:  # noqa: BLE001 - any build error means "absent"
        reason = f"{name} backend unavailable: {type(exc).__name__}: {exc}"
        _FAILURES[name] = reason
        raise BackendUnavailable(reason) from exc
    _CACHE[name] = impl
    return impl


def availability() -> Dict[str, Optional[str]]:
    """Mapping of backend name to ``None`` (usable) or a reason string."""
    report: Dict[str, Optional[str]] = {"numpy": None}
    for name in _AUTO_ORDER:
        try:
            get_backend(name)
            report[name] = None
        except BackendUnavailable as exc:
            report[name] = str(exc)
    return report


def resolve_backend(spec: Optional[str]) -> Tuple[str, Optional[object]]:
    """Resolve a spec to ``(name, impl)``; ``impl`` is None for numpy.

    ``auto`` (or ``None``) picks the first usable compiled backend in
    preference order and degrades to ``numpy`` when none builds — it
    never raises.  A concrete compiled name raises
    :class:`BackendUnavailable` if that backend cannot be used, so an
    explicit request is never silently substituted.
    """
    spec = (spec or default_backend_spec()).lower()
    if spec not in BACKEND_CHOICES:
        raise BackendUnavailable(
            f"unknown backend {spec!r}; expected one of {BACKEND_CHOICES}"
        )
    if spec == "auto":
        for name in _AUTO_ORDER:
            try:
                return name, get_backend(name)
            except BackendUnavailable:
                continue
        return "numpy", None
    return spec, get_backend(spec)


def _reset_for_tests() -> None:
    """Drop cached backends/failures (tests toggle REPRO_NO_CC)."""
    _CACHE.clear()
    _FAILURES.clear()


# ----------------------------------------------------------- verification
def _random_words(rng, shape, dtype) -> np.ndarray:
    """Random packed words of an unsigned dtype (full bit range)."""
    dtype = np.dtype(dtype)
    return rng.integers(
        0, 2 ** (8 * dtype.itemsize), size=shape, dtype=dtype
    )


def _self_test(impl) -> None:
    """Global smoke check of all four kernels before a backend is cached.

    Per-step probes (:func:`verify_fused_step`) re-check the fused kernel
    against each step's real filters; this catches a completely broken
    build immediately with clear attribution.
    """
    rng = np.random.default_rng(20)
    a = _random_words(rng, (13, 3), np.uint64)
    b = _random_words(rng, (10, 3), np.uint64)
    expected = bitpack.xor_popcount_gemm(a, b)
    got = np.empty_like(expected)
    impl.xor_popcount_gemm_rows(a, b, got, 0, a.shape[0])
    if not np.array_equal(expected, got):
        raise BackendUnavailable(
            f"{impl.name} xor-popcount GEMM disagrees with the NumPy reference"
        )
    thresh = rng.integers(60, 130, size=10).astype(np.int32)
    flip = rng.integers(0, 2, size=10).astype(bool)
    out_np = np.zeros((13, 2), dtype=np.uint8)
    out_c = np.zeros((13, 2), dtype=np.uint8)
    bitpack.fused_xor_threshold_rows(a, b, thresh, flip, out_np, 0, 13, 8)
    impl.fused_xor_threshold_rows(a, b, thresh, flip, out_c, 0, 13, 8)
    if not np.array_equal(out_np, out_c):
        raise BackendUnavailable(
            f"{impl.name} fused threshold kernel disagrees with the NumPy reference"
        )
    packed = _random_words(rng, (2, 6, 5, 2), np.uint32)
    expected_p, oh, ow = binary_conv.packed_patch_matrix(packed, 3, 2, 1)
    got_p = np.empty_like(np.ascontiguousarray(expected_p))
    impl.packed_patch_rows(packed, 3, 2, 1, oh, ow, got_p, 0, got_p.shape[0])
    if not np.array_equal(np.asarray(expected_p), got_p):
        raise BackendUnavailable(
            f"{impl.name} patch extraction disagrees with the NumPy reference"
        )
    x1 = rng.integers(-50, 50, size=(13, 10)).astype(np.float32)
    thresh = rng.integers(-20, 20, size=10).astype(np.int32)
    out_np = np.zeros((13, 2), dtype=np.uint8)
    out_c = np.zeros((13, 2), dtype=np.uint8)
    bitpack.threshold_pack_rows(x1, thresh, flip, out_np, 0, 13, 8)
    impl.threshold_pack_rows(x1, thresh, flip, out_c, 0, 13, 8)
    if not np.array_equal(out_np, out_c):
        raise BackendUnavailable(
            f"{impl.name} threshold-pack kernel disagrees with the NumPy reference"
        )


def _split_rows_match(reference, compiled, rows: int, out_shape, out_dtype) -> bool:
    """Run both kernels over two row ranges into fresh outputs; compare."""
    out_np = np.zeros(out_shape, dtype=out_dtype)
    out_c = np.zeros(out_shape, dtype=out_dtype)
    for r0, r1 in ((0, rows // 2), (rows // 2, rows)):
        reference(out_np, r0, r1)
        compiled(out_c, r0, r1)
    return np.array_equal(out_np, out_c)


def _verify_input_conv(impl, step, rng) -> bool:
    """Probe the float32 threshold-pack on the step's own thresholds.

    The synthetic ``x1`` rows put every channel exactly at, one below and
    one above its threshold, plus uniform values over ``±bound`` — the
    whole range the exact GEMM can produce.
    """
    bound = step.layer.x1_magnitude_bound
    threshold = step.threshold
    edges = np.stack([threshold - 1, threshold, threshold + 1])
    x1 = np.concatenate([
        np.clip(edges, -bound, bound),
        rng.integers(-bound, bound + 1, size=(6, threshold.shape[0])),
    ]).astype(np.float32)
    rows, cols = x1.shape
    shape = (rows, bitpack.words_per_channel(cols, step.out_word_size))
    return _split_rows_match(
        lambda out, r0, r1: bitpack.threshold_pack_rows(
            x1, threshold, step.flip, out, r0, r1, step.out_word_size),
        lambda out, r0, r1: impl.threshold_pack_rows(
            x1, threshold, step.flip, out, r0, r1, step.out_word_size),
        rows, shape, bitpack.word_dtype(step.out_word_size),
    )


def verify_fused_step(impl, step, rng=None) -> bool:
    """Bit-exactness probe of one fused plan step against NumPy.

    Runs the compiled kernels the step would use on synthetic inputs
    against the step's *actual* operands, split across two row ranges so
    the tiling offsets are exercised, and returns True only on a
    bit-for-bit match:

    * the input convolution: the float32 threshold-pack on its integer
      thresholds and flips (:func:`_verify_input_conv`);
    * a binary-output xor-popcount step: the fused kernel on synthetic
      packed rows against its packed filters and accumulator thresholds;
    * a float head: the plain xor-popcount GEMM against its filters;
    * and for convolutions, the compiled patch gather against
      :func:`repro.core.binary_conv.packed_patch_matrix` on the step's
      geometry.

    A step with no compiled kernels (``step.compilable`` false) never
    verifies.
    """
    if not getattr(step, "compilable", False):
        return False
    rng = np.random.default_rng(33) if rng is None else rng
    if step.is_input_conv:
        return _verify_input_conv(impl, step, rng)
    filters = getattr(step, "flat_filters", None)
    if filters is None:
        filters = step.weights_packed
    filters = np.ascontiguousarray(filters.reshape(filters.shape[0], -1))
    cols, n_words = filters.shape
    rows = 9
    a = _random_words(rng, (rows, n_words), filters.dtype)
    if step.float_out:
        matched = _split_rows_match(
            lambda out, r0, r1: bitpack.xor_popcount_gemm(
                a[r0:r1], filters, out=out[r0:r1]),
            lambda out, r0, r1: impl.xor_popcount_gemm_rows(
                a, filters, out, r0, r1),
            rows, (rows, cols), np.int64,
        )
    else:
        matched = _split_rows_match(
            lambda out, r0, r1: bitpack.fused_xor_threshold_rows(
                a, filters, step.acc_threshold, step.flip, out, r0, r1,
                step.out_word_size),
            lambda out, r0, r1: impl.fused_xor_threshold_rows(
                a, filters, step.acc_threshold, step.flip, out, r0, r1,
                step.out_word_size),
            rows, (rows, bitpack.words_per_channel(cols, step.out_word_size)),
            bitpack.word_dtype(step.out_word_size),
        )
    if not matched:
        return False
    layer = step.layer
    kernel_size = getattr(layer, "kernel_size", None)
    if kernel_size is not None:
        k, stride, padding = kernel_size, layer.stride, layer.padding
        if not (k == 1 and padding == 0 and stride == 1):
            wc_in = bitpack.words_per_channel(layer.in_channels, layer.word_size)
            h = w = max(k + stride + padding, k + 1)
            packed = _random_words(
                rng, (2, h, w, wc_in), bitpack.word_dtype(layer.word_size)
            )
            expected, oh, ow = binary_conv.packed_patch_matrix(
                packed, k, stride, padding
            )
            expected = np.ascontiguousarray(expected)
            got = np.empty_like(expected)
            impl.packed_patch_rows(packed, k, stride, padding, oh, ow,
                                   got, 0, got.shape[0])
            if not np.array_equal(expected, got):
                return False
    return True


def select_for_plan(plan, spec: Optional[str] = None) -> Dict[str, str]:
    """Attach a backend to every fused step of ``plan`` (idempotent).

    Each compilable step — every binary conv and dense step, float heads
    included, and the input convolution when its exact GEMM runs in
    float32 — is probed with :func:`verify_fused_step`.  Steps that fail
    the probe, fallback layer steps, and steps with no compiled kernel (an
    input convolution whose ``x1`` bound forces a float64 GEMM, or that
    ends in a float head) keep the NumPy path.  Returns the per-step
    selection report (also stored as ``plan.backend_selection``).
    """
    name, impl = resolve_backend(spec)
    report: Dict[str, str] = {}
    for index, step in enumerate(plan.steps):
        key = f"[{index}] {step.describe}"
        if not getattr(step, "compilable", False):
            step_backend = "numpy"
        elif impl is None:
            step_backend = "numpy"
            step.compiled = None
        elif getattr(step, "compiled", None) is impl:
            step_backend = name  # already selected and verified
        elif verify_fused_step(impl, step):
            step.compiled = impl
            step_backend = name
        else:
            step.compiled = None
            step_backend = "numpy"
        report[key] = step_backend
    plan.backend_spec = name
    plan.backend_selection = report
    return report
