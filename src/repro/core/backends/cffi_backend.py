"""cffi-compiled C kernels (``_kernels.c``) with a per-host build cache.

The extension is compiled from the single C source shipped next to this
module, at first use, with whatever C compiler the host provides; the
built shared object is cached under a content-addressed name (hash of
source + compile flags + ABI tag) in ``REPRO_BACKEND_CACHE`` (default
``~/.cache/repro/backends``), so each host compiles once and every later
process — including forked/spawned cluster workers — just dlopens it.

Availability gates (any failure ⇒ :class:`BackendUnavailable`, and the
plan keeps the NumPy path):

* a C compiler on ``PATH`` (``cc``/``gcc``/``clang``), not masked by
  ``REPRO_NO_CC=1`` — the switch CI uses to prove the fallback;
* a little-endian host (the packed bit streams are little-endian);
* the cffi compile itself succeeding.  ``-O3 -march=native`` is tried
  first (hardware POPCNT), plain ``-O3`` is the portable fallback.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import sysconfig
import tempfile
from typing import Optional

import numpy as np

_CDEF = """
void repro_fused_xor_threshold_pack(
    const uint8_t *a, ptrdiff_t a_stride,
    const uint8_t *b, ptrdiff_t b_stride,
    ptrdiff_t n_bytes,
    const int32_t *thresh, const uint8_t *flip, ptrdiff_t cols,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop);
void repro_xor_popcount_gemm(
    const uint8_t *a, ptrdiff_t a_stride,
    const uint8_t *b, ptrdiff_t b_stride,
    ptrdiff_t n_bytes, ptrdiff_t cols,
    int64_t *out, ptrdiff_t out_cols,
    ptrdiff_t row_start, ptrdiff_t row_stop);
void repro_packed_patch_rows(
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t pix_bytes,
    ptrdiff_t k, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop);
void repro_threshold_pack_f32(
    const float *x1, ptrdiff_t x1_stride, ptrdiff_t cols,
    const int32_t *thresh, const uint8_t *flip,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop);
"""

_SOURCE_FILE = os.path.join(os.path.dirname(__file__), "_kernels.c")


def compiler_available() -> bool:
    """Whether a usable C compiler is on PATH (and not masked).

    ``REPRO_NO_CC=1`` masks detection — the hook CI (and the fallback
    tests) use to simulate a host without a toolchain.
    """
    if os.environ.get("REPRO_NO_CC", "").strip() not in ("", "0"):
        return False
    return any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


def build_cache_dir() -> str:
    """Per-host directory holding built extensions and tuning records.

    ``REPRO_BACKEND_CACHE`` overrides; the default is
    ``~/.cache/repro/backends``, degrading to a per-user temp directory
    when the home directory is not writable.
    """
    override = os.environ.get("REPRO_BACKEND_CACHE", "").strip()
    if override:
        path = override
    else:
        path = os.path.join(
            os.path.expanduser("~"), ".cache", "repro", "backends"
        )
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        fallback = os.path.join(
            tempfile.gettempdir(), f"repro-backends-{os.getuid()}"
        )
        os.makedirs(fallback, exist_ok=True)
        return fallback


def _module_tag(source: str, flags: tuple) -> str:
    """Content hash naming one built variant of the extension."""
    payload = source + "\x00" + " ".join(flags) + "\x00" + (
        sysconfig.get_config_var("EXT_SUFFIX") or ""
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _built_path(module_name: str, cache_dir: str) -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(cache_dir, module_name + suffix)


def _load_built(module_name: str, path: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile(module_name: str, source: str, flags: tuple, cache_dir: str) -> str:
    """Compile one variant into the cache dir; returns the .so path.

    The build runs in a private temp dir and the finished object is
    moved into place with ``os.replace``, so concurrent builders race
    harmlessly (last atomic rename wins, both objects are identical).
    """
    import cffi

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(_CDEF)
    ffibuilder.set_source(module_name, source, extra_compile_args=list(flags))
    staging = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
    try:
        built = ffibuilder.compile(tmpdir=staging, verbose=False)
        final = _built_path(module_name, cache_dir)
        os.replace(built, final)
        return final
    finally:
        shutil.rmtree(staging, ignore_errors=True)


class CffiKernelBackend:
    """Thin array-validation shim over the compiled C entry points.

    The methods mirror the NumPy kernel signatures in
    :mod:`repro.core.bitpack` / :mod:`repro.core.binary_conv` so the plan
    steps can swap implementations without reshaping anything.  All
    operands must be C-contiguous in their trailing axis (plan buffers
    are); ``ffi.from_buffer`` enforces full contiguity for us.
    """

    name = "cffi"

    def __init__(self, module) -> None:
        self._ffi = module.ffi
        self._lib = module.lib

    # -- pointer helpers ---------------------------------------------------
    def _ro(self, array: np.ndarray, ctype: str = "const uint8_t *"):
        return self._ffi.cast(ctype, self._ffi.from_buffer(array))

    def _rw(self, array: np.ndarray, ctype: str = "uint8_t *"):
        return self._ffi.cast(
            ctype, self._ffi.from_buffer(array, require_writable=True)
        )

    @staticmethod
    def _flip8(flip: np.ndarray) -> np.ndarray:
        if flip.dtype == np.bool_:
            return flip.view(np.uint8)
        return np.ascontiguousarray(flip, dtype=np.uint8)

    # -- kernels -----------------------------------------------------------
    def fused_xor_threshold_rows(self, a, b, acc_threshold, flip, out_words,
                                 row_start, row_stop, word_size,
                                 col_tile=None) -> None:
        """Compiled twin of :func:`repro.core.bitpack.fused_xor_threshold_rows`.

        ``col_tile`` is accepted for signature parity and ignored — the C
        loop keeps one activation row register-resident across all
        filters, so column tiling buys nothing there.
        """
        flip8 = self._flip8(flip)
        thresh = np.ascontiguousarray(acc_threshold, dtype=np.int32)
        self._lib.repro_fused_xor_threshold_pack(
            self._ro(a), a.strides[0],
            self._ro(b), b.strides[0],
            a.shape[1] * a.dtype.itemsize,
            self._ro(thresh, "const int32_t *"), self._ro(flip8), b.shape[0],
            self._rw(out_words), out_words.strides[0],
            int(row_start), int(row_stop),
        )

    def xor_popcount_gemm_rows(self, a, b, out, row_start, row_stop) -> None:
        """Rows ``[row_start, row_stop)`` of the all-pairs xor-popcount GEMM."""
        self._lib.repro_xor_popcount_gemm(
            self._ro(a), a.strides[0],
            self._ro(b), b.strides[0],
            a.shape[1] * a.dtype.itemsize, b.shape[0],
            self._rw(out, "int64_t *"), out.shape[1],
            int(row_start), int(row_stop),
        )

    def threshold_pack_rows(self, x1, threshold, flip, out_words,
                            row_start, row_stop, word_size) -> None:
        """Compiled twin of :func:`repro.core.bitpack.threshold_pack_rows`.

        ``x1`` must be float32 holding integers of magnitude below 2^24
        and ``threshold`` must fit int32 — the input conv's float32
        exact-GEMM lowering guarantees both.
        """
        if x1.dtype != np.float32:
            raise TypeError(f"threshold_pack_rows needs float32 x1, got {x1.dtype}")
        thresh = np.ascontiguousarray(threshold, dtype=np.int32)
        self._lib.repro_threshold_pack_f32(
            self._ro(x1, "const float *"), x1.strides[0] // x1.itemsize,
            x1.shape[1],
            self._ro(thresh, "const int32_t *"), self._ro(self._flip8(flip)),
            self._rw(out_words), out_words.strides[0],
            int(row_start), int(row_stop),
        )

    def packed_patch_rows(self, packed, kernel_size, stride, padding,
                          oh, ow, out, row_start, row_stop) -> None:
        """Gather rows of the packed im2col matrix (zero-padded taps)."""
        n, h, w, wc = packed.shape
        pix_bytes = wc * packed.dtype.itemsize
        self._lib.repro_packed_patch_rows(
            self._ro(packed), h, w, pix_bytes,
            int(kernel_size), int(stride), int(padding), int(oh), int(ow),
            self._rw(out), out.strides[0],
            int(row_start), int(row_stop),
        )


def load() -> CffiKernelBackend:
    """Build (or reuse) the compiled extension; raises BackendUnavailable."""
    from repro.core.backends import BackendUnavailable

    if sys.byteorder != "little":
        raise BackendUnavailable(
            "cffi backend requires a little-endian host (packed bit "
            "streams are little-endian)"
        )
    try:
        import cffi  # noqa: F401
    except ImportError as exc:
        raise BackendUnavailable(f"cffi is not installed: {exc}") from exc
    with open(_SOURCE_FILE) as fh:
        source = fh.read()
    cache_dir = build_cache_dir()
    flag_sets = (("-O3", "-march=native"), ("-O3",))
    errors = []
    for flags in flag_sets:
        module_name = f"_repro_kernels_{_module_tag(source, flags)}"
        path = _built_path(module_name, cache_dir)
        if os.path.exists(path):
            try:
                return CffiKernelBackend(_load_built(module_name, path))
            except Exception as exc:  # stale/foreign object: rebuild
                errors.append(f"cached {path}: {exc}")
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if not compiler_available():
            errors.append("no C compiler on PATH (or masked by REPRO_NO_CC)")
            continue
        try:
            built = _compile(module_name, source, flags, cache_dir)
            return CffiKernelBackend(_load_built(module_name, built))
        except Exception as exc:  # noqa: BLE001 - try the next flag set
            errors.append(f"{' '.join(flags)}: {type(exc).__name__}: {exc}")
    raise BackendUnavailable(
        "cffi backend could not be built: " + "; ".join(errors)
    )
