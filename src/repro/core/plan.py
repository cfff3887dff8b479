"""Ahead-of-time execution plans: fused thresholds, buffer arena, threading.

``Network.forward`` interprets a network layer by layer; every binary block
re-derives packed inputs, materializes an int64 pre-activation map, converts
it to float64 for the Eqn. (9) comparison and allocates fresh intermediates.
An :class:`ExecutionPlan` compiles the network once instead:

* **Pattern matching / lowering** — ``InputConv2d``/``BinaryConv2d``/
  ``BinaryDense`` blocks (including the *unfused* three-layer spelling
  ``conv → BatchNorm2d → Binarize`` the converter emits for baseline
  frameworks) are lowered to fused packed steps.  The per-channel threshold
  ξ of Eqns. (5–8) is extracted as an exact **integer** decision boundary
  (:func:`repro.core.fusion.exact_integer_threshold`) and, for the
  xor-popcount layers, folded into the *accumulator* domain: the kernel
  tests the raw disagreement count and emits packed bits directly, so
  neither the ±1 pre-activation ``x1`` nor any unpacked/float intermediate
  is ever materialized between binary blocks.  A binary layer with float
  output lowers to the same step with a float epilogue (the layer's own
  affine of ``x1``), and the input convolution to an exact float32 (or
  float64) GEMM followed by an integer threshold-pack.
* **Arena memory planning** — activations in a sequential chain die as soon
  as the next step has consumed them, so fused outputs ping-pong between
  two arena slots and all patch gathers share one scratch slot (as do the
  input conv's ``x1`` map and the float heads' popcount counts).  Arenas are
  pooled per plan and reused across ``run_batch`` chunks and serving
  requests; concurrent executions each borrow their own arena.
* **Multi-threaded tile execution** — fused GEMMs split their patch rows
  into tiles dispatched on a shared thread pool (NumPy, BLAS and the
  compiled kernels release the GIL in their inner loops).
  ``REPRO_NUM_THREADS`` (or the engine's ``num_threads``) controls the
  fan-out; the default is ``os.cpu_count()``.

Plans are cached on the network (:func:`get_plan`) and — like the layers'
packed-weight caches — validated by identity snapshots of every array they
were compiled from, so a weight or batch-norm reassignment can never be
served by a stale plan.  Layers whose pattern does not match run through
their ordinary ``forward`` as fallback steps; plan outputs are bit-identical
to ``Network.forward`` by construction (enforced by tests and the
``bench_fused_exec`` benchmark).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import binary_conv, bitpack
from repro.core.binarize import binarize_sign
from repro.core.fusion import exact_integer_threshold
from repro.core.layers import (
    BatchNorm2d,
    Binarize,
    BinaryConv2d,
    BinaryDense,
    InputConv2d,
)
from repro.core.tensor import Layout, Tensor, conv_output_size

#: Upper bound on the rows one fused tile processes (matches the bounded
#: working set of the tiled popcount GEMMs in :mod:`repro.core.bitpack`).
_ROW_TILE = 512

#: Lower bound on tile rows when splitting for the thread pool — below this
#: the per-task dispatch overhead beats the parallelism ...
_MIN_ROW_TILE = 64

#: ... unless a row carries so much work (filters × packed words, or
#: filters × patch volume for the input conv's GEMM) that fewer rows already
#: amortize the dispatch: the floor drops to ``_MIN_TILE_WORK`` units of
#: work per tile, so the 16-row dense heads still fan out over the pool.
_MIN_TILE_WORK = 1 << 21

#: Upper bound on one input-conv tile's GEMM buffers (patch rows + x1 rows),
#: in place of :data:`_ROW_TILE`: a row there is only ``(K²·Cin + Cout)``
#: floats, and every tile hands the GIL over three times (gather, GEMM,
#: threshold-pack), so 512-row tiles spend more time waiting than working.
_INPUT_TILE_BYTES = 1 << 20


def positive_int(value, name: str) -> int:
    """Validate ``value`` as a positive integer (the single validation path).

    Every thread-count source — the ``REPRO_NUM_THREADS`` environment
    override, the CLI's ``--threads``, and tuned thread counts from
    :mod:`repro.core.backends.tuner` — funnels through this helper, so
    they cannot disagree on what counts as valid or how the error reads.
    """
    try:
        parsed = int(value)
    except (TypeError, ValueError):
        parsed = 0
    if parsed < 1 or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return parsed


def default_num_threads() -> int:
    """Thread fan-out for fused tile execution.

    ``REPRO_NUM_THREADS`` overrides (validated by :func:`positive_int`);
    the default is ``os.cpu_count()``.
    """
    env = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if env:
        return positive_int(env, "REPRO_NUM_THREADS")
    return os.cpu_count() or 1


_POOL_LOCK = threading.Lock()
_POOLS: Dict[int, ThreadPoolExecutor] = {}


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """Process-wide executor per fan-out (workers are reused, never torn down)."""
    with _POOL_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-tiles-{threads}"
            )
            _POOLS[threads] = pool
        return pool


def _reset_pools_after_fork() -> None:
    """Drop inherited thread-pool handles in a forked child.

    A ``fork()``ed child inherits the parent's ``_POOLS`` dict, but not the
    pool *threads* — submitting to an inherited executor would hang forever.
    The cluster workers (``repro.serving.cluster``) fork after the parent
    has warmed plans, so fresh pools must be lazily rebuilt in the child.
    """
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()  # the inherited lock may be mid-acquire
    _POOLS.clear()


if hasattr(os, "register_at_fork"):  # POSIX only; spawn contexts start clean
    os.register_at_fork(after_in_child=_reset_pools_after_fork)


def _row_tiles(rows: int, threads: int, row_tile: Optional[int] = None,
               row_work: int = 0) -> List[Tuple[int, int]]:
    """Split ``rows`` into contiguous tile ranges for (threaded) execution.

    ``row_tile`` overrides the built-in upper bound — the knob the
    auto-tuner (:mod:`repro.core.backends.tuner`) searches per host.
    ``row_work`` is the work one row carries (see :data:`_MIN_TILE_WORK`);
    it only lowers the dispatch-overhead floor, never the upper bound.
    """
    tile = _ROW_TILE if row_tile is None else positive_int(row_tile, "row_tile")
    if threads > 1:
        # Aim for a few tiles per worker so uneven tile costs still balance,
        # without shrinking tiles below the dispatch-overhead floor.
        floor = _MIN_ROW_TILE
        if row_work > 0:
            floor = max(1, min(floor, -(-_MIN_TILE_WORK // row_work)))
        balanced = -(-rows // (threads * 4))
        tile = min(tile, max(floor, balanced))
    return [(r0, min(r0 + tile, rows)) for r0 in range(0, rows, tile)]


class BufferArena:
    """Named, grow-only scratch buffers reused across plan executions.

    A slot is a flat byte buffer that only ever grows; :meth:`view` returns
    a typed window of the requested shape.  One arena is used by exactly one
    execution at a time (the plan keeps a free-list), so views need no
    locking — liveness is guaranteed by the plan's slot assignment, not by
    reference counting.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def view(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = np.empty(max(nbytes, 1), dtype=np.uint8)
            self._buffers[name] = buf
        return buf[:nbytes].view(dtype).reshape(shape)

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is a view into one of this arena's buffers."""
        base = array
        while isinstance(base, np.ndarray):
            for buf in self._buffers.values():
                if base is buf:
                    return True
            base = base.base
        return False

    @property
    def nbytes(self) -> int:
        """Bytes currently held across all slots."""
        return sum(buf.nbytes for buf in self._buffers.values())


class _ExecContext:
    """Per-execution resources handed to every step."""

    __slots__ = ("arena", "pool", "threads", "row_tile", "col_tile")

    def __init__(self, arena: BufferArena, pool: Optional[ThreadPoolExecutor],
                 threads: int, row_tile: Optional[int] = None,
                 col_tile: Optional[int] = None) -> None:
        self.arena = arena
        self.pool = pool
        self.threads = threads
        self.row_tile = row_tile
        self.col_tile = col_tile

    def run_tiles(self, rows: int, work: Callable[[int, int], None],
                  row_work: int = 0, row_tile: Optional[int] = None) -> None:
        """Run ``work(r0, r1)`` over row tiles, fanned out when possible.

        ``row_tile`` replaces the execution's row-tile bound for this call.
        """
        tiles = _row_tiles(rows, self.threads,
                           self.row_tile if row_tile is None else row_tile,
                           row_work)
        if self.pool is None or len(tiles) <= 1:
            for r0, r1 in tiles:
                work(r0, r1)
            return
        # list() drains the iterator so worker exceptions propagate here.
        list(self.pool.map(lambda t: work(t[0], t[1]), tiles))


class LayerStep:
    """Fallback step: execute one layer through its ordinary ``forward``."""

    fused = False

    def __init__(self, layer, layer_index: int) -> None:
        self.layer = layer
        self.layer_start = layer_index
        self.layer_stop = layer_index + 1

    @property
    def describe(self) -> str:
        return f"layer {type(self.layer).__name__}({self.layer.name})"

    def run(self, x: Tensor, ctx: _ExecContext) -> Tensor:
        return self.layer.forward(x)


class _FusedStepBase:
    """Shared bookkeeping and epilogues of the fused packed steps.

    A step ends in one of two epilogues.  With a ``threshold`` it emits
    packed bits; without one (``float_out``) it is a float head — a binary
    layer with ``output_binary=False`` — and emits the layer's float32
    ``affine_values`` of ``x1``.
    """

    fused = True
    is_input_conv = False
    #: Whether a compiled backend has kernels for this step.
    compilable = True

    def __init__(self, layer, layer_start: int, layer_stop: int,
                 threshold: Optional[np.ndarray], flip: Optional[np.ndarray],
                 out_word_size: Optional[int], out_slot: str,
                 length: int) -> None:
        self.layer = layer
        self.layer_start = layer_start
        self.layer_stop = layer_stop
        #: Integer x1-domain decision boundary: bit = (x1 >= threshold) ^ flip;
        #: ``None`` for a float head.
        self.threshold = threshold
        self.flip = flip
        self.out_word_size = out_word_size
        self.out_slot = out_slot
        #: Dot-product length: x1 = length − 2·(xor-popcount count).
        self.length = length
        self.weights_packed = layer.weights_packed  # compile-time snapshot
        self.acc_threshold = None
        if threshold is not None and not self.is_input_conv:
            # Fold the boundary into the accumulator domain:
            #   x1 = L − 2·d  ⇒  (x1 >= t) ⇔ (d <= (L − t) // 2),
            # clipped to the feasible count range [−1, L] so it fits the
            # kernel's int32 accumulator.
            acc = np.floor_divide(length - threshold, 2)
            self.acc_threshold = np.clip(acc, -1, length).astype(np.int32)
        #: Compiled kernel backend attached by
        #: :func:`repro.core.backends.select_for_plan` after the step's
        #: kernels were verified bit-exact against NumPy; ``None`` runs the
        #: NumPy reference path.
        self.compiled = None

    @property
    def float_out(self) -> bool:
        return self.threshold is None

    @property
    def uses_col_tile(self) -> bool:
        """Whether the step honours the ``col_tile`` knob: only the NumPy
        fused xor-threshold kernel does."""
        return (self.compiled is None and not self.float_out
                and not self.is_input_conv)

    def _describe_out(self) -> str:
        span = self.layer_stop - self.layer_start
        folded = "" if span == 1 else f" [folds {span} layers]"
        out = "float32 out" if self.float_out else f"w{self.out_word_size} packed out"
        return out + folded

    def _out_buffer(self, ctx: _ExecContext, rows: int, channels: int) -> np.ndarray:
        if self.float_out:
            return ctx.arena.view(self.out_slot, (rows, channels), np.float32)
        wc_out = bitpack.words_per_channel(channels, self.out_word_size)
        return ctx.arena.view(
            self.out_slot, (rows, wc_out), bitpack.word_dtype(self.out_word_size)
        )

    def _out_tensor(self, data: np.ndarray, channels: int) -> Tensor:
        if self.float_out:
            return Tensor(data, Layout.NHWC)
        return Tensor(data, Layout.NHWC, packed=True, true_channels=channels)

    def _xor_popcount_tiles(self, patches: np.ndarray, filters: np.ndarray,
                            rows: int, ctx: _ExecContext,
                            gather: Optional[Callable[[int, int], None]] = None,
                            ) -> np.ndarray:
        """Run the xor-popcount GEMM and the epilogue over row tiles.

        ``gather(r0, r1)``, if given, fills the tile's patch rows first.
        Binary output goes through the fused accumulate-threshold-pack
        kernel; a float head runs the plain popcount GEMM into the shared
        ``acc`` scratch slot and applies the layer's affine per tile.
        """
        compiled = self.compiled
        cols = filters.shape[0]
        out = self._out_buffer(ctx, rows, cols)
        if self.float_out:
            disagree = ctx.arena.view("acc", (rows, cols), np.int64)
            affine = self.layer.affine_values

            def epilogue(r0: int, r1: int) -> None:
                if compiled is None:
                    bitpack.xor_popcount_gemm(patches[r0:r1], filters,
                                              out=disagree[r0:r1])
                else:
                    compiled.xor_popcount_gemm_rows(patches, filters,
                                                    disagree, r0, r1)
                out[r0:r1] = affine(self.length - 2 * disagree[r0:r1])
        else:
            fused_rows = (
                bitpack.fused_xor_threshold_rows if compiled is None
                else compiled.fused_xor_threshold_rows
            )

            def epilogue(r0: int, r1: int) -> None:
                fused_rows(
                    patches, filters, self.acc_threshold, self.flip,
                    out, r0, r1, self.out_word_size, col_tile=ctx.col_tile,
                )

        def work(r0: int, r1: int) -> None:
            if gather is not None:
                gather(r0, r1)
            epilogue(r0, r1)

        ctx.run_tiles(rows, work, row_work=cols * filters.shape[1])
        return out


class FusedConvStep(_FusedStepBase):
    """Fused convolution → threshold → packed bits (Eqns. 1/2/5–9).

    Binary convolutions run the xor-popcount GEMM on packed patches.  The
    input convolution (``InputConv2d``) is lowered to an exact float GEMM
    instead: every partial sum of the integer convolution is an integer of
    magnitude at most ``x1_magnitude_bound``, so BLAS reproduces the
    bit-plane accumulation of Eqn. (2) bit-exactly in any summation order —
    in float32 (``sgemm``) while that bound is below 2^24, in float64
    beyond.  The bit-plane kernels model the paper's GPU popcount path and
    remain the layerwise reference the tests compare against.
    """

    def __init__(self, layer, layer_start: int, layer_stop: int,
                 threshold: Optional[np.ndarray], flip: Optional[np.ndarray],
                 out_word_size: Optional[int], out_slot: str) -> None:
        self.is_input_conv = isinstance(layer, InputConv2d)
        super().__init__(layer, layer_start, layer_stop, threshold, flip,
                         out_word_size, out_slot,
                         layer.kernel_size ** 2 * layer.in_channels)
        if self.is_input_conv:
            self.gemm_dtype = np.dtype(
                np.float32 if layer.x1_magnitude_bound < 2 ** 24 else np.float64
            )
            self.gemm_weights = np.ascontiguousarray(
                (2 * layer.weight_bits.astype(self.gemm_dtype) - 1).reshape(
                    -1, layer.out_channels
                )
            )
            # The compiled kernel is the float32 threshold-pack; a float64
            # GEMM or a float head leaves it nothing to run.
            self.compilable = self.gemm_dtype == np.float32 and not self.float_out
            if self.compilable:
                # Thresholds lie in [−bound, bound], so int32 holds them and
                # the compiled threshold-pack compares integers throughout.
                self.threshold = threshold.astype(np.int32)
        else:
            self.flat_filters = np.ascontiguousarray(
                self.weights_packed.reshape(layer.out_channels, -1)
            )

    @property
    def describe(self) -> str:
        layer = self.layer
        kind = (
            f"input-conv(exact-gemm {self.gemm_dtype.name})" if self.is_input_conv
            else "conv(xor-popcount)"
        )
        return (
            f"fused {kind} {layer.name}: {layer.in_channels}→{layer.out_channels} "
            f"k{layer.kernel_size} s{layer.stride} p{layer.padding}, "
            f"{self._describe_out()}"
        )

    def run(self, x: Tensor, ctx: _ExecContext) -> Tensor:
        layer = self.layer
        if self.is_input_conv:
            return self._run_input_conv(x, ctx)
        if x.packed:
            packed = x.data
            true_channels = x.true_channels
        else:
            bits = binarize_sign(x.data)
            packed = binary_conv.pack_activations(bits, word_size=layer.word_size)
            true_channels = int(x.data.shape[-1])
        if true_channels != layer.in_channels:
            raise ValueError(
                f"{layer.name}: expected {layer.in_channels} input channels, "
                f"got {true_channels}"
            )
        n, h, w, wc_in = packed.shape
        k = layer.kernel_size
        oh = conv_output_size(h, k, layer.stride, layer.padding)
        ow = conv_output_size(w, k, layer.stride, layer.padding)
        rows = n * oh * ow
        compiled = self.compiled
        gather = None
        if k == 1 and layer.padding == 0 and layer.stride == 1:
            # Zero-copy reshape, no gather buffer needed.
            patches, _, _ = binary_conv.packed_patch_matrix(
                packed, k, layer.stride, layer.padding
            )
            if compiled is not None:
                patches = np.ascontiguousarray(patches)
        elif compiled is not None:
            # Fold the patch gather into the row tiles: each tile gathers
            # its own patch rows with the compiled im2col kernel right
            # before consuming them, so the gather is threaded too and its
            # output stays cache-hot for the fused GEMM.
            packed = np.ascontiguousarray(packed)
            patches = ctx.arena.view("patch", (rows, k * k * wc_in), packed.dtype)

            def gather(r0, r1, _packed=packed, _patches=patches):
                compiled.packed_patch_rows(
                    _packed, k, layer.stride, layer.padding, oh, ow,
                    _patches, r0, r1,
                )
        else:
            patch_out = ctx.arena.view("patch", (rows, k * k * wc_in), packed.dtype)
            patches, _, _ = binary_conv.packed_patch_matrix(
                packed, k, layer.stride, layer.padding, out=patch_out
            )
        if patches.shape[1] != self.flat_filters.shape[1]:
            raise ValueError("activation and filter packing widths do not match")
        out = self._xor_popcount_tiles(patches, self.flat_filters, rows, ctx, gather)
        return self._out_tensor(out.reshape((n, oh, ow) + out.shape[1:]),
                                layer.out_channels)

    def _run_input_conv(self, x: Tensor, ctx: _ExecContext) -> Tensor:
        layer = self.layer
        if x.packed:
            raise ValueError(f"{layer.name}: expected an unpacked integer image")
        image = np.asarray(x.data)
        if image.dtype.kind not in "ui":
            raise ValueError(
                f"{layer.name}: expected an integer image, got {image.dtype}"
            )
        # Same range validation the bit-plane path applies in
        # ``split_bitplanes``: the exact GEMM would happily convolve
        # out-of-range values, but the compiled thresholds were only
        # bisected over the ``input_bits`` range — and the interpreter
        # raises, so the plan must too.
        if image.size:
            if image.dtype.kind == "i" and image.min() < 0:
                raise ValueError("bit-plane splitting requires non-negative values")
            if image.max() >= (1 << layer.input_bits):
                raise ValueError(
                    f"image values do not fit in {layer.input_bits} bits"
                )
        k = layer.kernel_size
        windows = binary_conv.conv_windows(image, k, layer.stride, layer.padding)
        n, oh, ow = windows.shape[:3]
        rows = n * oh * ow
        cout = layer.out_channels
        volume = self.gemm_weights.shape[0]
        # Per row tile: gather integer patches straight into the GEMM-dtype
        # arena buffer (the copy casts), one exact BLAS GEMM against the ±1
        # filter matrix, then the epilogue — integer threshold + pack (the
        # compiled kernel when attached) or the float head's affine.
        patches = ctx.arena.view("patch", (rows, volume), self.gemm_dtype)
        x1 = ctx.arena.view("x1", (rows, cout), self.gemm_dtype)
        out = self._out_buffer(ctx, rows, cout)
        if self.float_out:
            affine = layer.affine_values

            def epilogue(r0: int, r1: int) -> None:
                out[r0:r1] = affine(x1[r0:r1])
        else:
            pack = (
                bitpack.threshold_pack_rows if self.compiled is None
                else self.compiled.threshold_pack_rows
            )

            def epilogue(r0: int, r1: int) -> None:
                pack(x1, self.threshold, self.flip, out, r0, r1,
                     self.out_word_size)

        def work(r0: int, r1: int) -> None:
            binary_conv.gather_patch_rows(windows, patches, r0, r1)
            np.matmul(patches[r0:r1], self.gemm_weights, out=x1[r0:r1])
            epilogue(r0, r1)

        row_bytes = (volume + cout) * self.gemm_dtype.itemsize
        ctx.run_tiles(rows, work, row_work=cout * volume,
                      row_tile=max(1, _INPUT_TILE_BYTES // row_bytes))
        return self._out_tensor(out.reshape((n, oh, ow) + out.shape[1:]), cout)


class FusedDenseStep(_FusedStepBase):
    """Fused binary dense → accumulator threshold → packed bits (or float head)."""

    def __init__(self, layer, layer_start: int, layer_stop: int,
                 threshold: Optional[np.ndarray], flip: Optional[np.ndarray],
                 out_word_size: Optional[int], out_slot: str) -> None:
        super().__init__(layer, layer_start, layer_stop, threshold, flip,
                         out_word_size, out_slot, layer.in_features)

    @property
    def describe(self) -> str:
        layer = self.layer
        return (
            f"fused dense(xor-popcount) {layer.name}: "
            f"{layer.in_features}→{layer.out_features}, {self._describe_out()}"
        )

    def run(self, x: Tensor, ctx: _ExecContext) -> Tensor:
        layer = self.layer
        if x.packed:
            if x.data.ndim != 2:
                raise ValueError(f"{layer.name}: packed input must be flattened first")
            packed = x.data
            features = x.true_channels
        else:
            data = np.asarray(x.data).reshape(x.data.shape[0], -1)
            bits = binarize_sign(data)
            packed = bitpack.pack_bits(bits, word_size=layer.word_size, axis=1)
            features = data.shape[1]
        if features != layer.in_features:
            raise ValueError(
                f"{layer.name}: expected {layer.in_features} input features, "
                f"got {features}"
            )
        if packed.shape[1] != self.weights_packed.shape[1]:
            raise ValueError("operand packing widths do not match")
        weights = self.weights_packed
        if self.compiled is not None and not weights.flags["C_CONTIGUOUS"]:
            weights = np.ascontiguousarray(weights)
        out = self._xor_popcount_tiles(
            np.ascontiguousarray(packed), weights, packed.shape[0], ctx
        )
        return self._out_tensor(out, layer.out_features)


class ExecutionPlan:
    """A compiled network: fused steps + arena pool + thread fan-out.

    Plans hold compile-time snapshots of every array they depend on
    (packed weights, thresholds, batch-norm parameters); :meth:`is_current`
    checks those identities so :func:`get_plan` can transparently recompile
    after a weight or batch-norm reassignment — a stale plan is never
    executed (same lock-free snapshot discipline as the layers'
    packed-weight caches).
    """

    def __init__(self, network, steps: Sequence[object],
                 attr_snapshots: Sequence[Tuple[object, str, object]],
                 per_sample_bytes: int) -> None:
        self.network_name = network.name
        self.input_shape = tuple(network.input_shape)
        self.steps = list(steps)
        self.per_sample_bytes = int(per_sample_bytes)
        self._layers_snapshot = tuple(network.layers)
        self._attr_snapshots = list(attr_snapshots)
        self._arena_lock = threading.Lock()
        self._arenas: List[BufferArena] = []
        #: Resolved backend name after :meth:`select_backend` ("numpy" until
        #: then) and the per-step selection report it produced.
        self.backend_spec = "numpy"
        self.backend_selection: Optional[Dict[str, str]] = None
        self._backend_requested: Optional[str] = None

    # ------------------------------------------------------------- validity
    def is_current(self, network) -> bool:
        """Whether this plan still matches the network it was compiled from."""
        layers = network.layers
        if len(layers) != len(self._layers_snapshot):
            return False
        for layer, snap in zip(layers, self._layers_snapshot):
            if layer is not snap:
                return False
        for obj, attr, snapshot in self._attr_snapshots:
            if getattr(obj, attr, None) is not snapshot:
                return False
        return True

    @property
    def fused_step_count(self) -> int:
        return sum(1 for step in self.steps if step.fused)

    # ------------------------------------------------------------- resources
    def _acquire_arena(self) -> BufferArena:
        with self._arena_lock:
            if self._arenas:
                return self._arenas.pop()
        return BufferArena()

    def _release_arena(self, arena: BufferArena) -> None:
        with self._arena_lock:
            self._arenas.append(arena)

    # ------------------------------------------------------------- backends
    def select_backend(self, spec: Optional[str] = None) -> Dict[str, str]:
        """Attach compiled kernels to this plan's fused steps (idempotent).

        ``spec`` is a :data:`repro.core.backends.BACKEND_CHOICES` name;
        ``None`` uses the process default (``REPRO_BACKEND`` or ``auto``).
        Each eligible step is verified bit-exact against the NumPy
        reference before it adopts a compiled kernel — see
        :func:`repro.core.backends.select_for_plan`.  Re-selection with the
        same spec is a no-op, so warm paths may call this per batch.
        """
        from repro.core import backends

        spec = (spec or backends.default_backend_spec()).lower()
        if spec == self._backend_requested and self.backend_selection is not None:
            return self.backend_selection
        report = backends.select_for_plan(self, spec)
        self._backend_requested = spec
        return report

    def backend_report(self) -> Dict[str, object]:
        """What each step runs on: spec, resolved backend, per-step map."""
        steps = self.backend_selection
        if steps is None:
            steps = {
                f"[{index}] {step.describe}": "numpy"
                for index, step in enumerate(self.steps)
            }
        return {
            "spec": self._backend_requested or "numpy",
            "backend": self.backend_spec,
            "steps": dict(steps),
        }

    # ------------------------------------------------------------- execution
    def coerce_input(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x), Layout.NHWC)
        if x.data.shape[1:] != self.input_shape:
            raise ValueError(
                f"{self.network_name}: expected input shape (N,)+{self.input_shape}, "
                f"got {x.data.shape}"
            )
        return x

    def execute(
        self,
        x,
        threads: Optional[int] = None,
        step_times: Optional[list] = None,
        row_tile: Optional[int] = None,
        col_tile: Optional[int] = None,
    ) -> Tensor:
        """Run the plan on a batch; bit-identical to ``Network.forward``.

        Parameters
        ----------
        x:
            Input batch (ndarray or :class:`Tensor`).
        threads:
            Tile fan-out; defaults to :func:`default_num_threads`.
        step_times:
            Optional list; ``(step, seconds)`` is appended per step so the
            engine can attribute wall clock to layers.
        row_tile, col_tile:
            Tile-shape overrides (rows per tile of the xor-popcount steps —
            the input conv bounds its tiles by bytes instead — and filter
            columns per inner block of the NumPy fused kernel).  ``None``
            keeps the built-in defaults; the per-host auto-tuner
            (:mod:`repro.core.backends.tuner`) supplies measured winners.
            Tiling never changes results, only speed.
        """
        current = self.coerce_input(x)
        threads = default_num_threads() if threads is None else max(1, int(threads))
        arena = self._acquire_arena()
        pool = _shared_pool(threads) if threads > 1 else None
        ctx = _ExecContext(arena, pool, threads, row_tile, col_tile)
        try:
            for step in self.steps:
                t0 = time.perf_counter()
                current = step.run(current, ctx)
                if step_times is not None:
                    step_times.append((step, time.perf_counter() - t0))
            if arena.owns(current.data):
                # Detach before the arena returns to the free-list: another
                # execution may borrow (and overwrite) it the moment the
                # finally block runs.  Ownership is checked on the actual
                # buffer, not the step type, because a fallback step may
                # pass an arena-backed tensor through unchanged.
                current = Tensor(
                    current.data.copy(), current.layout,
                    current.packed, current.true_channels,
                )
            return current
        finally:
            self._release_arena(arena)

    # ------------------------------------------------------------- reporting
    def describe(self) -> str:
        """Human-readable plan IR (one line per step)."""
        lines = [
            f"ExecutionPlan for {self.network_name!r} "
            f"({self.fused_step_count}/{len(self.steps)} steps fused, "
            f"~{self.per_sample_bytes / 2**20:.2f} MiB arena/sample)"
        ]
        for index, step in enumerate(self.steps):
            slot = getattr(step, "out_slot", "-")
            lines.append(f"  [{index:2d}] {step.describe}  → {slot}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ExecutionPlan(network={self.network_name!r}, "
            f"steps={len(self.steps)}, fused={self.fused_step_count})"
        )


# ----------------------------------------------------------------- compile
def _match_fused_block(layers, index):
    """Match a fusable block starting at ``layers[index]``.

    Returns ``(consumed, predicate, out_word_size)``.  A block is a single
    binary layer that packs its own output (``output_binary=True``), the
    unfused three-layer spelling ``conv/dense → BatchNorm2d → Binarize``
    — for both, ``predicate`` replicates the matched path's exact
    arithmetic (including float32 casts) per channel — or else a single
    float head, returned as ``(1, None, None)``.
    """
    layer = layers[index]
    channels = (
        layer.out_features if isinstance(layer, BinaryDense) else layer.out_channels
    )
    if layer.output_binary:
        return 1, layer.fused_output_bits, layer.word_size
    if index + 2 < len(layers):
        bn, sign = layers[index + 1], layers[index + 2]
        if (
            isinstance(bn, BatchNorm2d)
            and isinstance(sign, Binarize)
            and bn.params.channels == channels
        ):
            def predicate(x1, _layer=layer, _bn=bn):
                return binarize_sign(_bn.normalize_values(_layer.affine_values(x1)))

            return 3, predicate, sign.word_size
    return 1, None, None


def _fused_attr_snapshots(step) -> List[Tuple[object, str, object]]:
    """Identity snapshots of everything a fused step's lowering depends on."""
    layer = step.layer
    snapshots = [
        (layer, "_weight_bits", layer._weight_bits),
        (layer, "batchnorm", layer.batchnorm),
        (layer, "bias", layer.bias),
        (layer, "threshold", layer.threshold),
        (layer, "gamma", layer.gamma),
    ]
    return snapshots


def _slot_bytes(step, out_shape: tuple) -> Dict[str, int]:
    """Per-image bytes each arena slot holds while ``step`` runs."""
    layer = step.layer
    positions = int(np.prod(out_shape[:-1]))  # 1 for a dense step
    channels = out_shape[-1]
    if step.float_out:
        out_bytes = positions * channels * 4
    else:
        out_bytes = positions * bitpack.words_per_channel(
            channels, step.out_word_size
        ) * np.dtype(bitpack.word_dtype(step.out_word_size)).itemsize
    slots = {step.out_slot: out_bytes}
    if step.is_input_conv:
        # GEMM-dtype patch matrix and x1 map.
        itemsize = step.gemm_dtype.itemsize
        volume = layer.kernel_size ** 2 * layer.in_channels
        slots["patch"] = positions * volume * itemsize
        slots["x1"] = positions * channels * itemsize
        return slots
    if isinstance(step, FusedConvStep) and not (
        layer.kernel_size == 1 and layer.padding == 0 and layer.stride == 1
    ):
        pixel_bytes = bitpack.words_per_channel(
            layer.in_channels, layer.word_size
        ) * np.dtype(bitpack.word_dtype(layer.word_size)).itemsize
        slots["patch"] = positions * layer.kernel_size ** 2 * pixel_bytes
    if step.float_out:
        slots["acc"] = positions * channels * 8  # int64 disagreement counts
    return slots


def compile_plan(network) -> ExecutionPlan:
    """Compile ``network`` into an :class:`ExecutionPlan`."""
    shapes = network.layer_shapes()
    layers = list(network.layers)
    steps: List[object] = []
    snapshots: List[Tuple[object, str, object]] = []
    # Fused steps work in the arena, whose slots each grow to the largest
    # view any step takes of them; fallback steps allocate afresh.
    arena_slots: Dict[str, int] = {}
    fallback_peak = 0
    fused_index = 0
    i = 0
    while i < len(layers):
        layer = layers[i]
        if not isinstance(layer, (InputConv2d, BinaryConv2d, BinaryDense)):
            step = LayerStep(layer, i)
            in_shape, out_shape = shapes[i][1], shapes[i][2]
            working = 4 * (int(np.prod(in_shape)) + int(np.prod(out_shape)))
            steps.append(step)
            fallback_peak = max(fallback_peak, working)
            i += 1
            continue
        consumed, predicate, out_word_size = _match_fused_block(layers, i)
        threshold = flip = None
        if predicate is not None:
            bound = layer.x1_magnitude_bound
            threshold, flip = exact_integer_threshold(
                predicate, shapes[i][2][-1], -bound, bound
            )
        step_type = FusedDenseStep if isinstance(layer, BinaryDense) else FusedConvStep
        step = step_type(
            layer, i, i + consumed, threshold, flip, out_word_size,
            f"act{fused_index % 2}",
        )
        fused_index += 1
        for slot, nbytes in _slot_bytes(step, shapes[i][2]).items():
            arena_slots[slot] = max(arena_slots.get(slot, 0), nbytes)
        snapshots.extend(_fused_attr_snapshots(step))
        for extra in layers[i + 1:i + consumed]:
            if isinstance(extra, BatchNorm2d):
                snapshots.append((extra, "params", extra.params))
        steps.append(step)
        i += consumed
    per_sample = max(sum(arena_slots.values()), fallback_peak)
    return ExecutionPlan(network, steps, snapshots, per_sample)


def get_plan(network) -> ExecutionPlan:
    """Compiled plan for ``network``, cached on the network object.

    The cached plan is revalidated against the network's current layer and
    parameter identities on every call; a reassignment (weights, batch-norm,
    layer list) triggers a transparent recompile.  Concurrent first calls
    may compile twice — both results are identical and the last store wins,
    mirroring the packed-weight caches' lock-free discipline.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.plan import get_plan
    >>> from repro.models.zoo import build_phonebit_network, micro_cnn_config
    >>> network = build_phonebit_network(micro_cnn_config())
    >>> plan = get_plan(network)
    >>> plan.fused_step_count >= 2        # conv + dense blocks were fused
    True
    >>> get_plan(network) is plan         # cached until weights change
    True
    >>> batch = np.zeros((2, 8, 8, 3), dtype=np.uint8)
    >>> out = plan.execute(batch, threads=1)
    >>> bool(np.array_equal(out.data, network.forward(batch).data))
    True
    """
    plan = getattr(network, "_plan_cache", None)
    if plan is not None and plan.is_current(network):
        return plan
    plan = compile_plan(network)
    network._plan_cache = plan
    return plan
