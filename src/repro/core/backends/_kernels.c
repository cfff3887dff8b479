/* Compiled inner loops for the fused execution plan.
 *
 * One translation unit, four kernels — the xor-popcount GEMM, the
 * fused-threshold-accumulate-and-pack kernel, the packed
 * patch-extraction gather, and the input convolution's threshold-pack of
 * float32 pre-activations.  The packed ones operate on *bytes*: a packed
 * activation/filter row is an opaque little-endian bit stream, so one
 * kernel serves every packing word width (uchar..ulong) without
 * per-dtype specializations.  Bit i of byte j holds channel 8*j + i,
 * exactly the layout numpy.packbits(bitorder="little") produces and the
 * little-endian word views in repro.core.bitpack reinterpret.
 *
 * Threading contract (mirrors bitpack.fused_xor_threshold_rows): every
 * kernel writes only rows [row_start, row_stop) of its output, so the
 * execution plan's tile pool may call it concurrently on disjoint row
 * ranges.  No kernel allocates, locks, or touches global state; cffi
 * releases the GIL for the duration of each call.
 *
 * OpenMP-free by design — parallelism belongs to the plan's shared
 * thread pool, not to a second competing runtime.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Popcount of one 8-byte chunk loaded from a (possibly unaligned) byte
 * pointer.  memcpy compiles to a single unaligned load on every target
 * worth having; __builtin_popcountll compiles to POPCNT where the
 * compile flags allow it and a branch-free SWAR sequence elsewhere. */
static inline int popc8(const uint8_t *p) {
    uint64_t v;
    memcpy(&v, p, 8);
    return __builtin_popcountll(v);
}

/* Number of disagreeing bits between two n_bytes-long packed rows. */
static inline int32_t xor_popcount_row(const uint8_t *a, const uint8_t *b,
                                       ptrdiff_t n_bytes) {
    int32_t count = 0;
    ptrdiff_t i = 0;
    for (; i + 32 <= n_bytes; i += 32) {
        uint64_t v0, v1, v2, v3, w0, w1, w2, w3;
        memcpy(&v0, a + i, 8);      memcpy(&w0, b + i, 8);
        memcpy(&v1, a + i + 8, 8);  memcpy(&w1, b + i + 8, 8);
        memcpy(&v2, a + i + 16, 8); memcpy(&w2, b + i + 16, 8);
        memcpy(&v3, a + i + 24, 8); memcpy(&w3, b + i + 24, 8);
        count += __builtin_popcountll(v0 ^ w0)
               + __builtin_popcountll(v1 ^ w1)
               + __builtin_popcountll(v2 ^ w2)
               + __builtin_popcountll(v3 ^ w3);
    }
    for (; i + 8 <= n_bytes; i += 8) {
        uint64_t v, w;
        memcpy(&v, a + i, 8);
        memcpy(&w, b + i, 8);
        count += __builtin_popcountll(v ^ w);
    }
    for (; i < n_bytes; i++) {
        count += __builtin_popcountll((uint64_t)(a[i] ^ b[i]));
    }
    return count;
}

/* Fused xor-popcount GEMM tile -> accumulator threshold -> packed bits.
 *
 * For every row i in [row_start, row_stop) of `a` (row stride a_stride
 * bytes, payload n_bytes) against all `cols` rows of `b`:
 *
 *     bit[i, j] = (xor_popcount(a[i], b[j]) <= thresh[j]) ^ flip[j]
 *
 * packed little-endian along j into out (row stride out_stride bytes).
 * Trailing padding bits of each output row are written as zero, matching
 * the NumPy reference packer. */
void repro_fused_xor_threshold_pack(
    const uint8_t *a, ptrdiff_t a_stride,
    const uint8_t *b, ptrdiff_t b_stride,
    ptrdiff_t n_bytes,
    const int32_t *thresh, const uint8_t *flip, ptrdiff_t cols,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    for (ptrdiff_t i = row_start; i < row_stop; i++) {
        const uint8_t *arow = a + i * a_stride;
        uint8_t *orow = out + i * out_stride;
        memset(orow, 0, (size_t)out_stride);
        for (ptrdiff_t j = 0; j < cols; j++) {
            int32_t d = xor_popcount_row(arow, b + j * b_stride, n_bytes);
            uint8_t bit = (uint8_t)((d <= thresh[j]) ^ (flip[j] != 0));
            orow[j >> 3] |= (uint8_t)(bit << (j & 7));
        }
    }
}

/* Rows of `a` that share one pass over `b` in the plain GEMM. */
#define GEMM_ROW_BLOCK 8

/* Plain all-pairs xor-popcount GEMM: out[i, j] = xor_popcount(a[i], b[j])
 * for rows [row_start, row_stop), int64 output (the dtype the NumPy
 * GEMM produces).  out_cols is the full output row width so a tile call
 * indexes the shared output correctly.  Rows are processed in blocks of
 * GEMM_ROW_BLOCK against each filter row in turn, so a filter bank larger
 * than the cache (a dense head's) streams once per block, not per row. */
void repro_xor_popcount_gemm(
    const uint8_t *a, ptrdiff_t a_stride,
    const uint8_t *b, ptrdiff_t b_stride,
    ptrdiff_t n_bytes, ptrdiff_t cols,
    int64_t *out, ptrdiff_t out_cols,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    for (ptrdiff_t i0 = row_start; i0 < row_stop; i0 += GEMM_ROW_BLOCK) {
        ptrdiff_t i1 = i0 + GEMM_ROW_BLOCK < row_stop ? i0 + GEMM_ROW_BLOCK
                                                      : row_stop;
        for (ptrdiff_t j = 0; j < cols; j++) {
            const uint8_t *brow = b + j * b_stride;
            for (ptrdiff_t i = i0; i < i1; i++) {
                out[i * out_cols + j] = (int64_t)xor_popcount_row(
                    a + i * a_stride, brow, n_bytes);
            }
        }
    }
}

/* Packed patch extraction (im2col on packed words, as bytes).
 *
 * Input: packed NHWC activations of logical shape (n, h, w, pix_bytes)
 * where pix_bytes = words-per-channel * word-bytes, C-contiguous.
 * Output rows [row_start, row_stop) of the (n*oh*ow, k*k*pix_bytes)
 * patch matrix, row stride out_stride bytes.  Out-of-image taps are
 * zero-filled (packed zero == all-(-1) activations, the binary padding
 * convention).  Interior rows reduce to k memcpys of k*pix_bytes. */
void repro_packed_patch_rows(
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t pix_bytes,
    ptrdiff_t k, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    const ptrdiff_t img_bytes = h * w * pix_bytes;
    const ptrdiff_t span_bytes = k * pix_bytes;  /* one kh tap row */
    for (ptrdiff_t r = row_start; r < row_stop; r++) {
        ptrdiff_t ox = r % ow;
        ptrdiff_t oy = (r / ow) % oh;
        ptrdiff_t img = r / (ow * oh);
        const uint8_t *xi = x + img * img_bytes;
        uint8_t *orow = out + r * out_stride;
        ptrdiff_t ix0 = ox * stride - padding;
        /* Columns of the tap window that fall inside the image. */
        ptrdiff_t kw_lo = ix0 < 0 ? -ix0 : 0;
        ptrdiff_t kw_hi = w - ix0 < k ? w - ix0 : k;
        if (kw_hi < kw_lo) kw_hi = kw_lo;
        for (ptrdiff_t kh = 0; kh < k; kh++) {
            ptrdiff_t iy = oy * stride - padding + kh;
            uint8_t *dst = orow + kh * span_bytes;
            if (iy < 0 || iy >= h || kw_lo >= k) {
                memset(dst, 0, (size_t)span_bytes);
                continue;
            }
            if (kw_lo > 0)
                memset(dst, 0, (size_t)(kw_lo * pix_bytes));
            memcpy(dst + kw_lo * pix_bytes,
                   xi + (iy * w + ix0 + kw_lo) * pix_bytes,
                   (size_t)((kw_hi - kw_lo) * pix_bytes));
            if (kw_hi < k)
                memset(dst + kw_hi * pix_bytes, 0,
                       (size_t)((k - kw_hi) * pix_bytes));
        }
    }
}

/* Threshold + pack of float32 pre-activation rows (the input conv).
 *
 * For every row i in [row_start, row_stop) of x1 (row stride x1_stride
 * floats, `cols` channels):
 *
 *     bit[i, j] = ((int32_t)x1[i, j] >= thresh[j]) ^ flip[j]
 *
 * packed little-endian along j into out (row stride out_stride bytes),
 * trailing padding bits zero.  The caller guarantees every x1 value is an
 * integer of magnitude below 2^24 (the plan's float32 exact-GEMM bound),
 * so the conversion is exact and the compare is a pure integer compare. */
void repro_threshold_pack_f32(
    const float *x1, ptrdiff_t x1_stride, ptrdiff_t cols,
    const int32_t *thresh, const uint8_t *flip,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop)
{
    const ptrdiff_t whole = cols >> 3;          /* bytes of 8 channels */
    const ptrdiff_t used = (cols + 7) >> 3;     /* ... plus a partial one */
    for (ptrdiff_t i = row_start; i < row_stop; i++) {
        const float *xrow = x1 + i * x1_stride;
        uint8_t *orow = out + i * out_stride;
        for (ptrdiff_t jb = 0; jb < used; jb++) {
            const ptrdiff_t j0 = jb << 3;
            const ptrdiff_t n = jb < whole ? 8 : cols - j0;
            unsigned byte = 0;
            for (ptrdiff_t t = 0; t < n; t++) {
                unsigned bit = ((int32_t)xrow[j0 + t] >= thresh[j0 + t])
                               ^ (flip[j0 + t] != 0);
                byte |= bit << t;
            }
            orow[jb] = (uint8_t)byte;
        }
        if (out_stride > used)
            memset(orow + used, 0, (size_t)(out_stride - used));
    }
}
