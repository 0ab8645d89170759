/* One-call executor for compiled two-plane programs over uint64 lane words.
 *
 * The Python side (repro.backends.native) lowers a compiled op list --
 * (opcode, dst, a, b) tuples over plane slots, see repro.circuits.compiled
 * -- to a flat int32 array once per program.  Slot planes live in two
 * slabs (plane 0 / plane 1, one row per slot, lane j at bit j&63 of word
 * j>>6) and the whole gate sweep runs here without re-entering the
 * interpreter between ops.  Two entry points share one op-sweep loop
 * (sweep_ops):
 *
 *   repro_run_program               full-width slabs, every slot kept
 *   repro_rank_range_select_diff    one verification shard: input rows
 *                                   generated per tile from the
 *                                   valid-string masks, fused compare --
 *                                   rank range in, mismatch words out
 *
 * Two-plane Kleene semantics (Table 3 of the paper):
 *   AND: d1 = a1 & b1, d0 = a0 | b0        OR is the plane-dual
 *   INV: swap planes                        BUF: copy
 *   XOR: d0 = (a0&b0)|(a1&b1), d1 = (a0&b1)|(a1&b0)
 *
 * Opcode values mirror repro.backends.base (OP_AND..OP_BUF); the Python
 * loader checks repro_kernel_abi() before trusting a cached build.
 *
 * Tail-mask note: every input row is already masked (bits at lane index
 * >= lanes are zero) and all five ops preserve that invariant, so the
 * sweep needs no re-masking; `tail_mask` is still applied to each written
 * row's last word as a guard, and repro_not_masked is the one primitive
 * that genuinely re-masks.
 */

#include <stdint.h>

#define REPRO_KERNEL_ABI 3

#define OP_AND 0
#define OP_OR 1
#define OP_INV 2
#define OP_XOR 3
#define OP_BUF 4

int32_t repro_kernel_abi(void) { return REPRO_KERNEL_ABI; }

/* Lane-word tile: the program loop runs all ops over one column block
 * of the slot slab before moving on, so the working set per tile is
 * 2 planes * n_slots * REPRO_TILE_WORDS * 8 bytes -- cache-resident for
 * realistic slot counts (a few hundred) -- instead of streaming every
 * slot row through memory once per op.  Ops are independent across
 * words, so tiling the word axis does not change results. */
#define REPRO_TILE_WORDS 256

int64_t repro_tile_words(void) { return REPRO_TILE_WORDS; }

/* The op sweep over `span` words of every slot row; slot s starts at
 * p0 + s * stride (resp. p1).  `tail` is ANDed into each written row's
 * last word (all-ones when the span does not end the plane). */
static void sweep_ops(const int32_t *prog, int64_t n_ops, uint64_t *p0,
                      uint64_t *p1, int64_t stride, int64_t span,
                      uint64_t tail) {
    for (int64_t i = 0; i < n_ops; i++) {
        const int32_t op = prog[4 * i];
        uint64_t *d0 = p0 + (int64_t)prog[4 * i + 1] * stride;
        uint64_t *d1 = p1 + (int64_t)prog[4 * i + 1] * stride;
        const uint64_t *a0 = p0 + (int64_t)prog[4 * i + 2] * stride;
        const uint64_t *a1 = p1 + (int64_t)prog[4 * i + 2] * stride;
        const uint64_t *b0 = p0 + (int64_t)prog[4 * i + 3] * stride;
        const uint64_t *b1 = p1 + (int64_t)prog[4 * i + 3] * stride;
        int64_t w;
        switch (op) {
        case OP_AND:
            for (w = 0; w < span; w++) {
                d1[w] = a1[w] & b1[w];
                d0[w] = a0[w] | b0[w];
            }
            break;
        case OP_OR:
            for (w = 0; w < span; w++) {
                d0[w] = a0[w] & b0[w];
                d1[w] = a1[w] | b1[w];
            }
            break;
        case OP_INV:
            for (w = 0; w < span; w++) {
                d0[w] = a1[w];
                d1[w] = a0[w];
            }
            break;
        case OP_XOR:
            for (w = 0; w < span; w++) {
                const uint64_t x0 = a0[w], x1 = a1[w];
                const uint64_t y0 = b0[w], y1 = b1[w];
                d0[w] = (x0 & y0) | (x1 & y1);
                d1[w] = (x0 & y1) | (x1 & y0);
            }
            break;
        default: /* OP_BUF */
            for (w = 0; w < span; w++) {
                d0[w] = a0[w];
                d1[w] = a1[w];
            }
            break;
        }
        if (span) {
            d0[span - 1] &= tail;
            d1[span - 1] &= tail;
        }
    }
}

/* d = OR over compare triples [slot, a_slot, b_slot] of
 *   (got ^ expected) on both planes, expected = (sel & a) | (~sel & b),
 * over one tile of the scratch slab.  ~sel leaves tail bits set; the
 * caller masks the plane's last diff word. */
static void compare_tile(const int32_t *cmp, int64_t n_out,
                         const uint64_t *s0, const uint64_t *s1,
                         const uint64_t *sel, uint64_t *d, int64_t span) {
    const int64_t stride = REPRO_TILE_WORDS;
    int64_t w;
    for (w = 0; w < span; w++)
        d[w] = 0;
    for (int64_t i = 0; i < n_out; i++) {
        const uint64_t *r0 = s0 + (int64_t)cmp[3 * i] * stride;
        const uint64_t *r1 = s1 + (int64_t)cmp[3 * i] * stride;
        const uint64_t *a0 = s0 + (int64_t)cmp[3 * i + 1] * stride;
        const uint64_t *a1 = s1 + (int64_t)cmp[3 * i + 1] * stride;
        const uint64_t *b0 = s0 + (int64_t)cmp[3 * i + 2] * stride;
        const uint64_t *b1 = s1 + (int64_t)cmp[3 * i + 2] * stride;
        for (w = 0; w < span; w++) {
            const uint64_t s = sel[w];
            const uint64_t e0 = (s & a0[w]) | (~s & b0[w]);
            const uint64_t e1 = (s & a1[w]) | (~s & b1[w]);
            d[w] |= (r0[w] ^ e0) | (r1[w] ^ e1);
        }
    }
}

static uint64_t low_ones(int64_t n) {
    return n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
}

/* Mask for the last of `words` lane words covering `lanes` lanes. */
static uint64_t tail_of(int64_t lanes, int64_t words) {
    return low_ones(lanes - 64 * (words - 1));
}

void repro_run_program(const int32_t *prog, int64_t n_ops, uint64_t *p0,
                       uint64_t *p1, int64_t words, uint64_t tail_mask) {
    for (int64_t t0 = 0; t0 < words; t0 += REPRO_TILE_WORDS) {
        const int64_t span =
            words - t0 < REPRO_TILE_WORDS ? words - t0 : REPRO_TILE_WORDS;
        sweep_ops(prog, n_ops, p0 + t0, p1 + t0, words, span,
                  t0 + span == words ? tail_mask : ~(uint64_t)0);
    }
}

int64_t repro_popcount(const uint64_t *a, int64_t words);

/* ------------------------------------------------------------------ */
/* Row generators: the three bit-layout shapes the exhaustive pair
 * product is built from.  Lanes come in blocks of `period`; block k
 * covers lanes [k * period, (k + 1) * period) and only blocks k < count
 * exist (later lanes are zero).  Each generator writes lane words
 * [w0, w0 + span) of its row into dst[0 .. span).
 *
 *   GEN_PATTERN  block bits = bits [0, period) of `src` (h side: the
 *                per-string mask tiled once per g row)
 *   GEN_RUNS     block k all ones iff bit first + k of `src` is set
 *                (g side: one string's bit smeared over its row)
 *   GEN_PREFIX   block k = min(first + k, period) low ones (the
 *                block-triangular select row)
 *
 * GEN_PATTERN reads `src` through 64-bit windows, so the bit string
 * must be followed by one spare word.                                 */
/* ------------------------------------------------------------------ */

enum { GEN_PATTERN, GEN_RUNS, GEN_PREFIX };

/* Bits [pos, pos + 64) of `src`. */
static uint64_t bits_at(const uint64_t *src, int64_t pos) {
    const int64_t i = pos >> 6;
    const int sh = (int)(pos & 63);
    return sh ? (src[i] >> sh) | (src[i + 1] << (64 - sh)) : src[i];
}

/* Lanes [pos, pos + n) of block k, shifted down to bit 0 (n <= 64). */
static uint64_t gen_segment(int kind, const uint64_t *src, int64_t first,
                            int64_t k, int64_t pos, int64_t n) {
    if (kind == GEN_PATTERN)
        return bits_at(src, pos) & low_ones(n);
    if (kind == GEN_RUNS)
        return (src[(first + k) >> 6] >> ((first + k) & 63)) & 1 ? low_ones(n)
                                                                 : 0;
    const int64_t m = first + k - pos;
    return low_ones(m < 0 ? 0 : m > n ? n : m);
}

/* Words lying wholly inside one block: n words of block k from `pos`. */
static void gen_words(int kind, uint64_t *dst, int64_t n, const uint64_t *src,
                      int64_t first, int64_t k, int64_t pos) {
    int64_t j;
    if (kind == GEN_PATTERN) {
        const uint64_t *s = src + (pos >> 6);
        const int sh = (int)(pos & 63);
        if (sh)
            for (j = 0; j < n; j++)
                dst[j] = (s[j] >> sh) | (s[j + 1] << (64 - sh));
        else
            for (j = 0; j < n; j++)
                dst[j] = s[j];
    } else if (kind == GEN_RUNS) {
        const uint64_t v = (src[(first + k) >> 6] >> ((first + k) & 63)) & 1
                               ? ~(uint64_t)0
                               : 0;
        for (j = 0; j < n; j++)
            dst[j] = v;
    } else {
        for (j = 0; j < n; j++)
            dst[j] = gen_segment(GEN_PREFIX, src, first, k, pos + 64 * j, 64);
    }
}

static void gen_row(int kind, uint64_t *dst, int64_t w0, int64_t span,
                    const uint64_t *src, int64_t first, int64_t count,
                    int64_t period) {
    int64_t k = w0 * 64 / period, pos = w0 * 64 % period;
    int64_t w = 0;
    while (w < span) {
        uint64_t out = 0;
        int64_t filled = 0;
        if (k < count && pos <= period - 64) { /* whole words in block k */
            int64_t n = (period - pos) >> 6;
            if (n > span - w)
                n = span - w;
            gen_words(kind, dst + w, n, src, first, k, pos);
            w += n;
            pos += 64 * n;
            if (pos == period) {
                pos = 0;
                k++;
            }
            continue;
        }
        while (filled < 64 && k < count) { /* a word across blocks */
            int64_t n = period - pos;
            if (n > 64 - filled)
                n = 64 - filled;
            out |= gen_segment(kind, src, first, k, pos, n) << filled;
            filled += n;
            pos += n;
            if (pos == period) {
                pos = 0;
                k++;
            }
        }
        dst[w++] = out;
    }
}

/* Full-plane wrappers (PlaneBackend.from_pattern / expand_bits /
 * from_prefix_runs): `words` words covering `lanes` lanes, tail-masked.
 * `pat` carries one spare word past its ceil(period / 64). */
static void fill_plane(int kind, uint64_t *dst, int64_t words,
                       const uint64_t *src, int64_t first, int64_t period,
                       int64_t lanes) {
    gen_row(kind, dst, 0, words, src, first, (lanes + period - 1) / period,
            period);
    if (words)
        dst[words - 1] &= tail_of(lanes, words);
}

void repro_fill_pattern(uint64_t *dst, int64_t words, const uint64_t *pat,
                        int64_t period, int64_t lanes) {
    fill_plane(GEN_PATTERN, dst, words, pat, 0, period, lanes);
}

void repro_fill_expand(uint64_t *dst, int64_t words, const uint64_t *bits,
                       int64_t run, int64_t lanes) {
    fill_plane(GEN_RUNS, dst, words, bits, 0, run, lanes);
}

void repro_fill_prefix(uint64_t *dst, int64_t words, int64_t first,
                       int64_t period, int64_t lanes) {
    fill_plane(GEN_PREFIX, dst, words, 0, first, period, lanes);
}

/* One verification shard of the valid-string pair product, rank range
 * in, mismatch words out.  Lane (k, h) = k * period + h pairs string
 * g_lo + k (g side) with string h (h side), for k < g_hi - g_lo and
 * h < period; per tile, the kernel generates into the scratch slab
 *
 *   g_slots[b]  bit b of the g string   (GEN_RUNS over mask row b)
 *   h_slots[b]  bit b of the h string   (GEN_PATTERN over mask row b)
 *   sel         lanes with h <= g       (GEN_PREFIX, first = g_lo + 1)
 *
 * (an input slot of -1 is one the program never reads: not generated)
 *
 * then runs the program and checks each compared slot ``cmp[3j]``
 * against the lane-wise mux of two other slots,
 *
 *   expected = (sel & slot cmp[3j+1]) | (~sel & slot cmp[3j+2])
 *
 * in-tile on both planes (compare_tile), so the expected planes never
 * materialize and `diff` is the only full-width buffer.
 *
 *   m0/m1       `width` mask rows of `mask_words` words each: bit i of
 *               row b is set iff bit b of string i can resolve to 0
 *               (resp. 1); mask_words >= ceil(period / 64) + 1
 *   fills/n_fill    [slot, kind] pairs for slots that are neither
 *               inputs nor written by the program: kind 0 reads as all
 *               zero, 1 as the constant 0, 2 as the constant 1
 *   scratch     (2 * n_slots + 1) * REPRO_TILE_WORDS words
 *   diff        ceil((g_hi - g_lo) * period / 64) words, overwritten
 *
 * Returns the popcount of `diff` (mismatching lanes). */
int64_t repro_rank_range_select_diff(
    const int32_t *prog, int64_t n_ops, const int32_t *g_slots,
    const int32_t *h_slots, const uint64_t *m0, const uint64_t *m1,
    int64_t width, int64_t mask_words, int64_t period, int64_t g_lo,
    int64_t g_hi, const int32_t *fills, int64_t n_fill, const int32_t *cmp,
    int64_t n_out, uint64_t *scratch, int64_t n_slots, uint64_t *diff) {
    const int64_t count = g_hi - g_lo;
    const int64_t lanes = count * period;
    const int64_t words = (lanes + 63) >> 6;
    uint64_t *s0 = scratch;
    uint64_t *s1 = scratch + n_slots * REPRO_TILE_WORDS;
    uint64_t *sel = scratch + 2 * n_slots * REPRO_TILE_WORDS;
    for (int64_t t0 = 0; t0 < words; t0 += REPRO_TILE_WORDS) {
        const int64_t span =
            words - t0 < REPRO_TILE_WORDS ? words - t0 : REPRO_TILE_WORDS;
        int64_t i, w;
        for (i = 0; i < n_fill; i++) {
            uint64_t *r0 = s0 + (int64_t)fills[2 * i] * REPRO_TILE_WORDS;
            uint64_t *r1 = s1 + (int64_t)fills[2 * i] * REPRO_TILE_WORDS;
            const uint64_t v0 = fills[2 * i + 1] == 1 ? ~(uint64_t)0 : 0;
            const uint64_t v1 = fills[2 * i + 1] == 2 ? ~(uint64_t)0 : 0;
            for (w = 0; w < span; w++) {
                r0[w] = v0;
                r1[w] = v1;
            }
        }
        for (i = 0; i < width; i++) {
            const uint64_t *r0 = m0 + i * mask_words;
            const uint64_t *r1 = m1 + i * mask_words;
            const int64_t g = (int64_t)g_slots[i] * REPRO_TILE_WORDS;
            const int64_t h = (int64_t)h_slots[i] * REPRO_TILE_WORDS;
            if (g >= 0) {
                gen_row(GEN_RUNS, s0 + g, t0, span, r0, g_lo, count, period);
                gen_row(GEN_RUNS, s1 + g, t0, span, r1, g_lo, count, period);
            }
            if (h >= 0) {
                gen_row(GEN_PATTERN, s0 + h, t0, span, r0, 0, count, period);
                gen_row(GEN_PATTERN, s1 + h, t0, span, r1, 0, count, period);
            }
        }
        gen_row(GEN_PREFIX, sel, t0, span, 0, g_lo + 1, count, period);
        sweep_ops(prog, n_ops, s0, s1, REPRO_TILE_WORDS, span, ~(uint64_t)0);
        compare_tile(cmp, n_out, s0, s1, sel, diff + t0, span);
    }
    if (words)
        diff[words - 1] &= tail_of(lanes, words);
    return repro_popcount(diff, words);
}

static int64_t popcount64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return (int64_t)__builtin_popcountll(x);
#else
    int64_t n = 0;
    while (x) {
        x &= x - 1;
        n++;
    }
    return n;
#endif
}

int64_t repro_popcount(const uint64_t *a, int64_t words) {
    int64_t total = 0;
    for (int64_t w = 0; w < words; w++)
        total += popcount64(a[w]);
    return total;
}

/* Ascending indices of set lanes (mismatch-lane extraction for failure
 * reports).  Writes at most `cap` indices into `out`; returns the number
 * written.  Callers size `out` with repro_popcount first. */
int64_t repro_extract_lanes(const uint64_t *a, int64_t words, int32_t *out,
                            int64_t cap) {
    int64_t n = 0;
    for (int64_t w = 0; w < words && n < cap; w++) {
        uint64_t word = a[w];
        while (word && n < cap) {
#if defined(__GNUC__) || defined(__clang__)
            const int bit = __builtin_ctzll(word);
#else
            int bit = 0;
            while (!((word >> bit) & 1))
                bit++;
#endif
            out[n++] = (int32_t)(w * 64 + bit);
            word &= word - 1;
        }
    }
    return n;
}

/* Primitive plane ops for the no-numpy built variant: op 0=AND 1=OR
 * 2=XOR, matching repro.backends.native._BITWISE. */
void repro_bitwise(int32_t op, const uint64_t *a, const uint64_t *b,
                   uint64_t *out, int64_t words) {
    int64_t w;
    switch (op) {
    case 0:
        for (w = 0; w < words; w++)
            out[w] = a[w] & b[w];
        break;
    case 1:
        for (w = 0; w < words; w++)
            out[w] = a[w] | b[w];
        break;
    default:
        for (w = 0; w < words; w++)
            out[w] = a[w] ^ b[w];
        break;
    }
}

void repro_not_masked(const uint64_t *a, uint64_t *out, int64_t words,
                      uint64_t tail_mask) {
    for (int64_t w = 0; w < words; w++)
        out[w] = ~a[w];
    if (words)
        out[words - 1] &= tail_mask;
}
