/* Carry-less products of GF(2)[x] polynomials on PCLMULQDQ, and MT19937 draws
 * straight into limbs, for repro.gf.backends (built and bound lazily by
 * NativeBackend).
 *
 * Polynomials are `words` little-endian 64-bit limbs; products are raw
 * (unreduced), 2 * words limbs.  Products scan 128-bit blocks (one load per
 * operand feeds four PCLMULQDQs) under Karatsuba in evaluated form: operands
 * are evaluated, their pointwise block products XOR-accumulate, and because
 * the map is linear one interpolation serves a whole sum of products.  Nothing
 * here allocates: scratch is the caller's, sized from clmul_scratch() and
 * passed behind the products in `out`, and the Python side validates every
 * size before a pointer gets here.
 */
#include <cpuid.h>
#include <emmintrin.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <wmmintrin.h>

#define LOAD(p) _mm_loadu_si128(p)
#define STORE(p, v) _mm_storeu_si128(p, v)

/* Whether this CPU executes PCLMULQDQ (CPUID.1:ECX bit 1). */
int clmul_supported(void)
{
    unsigned eax, ebx, ecx, edx;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & (1u << 1)) != 0;
}

/* An operand under `levels` of Karatsuba: 2^levels parts of `part` blocks
 * (zero-padded up to that), evaluated to 3^levels pieces, `eval` blocks. */
struct shape { size_t levels, part, eval; };

/* The one rule: halve while a half keeps five whole blocks.  Measured from 1
 * to 1024 limbs, a level below that costs more in padding and short scans
 * than the quarter of the block products it saves. */
static struct shape shape_of(size_t words)
{
    size_t blocks = (words + 1) / 2;
    struct shape s = {0, 0, 0};
    while (blocks >> (s.levels + 1) >= 5)
        s.levels++;
    s.part = (blocks + ((size_t)1 << s.levels) - 1) >> s.levels;
    s.eval = s.part;
    for (size_t level = 0; level < s.levels; level++)
        s.eval *= 3;
    return s;
}

/* Bytes of one evaluated operand.  A product call wants `rows` + 3 of them as
 * scratch after its products in `out`: the evaluated vector, one evaluated
 * entry, one accumulator of products (twice an operand). */
size_t clmul_scratch(size_t words)
{
    return shape_of(words).eval * sizeof(__m128i);
}

/* dst = src evaluated.  Each level turns groups [A0 A1] into [A0 A1 A0^A1],
 * in place from the last group down so nothing unread is overwritten. */
static void evaluate(const struct shape *s, size_t words, const uint64_t *src, __m128i *dst)
{
    size_t half = s->part << s->levels;
    memcpy(dst, src, 8 * words);
    memset((char *)dst + 8 * words, 0, 16 * half - 8 * words);
    for (size_t groups = 1; groups * s->part < s->eval; groups *= 3) {
        half /= 2;
        for (size_t g = groups; g-- > 0;) {
            __m128i *from = dst + 2 * g * half, *to = dst + 3 * g * half;
            for (size_t i = 0; i < half; i++)
                STORE(to + 2 * half + i, LOAD(from + i) ^ LOAD(from + half + i));
            if (g) {
                memcpy(to + half, from + half, 16 * half);
                memcpy(to, from, 16 * half);
            }
        }
    }
}

/* acc[p] ^= a[p] * b[p] for every piece p.  Product scanning over blocks: the
 * low, middle and high 128 bits of every block product landing on output
 * block n are summed in registers and folded into memory once per n. */
static void multiply(const struct shape *s, const __m128i *a, const __m128i *b, __m128i *acc)
{
    size_t part = s->part;
    for (const __m128i *end = a + s->eval; a < end; a += part, b += part, acc += 2 * part)
        for (size_t n = 0; n + 1 < 2 * part; n++) {
            size_t first = n < part ? 0 : n - part + 1;
            size_t last = n < part ? n : part - 1;
            __m128i lo = _mm_setzero_si128(), mid = lo, hi = lo;
            for (size_t i = first; i <= last; i++) {
                __m128i u = LOAD(a + i), v = LOAD(b + n - i);
                lo ^= _mm_clmulepi64_si128(u, v, 0x00);
                mid ^= _mm_clmulepi64_si128(u, v, 0x01) ^ _mm_clmulepi64_si128(u, v, 0x10);
                hi ^= _mm_clmulepi64_si128(u, v, 0x11);
            }
            STORE(acc + n, LOAD(acc + n) ^ lo ^ _mm_slli_si128(mid, 8));
            STORE(acc + n + 1, LOAD(acc + n + 1) ^ hi ^ _mm_srli_si128(mid, 8));
        }
}

/* Undo evaluate() on accumulated products, in place: each level folds groups
 * of three products [P0 P1 P2] into P0 + (P0^P1^P2) X^half + P1 X^(2 half);
 * then the product's 2 * words limbs are copied out. */
static void interpolate(const struct shape *s, size_t words, __m128i *acc, uint64_t *out)
{
    size_t half = s->part;
    for (size_t groups = s->eval / s->part / 3; groups; groups /= 3, half *= 2)
        for (size_t g = 0; g < groups; g++) {
            __m128i *from = acc + 6 * g * half, *to = acc + 4 * g * half;
            for (size_t i = 0; i < 2 * half; i++)
                STORE(from + 4 * half + i,
                      LOAD(from + 4 * half + i) ^ LOAD(from + i) ^ LOAD(from + 2 * half + i));
            if (g)
                memmove(to, from, 64 * half);
            for (size_t i = 0; i < 2 * half; i++)
                STORE(to + half + i, LOAD(to + half + i) ^ LOAD(from + 4 * half + i));
        }
    memcpy(out, acc, 16 * words);
}

/* out[j] = XOR over r of x[r] * m[r][j]: one symbol vector (`rows` symbols)
 * against a row-major `rows` x `cols` matrix, `cols` raw products.  The vector
 * is evaluated once, entries on the fly, and each column's sum is interpolated
 * once. */
static void products(const struct shape *s, size_t rows, size_t cols, size_t words,
                     const uint64_t *x, const uint64_t *m, uint64_t *out, __m128i *scratch)
{
    __m128i *vector = scratch, *entry = vector + rows * s->eval, *acc = entry + s->eval;
    for (size_t r = 0; r < rows; r++)
        evaluate(s, words, x + r * words, vector + r * s->eval);
    for (size_t j = 0; j < cols; j++) {
        memset(acc, 0, 32 * s->eval);
        for (size_t r = 0; r < rows; r++) {
            evaluate(s, words, m + (r * cols + j) * words, entry);
            multiply(s, vector + r * s->eval, entry, acc);
        }
        interpolate(s, words, acc, out + 2 * j * words);
    }
}

/* The two entry points: one vector against a matrix, and `count` independent
 * pairs a[i] * b[i] (a sum of one term each).  `out` is the products followed
 * by the scratch. */
void clmul_vecmat(size_t rows, size_t cols, size_t words, const uint64_t *x, const uint64_t *m,
                  uint64_t *out)
{
    struct shape s = shape_of(words);
    products(&s, rows, cols, words, x, m, out, (__m128i *)(out + 2 * cols * words));
}

void clmul_pairs(size_t count, size_t words, const uint64_t *a, const uint64_t *b, uint64_t *out)
{
    struct shape s = shape_of(words);
    __m128i *scratch = (__m128i *)(out + 2 * count * words);
    for (; count; count--, a += words, b += words, out += 2 * words)
        products(&s, 1, 1, words, a, b, out, scratch);
}

enum { N = 624, M = 397 }; /* MT19937 */

/* One word of the next generator state, from words k, k + 1 and k + M of this
 * one (indices mod N). */
static uint32_t twisted(uint32_t word, uint32_t next, uint32_t far)
{
    uint32_t y = (word & 0x80000000u) | (next & 0x7fffffffu);
    return far ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
}

/* `count` symbols of `degree` bits into `words`-limb slots of `out`, exactly
 * the values random.Random(seed).getrandbits(degree) returns in turn: MT19937
 * seeded by init_by_array over `key` (the 32-bit words of abs(seed), least
 * significant first, at least one), each symbol its ceil(degree / 32) next
 * outputs from the least significant word up, the top one shifted right to
 * fit. */
void clmul_draw(size_t key_words, const uint32_t *key, size_t count, size_t degree,
                size_t words, uint32_t *out)
{
    uint32_t mt[N];
    size_t i = 1, j = 0, used = (degree + 31) / 32;
    mt[0] = 19650218u;
    for (size_t k = 1; k < N; k++)
        mt[k] = 1812433253u * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    for (size_t k = N > key_words ? N : key_words; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525u)) + key[j] + (uint32_t)j;
        if (++i >= N) { mt[0] = mt[N - 1]; i = 1; }
        if (++j >= key_words) j = 0;
    }
    for (size_t k = N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941u)) - (uint32_t)i;
        if (++i >= N) { mt[0] = mt[N - 1]; i = 1; }
    }
    mt[0] = 0x80000000u;
    i = N;
    for (; count; count--, out += 2 * words) {
        for (size_t w = 0; w < used; w++) {
            if (i == N) {
                for (i = 0; i < N - M; i++)
                    mt[i] = twisted(mt[i], mt[i + 1], mt[i + M]);
                for (; i < N - 1; i++)
                    mt[i] = twisted(mt[i], mt[i + 1], mt[i + M - N]);
                mt[N - 1] = twisted(mt[N - 1], mt[0], mt[M - 1]);
                i = 0;
            }
            uint32_t y = mt[i++];
            y ^= y >> 11;
            y ^= (y << 7) & 0x9d2c5680u;
            y ^= (y << 15) & 0xefc60000u;
            out[w] = y ^ (y >> 18);
        }
        memset(out + used, 0, 4 * (2 * words - used));
        out[used - 1] >>= 32 * used - degree;
    }
}
