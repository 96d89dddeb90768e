/* Carry-less products of GF(2)[x] polynomials on PCLMULQDQ, for repro.gf.backends.
 *
 * Polynomials are `words` little-endian 64-bit limbs; products are raw (unreduced),
 * 2 * words limbs, and are XORed into `out`, so callers can stream a matrix in
 * row slices into one zeroed buffer.  Built and bound lazily by NativeBackend;
 * the Python side validates every size before a pointer gets here.
 */
#include <cpuid.h>
#include <emmintrin.h>
#include <stddef.h>
#include <stdint.h>
#include <wmmintrin.h>

/* Whether this CPU executes PCLMULQDQ (CPUID.1:ECX bit 1). */
int clmul_supported(void)
{
    unsigned eax, ebx, ecx, edx;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & (1u << 1)) != 0;
}

/* out ^= a * b.  Product scanning: every output limb's partial products are
 * summed in a register, so the inner loop is two loads, one PCLMULQDQ and one
 * XOR, and memory is written twice per output limb. */
static void clmul_one(size_t words, const uint64_t *a, const uint64_t *b, uint64_t *out)
{
    for (size_t n = 0; n + 1 < 2 * words; n++) {
        size_t first = n < words ? 0 : n - words + 1;
        size_t last = n < words ? n : words - 1;
        __m128i sum = _mm_setzero_si128();
        for (size_t i = first; i <= last; i++)
            sum = _mm_xor_si128(sum, _mm_clmulepi64_si128(
                _mm_loadl_epi64((const __m128i *)(a + i)),
                _mm_loadl_epi64((const __m128i *)(b + n - i)), 0));
        out[n] ^= (uint64_t)_mm_cvtsi128_si64(sum);
        out[n + 1] ^= (uint64_t)_mm_cvtsi128_si64(_mm_srli_si128(sum, 8));
    }
}

/* out[j] ^= XOR over r of x[r] * m[r][j]: one symbol vector (`rows` symbols)
 * against a row-major `rows` x `cols` matrix; `out` holds `cols` raw products. */
void clmul_vecmat(size_t rows, size_t cols, size_t words,
                  const uint64_t *x, const uint64_t *m, uint64_t *out)
{
    for (size_t j = 0; j < cols; j++)
        for (size_t r = 0; r < rows; r++)
            clmul_one(words, x + r * words, m + (r * cols + j) * words, out + 2 * j * words);
}

/* out[k] ^= a[k] * b[k] for `count` independent pairs. */
void clmul_pairs(size_t count, size_t words,
                 const uint64_t *a, const uint64_t *b, uint64_t *out)
{
    for (size_t k = 0; k < count; k++)
        clmul_one(words, a + k * words, b + k * words, out + 2 * k * words);
}
