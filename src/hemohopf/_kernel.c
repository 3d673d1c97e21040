/* The hot loops of hemohopf.ddesim, compiled: the RK4 step loop of
 * `integrate` and the rows of `write_trajectory_csv`.  Each gives what its
 * Python twin in ddesim gives, to the bit and to the byte.
 *
 * The step loop does the same floating-point operations in the same order as
 * ddesim._python_loop, so the same bits: build with -O2 -ffp-contract=off and
 * without -ffast-math.  x^n comes from libm pow, which CPython's float ** calls
 * for finite x > 0.
 */

/* No system headers: the C library functions come in as compiler builtins
 * (pow, snprintf and memcpy are still the C library's).  Parsing <math.h>,
 * <stdio.h> and <string.h> would raise the compiler's peak memory, which the
 * first run of a checkout pays, by about 2 MB. */
typedef __INT64_TYPE__ int64_t;
typedef __UINT64_TYPE__ uint64_t;
typedef __SIZE_TYPE__ size_t;
#define fabs __builtin_fabs
#define floor __builtin_floor
#define isinf __builtin_isinf
#define isnan __builtin_isnan
#define memcpy __builtin_memcpy
#define pow __builtin_pow
#define snprintf __builtin_snprintf

/* x^n where x > 0, else 0, as the Hill terms take it; *bad is set where
 * float ** raises OverflowError.  For x = inf, ** returns inf without pow
 * (n > 1 in every ModelParameters). */
static double hill(double x, double n, int *bad)
{
    double v;
    if (!(x > 0.0))
        return 0.0;
    if (isinf(x))
        return x;
    v = pow(x, n);
    if (isinf(v))
        *bad = 1;
    return v;
}

/* Steps 0 .. n_steps - 1 from the node x[0], dx[0] with first stage k1.  Step
 * i reads and refills pair i mod m of `ring`, the (production at the Hermite
 * midpoint, production at the right node) of the cell one delay back, and
 * writes t, x, dx at i + 1.  Returns n_steps, or the index of the first step
 * where a pow overflowed or the state left [-1e100, 1e100]. */
int64_t hemohopf_rk4(int64_t n_steps, int64_t m, double h, double beta0, double n,
                     double delta, double kb0, double k1, double *ring,
                     double *t, double *x, double *dx)
{
    const double half_h = 0.5 * h, eighth_h = 0.125 * h, sixth_h = h / 6.0;
    double xi = x[0], dxi = dx[0];
    int bad = 0;
    int64_t i, j = 0;
    for (i = 0; i < n_steps; i++) {
        double *pair = ring + 2 * j;
        double p_mid = pair[0], p_end = pair[1], x_prev = xi, dx_prev = dxi;
        double s, k2, k3, k4, xn, x_mid;
        s = xi + half_h * k1;
        k2 = -(beta0 / (1.0 + hill(s, n, &bad)) + delta) * s + p_mid;
        s = xi + half_h * k2;
        k3 = -(beta0 / (1.0 + hill(s, n, &bad)) + delta) * s + p_mid;
        s = xi + h * k3;
        k4 = -(beta0 / (1.0 + hill(s, n, &bad)) + delta) * s + p_end;
        xi = xi + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        if (bad || !(fabs(xi) <= 1e100))
            return i;
        xn = hill(xi, n, &bad);
        k1 = dxi = -(beta0 / (1.0 + xn) + delta) * xi + p_end;
        x_mid = 0.5 * (x_prev + xi) + eighth_h * (dx_prev - k1);
        pair[0] = kb0 * x_mid / (1.0 + hill(x_mid, n, &bad));
        pair[1] = kb0 * xi / (1.0 + xn);
        if (bad)
            return i;
        t[i + 1] = (double)(i + 1) * h;
        x[i + 1] = xi;
        dx[i + 1] = k1;
        if (++j == m)
            j = 0;
    }
    return n_steps;
}

/* 10^s for s in [0, 21], exactly. */
static unsigned __int128 pow10_u128(int s)
{
    static const uint64_t pow10[20] = {
        1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
        100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
        1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
        1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
        1000000000000000000ULL, 10000000000000000000ULL};
    return s < 20 ? pow10[s] : (unsigned __int128)pow10[19] * pow10[s - 19];
}

/* Writes v as Python's "%.17g" does and returns the length (at most 24).
 * Where its decimal exponent e10 lies in [-4, 16], %g writes 17 significant
 * digits in fixed notation: the integer N = round-half-even(|v| 10^s) with
 * s = 16 - e10 and 10^16 <= N < 10^17, computed exactly from the normal
 * |v| = m 2^e2 in 128 bits.  The estimate of e10 from e2 is low by at most one;
 * an e10 that gives N 16 or 18 digits long is moved by one and N is computed
 * again from |v|, never rounded twice.  Trailing zeros of the fraction go, and
 * the point with them, as %g drops them.  Every other value (zeros,
 * subnormals, the exponent form, infinities) goes through snprintf, and NaN is
 * "nan" whatever its sign, as Python writes it. */
static int format_g17(double v, char *out)
{
    const unsigned __int128 lo = pow10_u128(16), hi = pow10_u128(17);
    double a = fabs(v);
    char digits[17];
    int e2, e10, tries, len = 0, i, last;
    uint64_t m, n = 0;
    if (isnan(v)) {
        memcpy(out, "nan", 3);
        return 3;
    }
    if (a >= 1e-5 && a < 1e17) {
        uint64_t bits;
        memcpy(&bits, &a, sizeof bits);
        m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52); /* a = m 2^e2, exactly */
        e2 = (int)(bits >> 52) - 1075;
        /* 2^(e2 + 52) <= a < 2^(e2 + 53): e10 is this or one more */
        e10 = (int)floor((e2 + 52) * 0.30102999566398120);
        for (tries = 0; tries < 3 && e10 >= -5 && e10 <= 16; tries++) {
            unsigned __int128 p = (unsigned __int128)m * pow10_u128(16 - e10);
            if (e2 >= 0) {
                p <<= e2;
            } else {
                unsigned __int128 half = (unsigned __int128)1 << (-e2 - 1);
                unsigned __int128 rem = p & ((half << 1) - 1);
                p >>= -e2;
                if (rem > half || (rem == half && (p & 1)))
                    p++;
            }
            if (p >= hi) {
                e10++;
            } else if (p < lo) {
                e10--;
            } else {
                n = (uint64_t)p;
                break;
            }
        }
        if (n && e10 >= -4) {
            for (i = 16; i >= 0; i--, n /= 10)
                digits[i] = (char)('0' + n % 10);
            for (last = 16; last > e10 && digits[last] == '0'; last--)
                ;
            if (v < 0.0)
                out[len++] = '-';
            if (e10 >= 0) {
                memcpy(out + len, digits, (size_t)e10 + 1);
                len += e10 + 1;
                if (last > e10) {
                    out[len++] = '.';
                    memcpy(out + len, digits + e10 + 1, (size_t)(last - e10));
                    len += last - e10;
                }
            } else {
                out[len++] = '0';
                out[len++] = '.';
                for (i = -1; i > e10; i--)
                    out[len++] = '0';
                memcpy(out + len, digits, (size_t)last + 1);
                len += last + 1;
            }
            return len;
        }
    }
    {
        char tmp[32];
        len = snprintf(tmp, sizeof tmp, "%.17g", v);
        memcpy(out, tmp, (size_t)len);
        return len;
    }
}

/* Writes the CSV rows "t,x\n" of the points start, start + 1, ... below stop,
 * at most max_rows of them, into buf, which holds 50 bytes a row (a value takes
 * at most 24), and returns the number of bytes written. */
int64_t hemohopf_csv_rows(const double *t, const double *x, int64_t start, int64_t stop,
                          int64_t max_rows, char *buf)
{
    char *p = buf;
    int64_t i;
    for (i = start; i < stop && i - start < max_rows; i++) {
        p += format_g17(t[i], p);
        *p++ = ',';
        p += format_g17(x[i], p);
        *p++ = '\n';
    }
    return p - buf;
}
