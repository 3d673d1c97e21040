/* The RK4 step loop of hemohopf.ddesim.integrate, compiled.
 *
 * The same floating-point operations in the same order as ddesim._python_loop,
 * so the same bits: build with -O2 -ffp-contract=off and without -ffast-math.
 * x^n comes from libm pow, which CPython's float ** calls for finite x > 0.
 */
#include <math.h>
#include <stdint.h>

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
