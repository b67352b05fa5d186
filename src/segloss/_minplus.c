/* Later-axis pass of segloss.distance.edt, compiled at import.

   For each of `rows` rows of `n` squared distances (non-negative or inf),
   out[q] = min over p of d2[p] + g, with g = (q*step - p*step)^2: the same
   IEEE expression, in the same order, as the numpy pass, so the result is
   the same bits. Built with -ffp-contract=off, so no multiply-add fuses.

   Candidates are scanned outward from q. A side stops once its gap alone
   exceeds the best value so far: the gap only grows with |q - p| and every
   d2 is >= 0, so no candidate beyond it can win. A row with no finite
   entry is inf everywhere; it is filled up front instead of being scanned
   end to end for every q. */

#include <math.h>
#include <stddef.h>

void min_plus_rows(const double *d2, double *out, ptrdiff_t rows, ptrdiff_t n, double step)
{
    for (ptrdiff_t r = 0; r < rows; r++, d2 += n, out += n) {
        ptrdiff_t k = 0;
        while (k < n && isinf(d2[k]))
            k++;
        if (k == n) {
            for (ptrdiff_t q = 0; q < n; q++)
                out[q] = INFINITY;
            continue;
        }
        for (ptrdiff_t q = 0; q < n; q++) {
            double x = q * step, best = INFINITY;
            int left = 1, right = 1;
            for (ptrdiff_t d = 0; left || right; d++) {
                if (left) {
                    ptrdiff_t p = q - d;
                    double g = x - p * step;
                    g = g * g;
                    if (p < 0 || g > best)
                        left = 0;
                    else if (d2[p] + g < best)
                        best = d2[p] + g;
                }
                if (right && d > 0) {
                    ptrdiff_t p = q + d;
                    double g = x - p * step;
                    g = g * g;
                    if (p >= n || g > best)
                        right = 0;
                    else if (d2[p] + g < best)
                        best = d2[p] + g;
                }
            }
            out[q] = best;
        }
    }
}
