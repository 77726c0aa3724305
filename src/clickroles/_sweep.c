/* Compiled inner loops of clickroles, loaded with ctypes by
   clickroles.native, which declares each function's argument types.

   Build with -ffp-contract=off and never -ffast-math: each function
   performs the float operations of its test oracle (lda_sweep: the loop
   of reference_fit_lda in tests/test_topics.py) on the same operands in
   the same order, so its results are equal bit for bit. */

#include <stdint.h>

/* One collapsed-Gibbs sweep of clickroles.topics.fit_lda over every
   token in corpus order, updating the assignments z and the counts in
   place. Document d holds tokens[offsets[d]] .. tokens[offsets[d+1]-1];
   n_dk is n_docs x k, n_wk is V x k (word-major) and n_k is k, all
   row-major; u holds one uniform in [0, 1) per token, and cum is
   scratch space for k doubles.

   Each token leaves its counts, and its new topic is the first t whose
   running total of the weights

       ((n_dk + alpha) * (n_kw + beta)) / (n_k + vbeta)

   is >= u * total, where the running total starts from the first weight
   and adds the others left to right. The weights are >= 0, so the
   totals never decrease and a binary search finds that t; u < 1 keeps
   u * total <= total, so t < k. */
void lda_sweep(int64_t n_docs, const int64_t *offsets, const int32_t *tokens, int32_t *z,
               int64_t k, int64_t *n_dk, int64_t *n_wk, int64_t *n_k,
               const double *u, double alpha, double beta, double vbeta, double *cum)
{
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *nd = n_dk + d * k;
        for (int64_t i = offsets[d]; i < offsets[d + 1]; i++) {
            int64_t *nw = n_wk + (int64_t)tokens[i] * k;
            int64_t t = z[i];
            nd[t]--;
            nw[t]--;
            n_k[t]--;

            double total = ((nd[0] + alpha) * (nw[0] + beta)) / (n_k[0] + vbeta);
            cum[0] = total;
            for (int64_t j = 1; j < k; j++) {
                total += ((nd[j] + alpha) * (nw[j] + beta)) / (n_k[j] + vbeta);
                cum[j] = total;
            }
            double target = u[i] * total;
            int64_t lo = 0, hi = k;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (cum[mid] < target)
                    lo = mid + 1;
                else
                    hi = mid;
            }

            t = lo;
            z[i] = (int32_t)t;
            nd[t]++;
            nw[t]++;
            n_k[t]++;
        }
    }
}
