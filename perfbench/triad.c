/* STREAM-style triad: a[i] = b[i] + s * c[i] over three arrays.
 *
 *   triad N REPS THREADS  ->  prints "triad_gbs <best GB/s> <check>"
 *
 * Bytes per repetition are counted the STREAM way: 3 arrays x N x 8 B.
 * Arrays are first touched by the threads that use them, and the best
 * repetition is reported.  The checksum keeps the stores observable.
 */
#include <omp.h>
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char **argv) {
  if (argc != 4) {
    fprintf(stderr, "usage: triad N REPS THREADS\n");
    return 2;
  }
  long n = atol(argv[1]);
  int reps = atoi(argv[2]);
  int threads = atoi(argv[3]);
  if (n < 1 || reps < 1 || threads < 1) {
    fprintf(stderr, "triad: bad arguments\n");
    return 2;
  }
  omp_set_num_threads(threads);
  double *a = malloc(sizeof(double) * n);
  double *b = malloc(sizeof(double) * n);
  double *c = malloc(sizeof(double) * n);
  if (!a || !b || !c) {
    fprintf(stderr, "triad: out of memory\n");
    return 1;
  }
#pragma omp parallel for schedule(static)
  for (long i = 0; i < n; i++) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 1e30;
  for (int r = 0; r < reps; r++) {
    double s = 0.5 + r;
    double t0 = omp_get_wtime();
#pragma omp parallel for schedule(static)
    for (long i = 0; i < n; i++) a[i] = b[i] + s * c[i];
    double dt = omp_get_wtime() - t0;
    if (dt < best) best = dt;
  }
  double check = a[0] + a[n / 2] + a[n - 1];
  printf("triad_gbs %.6f %.6f\n", 3.0 * 8.0 * (double)n / best / 1e9, check);
  free(a);
  free(b);
  free(c);
  return 0;
}
