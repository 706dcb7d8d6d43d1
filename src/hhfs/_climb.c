/* The merit scan and the 16 low-level heuristics (see hhfs.correlation and
   hhfs.llh) and the 1NN fitness's neighbours (hhfs.evaluation), compiled.

   scan(bits, feature_class, feature_feature, row_out) -> (k, sum_cf, sum_ff, merit)
   A mask's merit scan, summed in one fixed order: ascending selected index.
   row[j] is the sum of feature_feature[i][j] over the selected i (row i is
   column i: the matrix is symmetric), added element by element (so the loop
   vectorises across j, and every row[j] is the same sequential sum); sum_cf
   is the sum of feature_class[i] and sum_ff the sum of row[i] -
   feature_feature[i][i] over the selected i; the merit is
   sum_cf / sqrt((double)k + sum_ff), or 0.0 at k == 0.

   generation(population, keys, bits, feature_class, feature_feature,
              mutn_rate, invocations, improvements, masks_out, threads)
   Run each row i of the (P, L) population, a chromosome of heuristics
   (catalog ids 1..16), left to right from the mask ``bits``, each gene on
   the previous one's output: scan the bits as scan does, run a gene, and
   scan its bits afresh when it moved. Every gene counts one invocation,
   and one improvement where its fresh merit is strictly higher. Row i's
   final bits go to masks_out[i]. Row i draws from numpy's
   PCG64(SeedSequence(keys[i])) for row i of the (P, W) uint32 keys,
   seeded here as numpy seeds it (seed_pcg64) and run as numpy runs it,
   the same stream draw for draw, so any slice of a call's rows and key
   rows gives those rows. The keys' layout is hhfs.llh's (stream_keys).
   The call releases the GIL, and min(threads, P) threads at most (this
   one and the process's helpers, see spread) each take the next row off
   one cursor, climb it in a mask buffer of their own (rows of a few dozen
   bytes share cache lines) and copy it to masks_out[i] once; each counts
   into a counter pair of its own, added to invocations and improvements
   once every helper is done, so the bits and the counts are the same on
   any number of threads. threads < 1 is refused. Every gene is checked
   before any row runs.

   The heuristics draw from their stream through numpy's random C API,
   with the calls a Generator makes: integers(n) is
   random_bounded_uint64_fill over [0, n - 1], random() and random(n) are
   random_standard_uniform[_fill], and permutation(n) shuffles arange(n) by
   random_interval from the top down. So a gene list draws what the Python
   rules drew on a Generator over the same stream, draw for draw.

   breed(chromosomes, bit_generator, p_crossover, p_mutation)
   The GA's edits of a (P, L) int64 pool, in place, drawing through the same
   API as a Generator would. First, per consecutive pair of rows, a random()
   coin and, where it is below p_crossover and L >= 2, a cut from
   integers(1, L); the pair swaps its genes from the cut on. Then, per row,
   random(L) coins, and integers(1, 16, size=hits) for the genes whose coin
   is below p_mutation, each id shifted up by one where it is at or above
   the gene's old id, so a mutated gene always changes.

   A flip is scored from the scan's sums, on doubles and in this order: the
   per-branch sums, then sum_cf / sqrt((double)k + sum_ff), or 0.0 when the
   flip leaves k == 0. It is built with -ffp-contract=off, so no multiply
   and add are fused except in nearest's AVX-512 float32 screen (below).
   Every buffer is checked against n, the length of the bits, and every
   gene id against 1..16 before any is read.

   nearest(columns, low, span, folds, masks, work, out)
   The 1NN fitness's neighbours: for each row m of the (M, N) bool masks, x
   the (k, n) rows of the (N, n) columns it selects, and each row r of the
   (R, n) int32 fold labels, out[m][r][i] = the column j whose label
   folds[r][j] is not row i's, of least distance from row i, ties to the
   lowest j. The distance is the sum over l of (x[l][i] - x[l][j])^2, each
   term rounded and added in ascending l (exact), which is pdist's
   "sqeuclidean" bit for bit. low and span hold each column's least value
   and range. The (T, n, w) work, w being n rounded up to SCREEN_LANES (16),
   holds a matrix per thread: this one and T - 1 helpers at most (M
   threads in all at most, see spread) each take the next mask off one
   cursor, gather its rows into buffers of their own and compute it, the
   bits the same whichever thread computed a mask.

   It filters in float32 and refines in float64 (Seidl and Kriegel, "Optimal
   multi-step k-nearest neighbor search", SIGMOD 1998). Per mask,
   nearest_rows copies x to float32: row l less low[l], times the power of
   two 2^e that takes the widest span to at most 1 (two exact factors past
   2^1023), rounded once, is y, off that exact value by at most radius[l] =
   span[l] 2^(e - 23) + 2^-124 (a float64 and a float32 rounding, and
   subnormals, flushed to zero or not); a y off [0, 1], which only a low or
   span other than the columns' gives, is taken as 0. work gets the n x w
   float32 distances S of y's rows, summed in the same order, BLOCK rows and
   SCREEN_LANES columns at a time, in registers, on AVX-512 where the CPU
   has it (nearest_rows, each term's square there fused into its add). For
   row i, with m the S of a column in another fold (the least, as a rule:
   nearest_of), every column in another fold with S <= T(m) is a candidate,
   and the candidate of least float64 distance, ties to the lowest j, is the
   neighbour; a lone candidate needs no float64 sum. The bound T, after
   Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 2002,
   ch. 3-4: write s and d for the exact distances of y and of the scaled
   columns, and D for the float64 sum times 2^2e. A term's difference, its
   square and its (at most k - 1) additions round once each (a fused square
   and add rounds once where this counts two, so within the same bound),
   every term is non-negative, and so, with u = 2^-24,
   g32 = (k + 2)u / (1 - (k + 2)u) and g64 the same with u = 2^-53,
       s (1 - g32) - p32 <= S <= s (1 + g32) + p32,
       d (1 - g64) - p64 <= D <= d (1 + g64) + p64,
   where p32 = k 2^-124 and p64 = k underflow bound what underflow,
   subnormal or flushed to zero, adds to k terms (underflow is 2^-1020,
   times 2^2e). By the triangle inequality |sqrt(s) - sqrt(d)| <= rho,
   twice the 2-norm of radius. Let S(i, j0) = m. Any column j with
   D(i, j) <= D(i, j0), as the neighbour has, then has
       sqrt(d(i, j0)) <= q = sqrt((m + p32) / (1 - g32)) + rho,
       d(i, j) <= B = (q^2 (1 + g64) + 2 p64) / (1 - g64),
       S(i, j) <= T = (1 + g32)(sqrt(B) + rho)^2 + p32,
   so the neighbour is a candidate. T is summed in double, raised by 2^-40
   of itself for that arithmetic's rounding, and rounded up to float32; it
   is inf, every column a candidate, where (k + 2) 2^-24 >= 1/2 or underflow
   is inf (a subnormal widest span). The buffers' kinds and shapes, a finite
   low, a finite span >= 0, two labels at least in each fold row, and work
   and out against overlapping any other buffer are checked before work is
   written, and the call computes without the GIL, so other Python threads
   run meanwhile.

   Both entries share their work through spread, with one team of helper
   threads that lives for the process. It starts on the first call that
   asks for a helper and grows to the most any call asked for, less one,
   and, on Linux with glibc, to one fewer than the caller's allowed CPUs at
   most: none where the caller may run on one CPU only. Where the kernel
   does not balance threads across CPUs (a cpuset with sched_load_balance
   0), a new thread stays on its creator's CPU, and two threads on one CPU
   take twice one's time. So there, each call puts helper t (1, 2, ...) on
   one CPU of its own: the t-th of the caller's allowed CPUs, less the one
   the caller runs on. A helper starts unpinned, the call that starts it
   pins it there, and a later call moves it only when that CPU changes;
   elsewhere helpers run unpinned. They sleep on a condition variable
   until a call posts them a share; the caller wakes them, computes its
   own share and waits for every helper to be done without sleeping, as a
   caller woken from a sleep may be woken on a helper's CPU, and stay
   there. A call that finds the team busy with another thread's call
   computes alone, and a helper that cannot start leaves its share to the
   others, so the results never depend on the threads. A forked child
   starts with no team (pthread_atfork). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/distributions.h"

#define NUM_LLH 16
enum domain { ALL, ZEROS, ONES };      /* each hill-climbing rule's three ids, in order */
enum rule { SDHC, NAHC, DBHC, RMHC };  /* ids 1-3, 4-6, 7-9, 10-12 */
enum move { SWPD = 13, DIMM, HYPM, MUTN };

enum kind { BOOL, FLOAT32, FLOAT64, INT32, INT64, UINT32 };
static const char *const kind_name[] = {"bools", "float32", "float64", "int32", "int64",
                                        "uint32"};

/* Acquire ``obj`` as a C-contiguous buffer of ``ndim`` dimensions, each of
   length ``n`` (any length where n < 0), holding items of ``want`` kind. */
static int
get_buffer(PyObject *obj, Py_buffer *view, const char *name, enum kind want,
           int ndim, Py_ssize_t n, int writable)
{
    if (PyObject_GetBuffer(obj, view, writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    int ok;
    switch (want) {
    case BOOL:
        ok = view->itemsize == 1 && strcmp(format, "?") == 0;
        break;
    case FLOAT32:
        ok = view->itemsize == 4 && strcmp(format, "f") == 0;
        break;
    case FLOAT64:
        ok = view->itemsize == 8 && strcmp(format, "d") == 0;
        break;
    case INT32:
        ok = view->itemsize == 4 && (strcmp(format, "i") == 0 || strcmp(format, "l") == 0);
        break;
    case INT64:
        ok = view->itemsize == 8 && (strcmp(format, "l") == 0 || strcmp(format, "q") == 0);
        break;
    default:
        ok = view->itemsize == 4 && (strcmp(format, "I") == 0 || strcmp(format, "L") == 0);
    }
    if (!ok) {
        PyErr_Format(PyExc_ValueError, "%s must hold %s, not format '%s' of %zd bytes",
                     name, kind_name[want], format, view->itemsize);
        return -1;
    }
    if (view->ndim != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must have %d dimension(s), not %d",
                     name, ndim, view->ndim);
        return -1;
    }
    for (int d = 0; n >= 0 && d < ndim; d++) {
        if (view->shape[d] != n) {
            PyErr_Format(PyExc_ValueError, "%s has length %zd along axis %d, expected %zd",
                         name, view->shape[d], d, n);
            return -1;
        }
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
        return -1;
    }
    return 0;
}

static void
release(Py_buffer *views[], int count)
{
    for (int i = 0; i < count; i++)
        if (views[i]->obj != NULL)
            PyBuffer_Release(views[i]);
}

/* Whether the memory of two acquired buffers overlaps. */
static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *p = a->buf, *q = b->buf;
    return p < q + b->len && q < p + a->len;
}

#if defined(__linux__) && defined(__GLIBC__)
#define PLACE_HELPERS 1
#define MOST_CPUS CPU_SETSIZE
#else
#define MOST_CPUS 1
#endif

/* The CPUs a call's helpers go on (see the header), ascending, into cpu:
   the caller's allowed CPUs less the one it runs on, one fewer than the
   allowed at most; returns how many, or -1 where the allowed set is not
   known and helpers run unpinned. */
static int
helper_cpus(int cpu[MOST_CPUS])
{
#ifdef PLACE_HELPERS
    cpu_set_t allowed;
    if (pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0)
        return -1;
    int count = 0, here = sched_getcpu(), most = CPU_COUNT(&allowed) - 1;
    for (int c = 0; c < CPU_SETSIZE && count < most; c++)
        if (CPU_ISSET(c, &allowed) && c != here)
            cpu[count++] = c;
    return count;
#else
    (void)cpu;
    return -1;
#endif
}

/* A helper of the team: its thread, the CPU it is pinned on (-1: none),
   and its share of the job posted to it (NULL: none posted). */
struct helper {
    pthread_t id;
    pthread_cond_t wake;
    int cpu;
    void *share;
};

/* The process's helpers, started as calls ask for them: busy is held by
   the call using them, lock guards the job's fn and each helper's share,
   and pending counts the helpers still on the job. */
static struct {
    pthread_mutex_t busy, lock;
    struct helper **helper;
    Py_ssize_t size, pending;
    void *(*fn)(void *);
} team = {.busy = PTHREAD_MUTEX_INITIALIZER, .lock = PTHREAD_MUTEX_INITIALIZER};

/* A helper's life: asleep until a share is posted to it, then the share,
   taken off the helper before it runs, and it counts itself off the job. */
static void *
serve(void *arg)
{
    struct helper *me = arg;
#ifdef PLACE_HELPERS
    pthread_setname_np(pthread_self(), "hhfs helper");  /* as /proc and top -H list it */
#endif
    pthread_mutex_lock(&team.lock);
    for (;;) {
        while (me->share == NULL)
            pthread_cond_wait(&me->wake, &team.lock);
        void *(*fn)(void *) = team.fn;
        void *share = me->share;
        me->share = NULL;
        pthread_mutex_unlock(&team.lock);
        fn(share);
        __atomic_sub_fetch(&team.pending, 1, __ATOMIC_RELEASE);
        pthread_mutex_lock(&team.lock);
    }
    return NULL;
}

/* Helper h moved onto CPU cpu (where helpers are placed); h->cpu where it is. */
static void
place(struct helper *h, int cpu)
{
#ifdef PLACE_HELPERS
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    h->cpu = pthread_setaffinity_np(h->id, sizeof one, &one) == 0 ? cpu : -1;
#else
    (void)h, (void)cpu;
#endif
}

/* The team grown to want helpers, each started unpinned (spread places
   it); a helper that cannot start, or no room for it, leaves it smaller. */
static void
grow(Py_ssize_t want)
{
    struct helper **more = realloc(team.helper, want * sizeof *more);
    if (more == NULL)
        return;
    team.helper = more;
    while (team.size < want) {
        struct helper *h = malloc(sizeof *h);
        if (h == NULL)
            return;
        *h = (struct helper){.wake = PTHREAD_COND_INITIALIZER, .cpu = -1};
        if (pthread_create(&h->id, NULL, serve, h) != 0) {
            free(h);
            return;
        }
        team.helper[team.size++] = h;
    }
}

/* fn(arg + t * size) for t in 0..count-1 at most: t = 0 on this thread
   and t >= 1 on the team's helper t - 1, as many as helper_cpus counts at
   most, each first pinned to its CPU there where it is not on it yet (a
   helper just started is on none). Each fn takes its work off one
   cursor, so a share no helper runs is left to the others: where the
   team is busy with another thread's call, this one runs alone. Needs no
   GIL. */
static void
spread(void *(*fn)(void *), void *arg, size_t size, Py_ssize_t count)
{
    if (count < 2 || pthread_mutex_trylock(&team.busy) != 0) {
        fn(arg);
        return;
    }
    int cpu[MOST_CPUS], cpus = helper_cpus(cpu);
    Py_ssize_t helpers = cpus >= 0 && cpus < count - 1 ? cpus : count - 1;
    if (helpers > team.size)
        grow(helpers);
    if (helpers > team.size)
        helpers = team.size;
    for (Py_ssize_t t = 0; cpus > 0 && t < helpers; t++)
        if (team.helper[t]->cpu != cpu[t])
            place(team.helper[t], cpu[t]);
    __atomic_store_n(&team.pending, helpers, __ATOMIC_RELAXED);
    pthread_mutex_lock(&team.lock);
    team.fn = fn;
    for (Py_ssize_t t = 0; t < helpers; t++)
        team.helper[t]->share = (char *)arg + (t + 1) * size;
    pthread_mutex_unlock(&team.lock);
    for (Py_ssize_t t = 0; t < helpers; t++)
        pthread_cond_signal(&team.helper[t]->wake);
    fn(arg);
    /* awake: a caller that slept here could be woken on a helper's CPU and stay there */
    while (__atomic_load_n(&team.pending, __ATOMIC_ACQUIRE) > 0)
        sched_yield();
    pthread_mutex_unlock(&team.busy);
}

/* A forked child has none of the team's threads: its team starts empty. */
static void
empty_team(void)
{
    for (Py_ssize_t t = 0; t < team.size; t++)
        free(team.helper[t]);
    free(team.helper);
    team.helper = NULL;
    team.size = 0;
    pthread_mutex_init(&team.busy, NULL);
    pthread_mutex_init(&team.lock, NULL);
}

/* The correlation cache for n features: feature_class and feature_feature. */
struct cache {
    Py_ssize_t n;
    const double *fc, *ff;
};

/* A scan's count, sums and merit. */
struct sums {
    Py_ssize_t k;
    double sum_cf, sum_ff, merit;
};

/* The scan of ``bits``: its row into ``row``, its sums as returned. */
static struct sums
scan_bits(const char *bits, const struct cache *c, double *restrict row)
{
    Py_ssize_t n = c->n;
    struct sums s = {0, 0.0, 0.0, 0.0};
    for (Py_ssize_t j = 0; j < n; j++)
        row[j] = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!bits[i])
            continue;
        const double *restrict ff = c->ff + i * n;
        for (Py_ssize_t j = 0; j < n; j++)
            row[j] += ff[j];
        s.k++;
        s.sum_cf += c->fc[i];
    }
    for (Py_ssize_t i = 0; i < n; i++)
        if (bits[i])
            s.sum_ff += row[i] - c->ff[i * n + i];
    s.merit = s.k ? s.sum_cf / sqrt((double)s.k + s.sum_ff) : 0.0;
    return s;
}

/* The sums of the scan ``s`` of bits and row with bit b flipped. */
static inline struct sums
flip(const char *bits, const double *row, const struct cache *c, const struct sums *s,
     Py_ssize_t b)
{
    struct sums f;
    if (bits[b]) {
        f.k = s->k - 1;
        f.sum_cf = s->sum_cf - c->fc[b];
        f.sum_ff = s->sum_ff - 2.0 * (row[b] - c->ff[b * c->n + b]);
    } else {
        f.k = s->k + 1;
        f.sum_cf = s->sum_cf + c->fc[b];
        f.sum_ff = s->sum_ff + 2.0 * row[b];
    }
    f.merit = f.k ? f.sum_cf / sqrt((double)f.k + f.sum_ff) : 0.0;
    return f;
}

/* The NAHC/DBHC/RMHC pass: visit pos[0..count-1] in order and keep a flip
   iff its merit is above the current one (or equal, with ties). A kept flip
   inverts its bit, adds or subtracts its feature_feature row from the row
   element by element and carries its sums on. Returns whether a flip was kept. */
static int
sweep(const int64_t *pos, Py_ssize_t count, int ties, char *bits, double *restrict row,
      const struct cache *c, struct sums s)
{
    int kept = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t b = (Py_ssize_t)pos[i];
        struct sums f = flip(bits, row, c, &s, b);
        if (!(f.merit > s.merit || (ties && f.merit == s.merit)))
            continue;
        const double *restrict ff = c->ff + b * c->n;
        if (bits[b])
            for (Py_ssize_t j = 0; j < c->n; j++)
                row[j] -= ff[j];
        else
            for (Py_ssize_t j = 0; j < c->n; j++)
                row[j] += ff[j];
        bits[b] ^= 1;
        s = f;
        kept = 1;
    }
    return kept;
}

/* SDHC's move: the first of pos[0..count-1] (ascending) whose flip scores
   the highest merit, if that merit is strictly above the scan's; else -1. */
static Py_ssize_t
best(const int64_t *pos, Py_ssize_t count, const char *bits, const double *row,
     const struct cache *c, const struct sums *s)
{
    Py_ssize_t top = -1;
    double top_merit = 0.0;
    for (Py_ssize_t i = 0; i < count; i++) {
        double merit = flip(bits, row, c, s, (Py_ssize_t)pos[i]).merit;
        if (top < 0 || merit > top_merit) {
            top = (Py_ssize_t)pos[i];
            top_merit = merit;
        }
    }
    return top >= 0 && top_merit > s->merit ? top : -1;
}

/* Keep, in order, the positions of pos[0..count-1] that ``domain`` lets
   flip; returns how many. */
static Py_ssize_t
in_domain(const char *bits, enum domain domain, int64_t *pos, Py_ssize_t count)
{
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < count; i++)
        if (domain == ALL || (bits[pos[i]] != 0) == (domain == ONES))
            pos[kept++] = pos[i];
    return kept;
}

/* Generator.integers(n), n >= 1. */
static Py_ssize_t
draw_below(bitgen_t *rng, Py_ssize_t n)
{
    uint64_t out;
    random_bounded_uint64_fill(rng, 0, (uint64_t)(n - 1), 1, false, &out);
    return (Py_ssize_t)out;
}

/* Gene g on the scan ``s`` of bits and row, in place; returns whether it
   moved. A hill-climber that keeps a flip may leave the row stale: a moved
   gene is scanned afresh. ``pos`` and ``coins`` hold n items each. */
static int
run_gene(int g, bitgen_t *rng, double mutn_rate, char *bits, double *row,
         const struct cache *c, const struct sums *s, int64_t *pos, double *coins)
{
    Py_ssize_t n = c->n, count, b;
    if (g <= 12) {
        enum rule rule = (g - 1) / 3;
        enum domain domain = (g - 1) % 3;
        for (b = 0; b < n; b++)
            pos[b] = b;
        if (rule == DBHC) {  /* Generator.permutation(n) */
            for (Py_ssize_t i = n - 1; i > 0; i--) {
                Py_ssize_t j = (Py_ssize_t)random_interval(rng, (uint64_t)i);
                int64_t t = pos[i];
                pos[i] = pos[j];
                pos[j] = t;
            }
        }
        count = in_domain(bits, domain, pos, n);
        switch (rule) {
        case SDHC:
            if ((b = best(pos, count, bits, row, c, s)) < 0)
                return 0;
            bits[b] ^= 1;
            return 1;
        case RMHC:  /* an empty domain draws nothing */
            return count && sweep(pos + draw_below(rng, count), 1, 1, bits, row, c, *s);
        default:
            return sweep(pos, count, 0, bits, row, c, *s);
        }
    }
    switch (g) {
    case SWPD: {
        Py_ssize_t i = draw_below(rng, n), j = draw_below(rng, n - 1);
        if (j >= i)
            j++;
        if (bits[i] == bits[j])
            return 0;
        bits[i] ^= 1;
        bits[j] ^= 1;
        return 1;
    }
    case DIMM:
        b = draw_below(rng, n);
        if (!(random_standard_uniform(rng) < 0.5))
            return 0;
        bits[b] ^= 1;
        return 1;
    default: {  /* HYPM, MUTN */
        double rate = g == HYPM ? 0.5 : mutn_rate;
        int moved = 0;
        random_standard_uniform_fill(rng, n, coins);
        for (b = 0; b < n; b++) {
            if (coins[b] < rate) {
                bits[b] ^= 1;
                moved = 1;
            }
        }
        return moved;
    }
    }
}

/* The cache buffers at args[0..1]: feature_class, feature_feature. */
static int
get_cache(PyObject *const *args, Py_buffer views[2], struct cache *c)
{
    if (get_buffer(args[0], &views[0], "feature_class", FLOAT64, 1, c->n, 0) < 0
        || get_buffer(args[1], &views[1], "feature_feature", FLOAT64, 2, c->n, 0) < 0)
        return -1;
    c->fc = views[0].buf;
    c->ff = views[1].buf;
    return 0;
}

static PyObject *
scan(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "scan(bits, feature_class, feature_feature, row_out)"
                     " takes 4 arguments, %zd given", nargs);
        return NULL;
    }
    Py_buffer bits = {0}, cache[2] = {{0}}, row = {0};
    Py_buffer *views[] = {&bits, &cache[0], &cache[1], &row};
    PyObject *result = NULL;
    struct cache c;
    if (get_buffer(args[0], &bits, "bits", BOOL, 1, -1, 0) < 0)
        goto done;
    c.n = bits.shape[0];
    if (get_cache(args + 1, cache, &c) < 0
        || get_buffer(args[3], &row, "row_out", FLOAT64, 1, c.n, 1) < 0)
        goto done;
    struct sums s = scan_bits(bits.buf, &c, row.buf);
    result = Py_BuildValue("(nddd)", s.k, s.sum_cf, s.sum_ff, s.merit);
done:
    release(views, 4);
    return result;
}

/* Refuse any of the genes gene[0..count-1] that is no catalog id, or that
   the n dimensions cannot run. */
static int
check_genes(const int64_t *gene, Py_ssize_t count, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < count; i++) {
        if (gene[i] < 1 || gene[i] > NUM_LLH) {
            PyErr_Format(PyExc_ValueError, "unknown low-level heuristic id %lld",
                         (long long)gene[i]);
            return -1;
        }
        if (n < (gene[i] == SWPD ? 2 : 1)) {
            PyErr_SetString(PyExc_ValueError, gene[i] == SWPD
                            ? "swap needs at least 2 dimensions"
                            : "a heuristic needs at least 1 dimension");
            return -1;
        }
    }
    return 0;
}

/* A chromosome: the genes gene[0..count-1] left to right from ``bits``
   into ``out``, each counted, and each that moved scanned afresh and
   counted as an improvement where its merit rose. ``work`` holds the row,
   then run_gene's n positions and n coins. Kept out of line: inlined into
   its caller, gcc laid the heuristics out slower. */
static __attribute__((noinline)) void
run_chromosome(const int64_t *gene, Py_ssize_t count, bitgen_t *rng, double mutn_rate,
               const char *bits, char *out, const struct cache *c, double *work,
               int64_t *invoked, int64_t *improved)
{
    memcpy(out, bits, c->n);
    struct sums s = scan_bits(out, c, work);
    for (Py_ssize_t i = 0; i < count; i++) {
        int g = (int)gene[i];
        invoked[g]++;
        if (!run_gene(g, rng, mutn_rate, out, work, c, &s, (int64_t *)(work + c->n),
                      work + 2 * c->n))
            continue;
        double before = s.merit;
        s = scan_bits(out, c, work);
        improved[g] += s.merit > before;
    }
}

/* The bit generator behind a numpy BitGenerator's capsule, or NULL with an
   error set; *capsule holds the reference that keeps it alive. */
static bitgen_t *
get_bitgen(PyObject *bit_generator, PyObject **capsule)
{
    bitgen_t *rng = NULL;
    if ((*capsule = PyObject_GetAttrString(bit_generator, "capsule")) == NULL
        || (rng = PyCapsule_GetPointer(*capsule, "BitGenerator")) == NULL) {
        PyErr_Format(PyExc_TypeError, "bit_generator must be a numpy BitGenerator, not %s",
                     Py_TYPE(bit_generator)->tp_name);
        return NULL;
    }
    return rng;
}

/* numpy's PCG64, as seeded from a SeedSequence: a 128-bit LCG with the
   XSL-RR output, and next_uint32's half-word buffer. */
typedef __uint128_t u128;
struct pcg64 {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
};
#define PCG64_MULTIPLIER (((u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

static inline uint64_t
pcg64_next64(void *state)
{
    struct pcg64 *p = state;
    p->state = p->state * PCG64_MULTIPLIER + p->inc;
    uint64_t x = (uint64_t)(p->state >> 64) ^ (uint64_t)p->state;
    unsigned rot = (unsigned)(p->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint32_t
pcg64_uint32(void *state)
{
    struct pcg64 *p = state;
    if (p->has_uint32) {
        p->has_uint32 = 0;
        return p->uinteger;
    }
    uint64_t next = pcg64_next64(p);
    p->has_uint32 = 1;
    p->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double
pcg64_double(void *p)
{
    return (double)(pcg64_next64(p) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's SeedSequence hash and mix */
static inline uint32_t
hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ value >> 16;
}

static inline uint32_t
mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ r >> 16;
}

/* p = PCG64(SeedSequence(entropy)) for the entropy words word[0..count-1]:
   the 4-word pool, its generate_state(4, uint64), and PCG64's seeding. */
static void
seed_pcg64(const uint32_t *word, Py_ssize_t count, struct pcg64 *p)
{
    uint32_t pool[4], hash = 0x43b0d7e5u;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < count ? word[i] : 0, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (Py_ssize_t src = 4; src < count; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(word[src], &hash));
    uint64_t state[4] = {0};  /* 8 words off the cycled pool, paired little-endian */
    hash = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % 4] ^ hash;
        hash *= 0x58f38dedu;
        v *= hash;
        state[i / 2] |= (uint64_t)(v ^ v >> 16) << (32 * (i % 2));
    }
    p->state = 0;
    p->inc = (((u128)state[2] << 64) + state[3]) << 1 | 1;
    pcg64_next64(p);
    p->state += ((u128)state[0] << 64) + state[1];
    pcg64_next64(p);
    p->has_uint32 = 0;
    p->uinteger = 0;
}

/* A generation call's rows, their key rows and outputs, and its cursor,
   the next row to take, for all its threads. */
struct rows {
    const int64_t *gene;
    const uint32_t *key;
    const char *bits;
    char *masks;
    const struct cache *c;
    double mutn_rate;
    Py_ssize_t length, words, count, next;
};

/* One thread of a generation call: its run_chromosome work, its counter
   pair (invocations, then improvements) and its mask buffer. */
struct climber {
    struct rows *rows;
    double *work;
    int64_t *counts;
    char *mask;
};

/* A climber's loop: the next row off the cursor, until none is left, on
   its own stream, climbed in its buffer and copied out. */
static void *
climb_rows(void *arg)
{
    const struct climber *me = arg;
    struct rows *r = me->rows;
    Py_ssize_t n = r->c->n, i;
    struct pcg64 pcg;
    bitgen_t own = {&pcg, pcg64_next64, pcg64_uint32, pcg64_double, pcg64_next64};
    while ((i = __atomic_fetch_add(&r->next, 1, __ATOMIC_RELAXED)) < r->count) {
        seed_pcg64(r->key + i * r->words, r->words, &pcg);
        run_chromosome(r->gene + i * r->length, r->length, &own, r->mutn_rate, r->bits,
                       me->mask, r->c, me->work, me->counts, me->counts + NUM_LLH + 1);
        memcpy(r->masks + i * n, me->mask, n);
    }
    return NULL;
}

#define LINE 64  /* bytes: each climber's block starts a cache line */

static PyObject *
generation(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 10) {
        PyErr_Format(PyExc_TypeError,
                     "generation(population, keys, bits, feature_class, feature_feature,"
                     " mutn_rate, invocations, improvements, masks_out, threads)"
                     " takes 10 arguments, %zd given", nargs);
        return NULL;
    }
    Py_buffer population = {0}, keys = {0}, bits = {0}, cache[2] = {{0}};
    Py_buffer invocations = {0}, improvements = {0}, masks_out = {0};
    Py_buffer *views[] = {&population, &keys, &bits, &cache[0], &cache[1],
                          &invocations, &improvements, &masks_out};
    PyObject *result = NULL;
    struct climber *climbers = NULL;
    char *blocks = NULL;
    struct cache c;
    if (get_buffer(args[0], &population, "population", INT64, 2, -1, 0) < 0
        || get_buffer(args[2], &bits, "bits", BOOL, 1, -1, 0) < 0)
        goto done;
    c.n = bits.shape[0];
    Py_ssize_t rows = population.shape[0], length = population.shape[1];
    if (get_cache(args + 3, cache, &c) < 0
        || get_buffer(args[6], &invocations, "invocations", INT64, 1, NUM_LLH + 1, 1) < 0
        || get_buffer(args[7], &improvements, "improvements", INT64, 1, NUM_LLH + 1, 1) < 0
        || get_buffer(args[8], &masks_out, "masks_out", BOOL, 2, -1, 1) < 0)
        goto done;
    if (masks_out.shape[0] != rows || masks_out.shape[1] != c.n) {
        PyErr_Format(PyExc_ValueError, "masks_out has shape (%zd, %zd), expected (%zd, %zd)",
                     masks_out.shape[0], masks_out.shape[1], rows, c.n);
        goto done;
    }
    if (overlap(&masks_out, &bits)) {
        PyErr_SetString(PyExc_ValueError, "masks_out must not overlap bits");
        goto done;
    }
    if (get_buffer(args[1], &keys, "keys", UINT32, 2, -1, 0) < 0)
        goto done;
    if (keys.shape[0] != rows) {
        PyErr_Format(PyExc_ValueError, "keys has %zd rows, expected %zd", keys.shape[0], rows);
        goto done;
    }
    Py_ssize_t threads;
    double mutn_rate = PyFloat_AsDouble(args[5]);
    if ((mutn_rate == -1.0 && PyErr_Occurred()) || !PyArg_Parse(args[9], "n", &threads))
        goto done;
    if (threads < 1) {
        PyErr_SetString(PyExc_ValueError, "threads must be at least 1");
        goto done;
    }
    if (check_genes(population.buf, rows * length, c.n) < 0)
        goto done;
    /* per thread: the row, run_gene's n positions and n coins, the counter
       pair and the mask, in a block of whole cache lines */
    Py_ssize_t started = rows < 1 ? 1 : threads < rows ? threads : rows;
    Py_ssize_t row_bytes = c.n * (2 * sizeof(double) + sizeof(int64_t));
    Py_ssize_t counts_bytes = 2 * (NUM_LLH + 1) * sizeof(int64_t);
    Py_ssize_t each = (row_bytes + counts_bytes + c.n + LINE - 1) / LINE * LINE;
    climbers = PyMem_Calloc(started, sizeof *climbers);
    blocks = started > (PY_SSIZE_T_MAX - LINE) / each ? NULL
             : PyMem_Calloc(started * each + LINE, 1);
    if (climbers == NULL || blocks == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    struct rows r = {population.buf, keys.buf, bits.buf, masks_out.buf, &c, mutn_rate,
                     length, keys.shape[1], rows, 0};
    char *line = blocks + (LINE - (uintptr_t)blocks % LINE) % LINE;
    for (Py_ssize_t t = 0; t < started; t++) {
        char *mine = line + t * each;
        climbers[t] = (struct climber){&r, (double *)mine, (int64_t *)(mine + row_bytes),
                                       mine + row_bytes + counts_bytes};
    }
    Py_BEGIN_ALLOW_THREADS  /* every buffer is held, so other threads may run */
    spread(climb_rows, climbers, sizeof *climbers, started);
    Py_END_ALLOW_THREADS
    int64_t *invoked = invocations.buf, *improved = improvements.buf;
    for (Py_ssize_t t = 0; t < started; t++) {
        for (int g = 0; g <= NUM_LLH; g++) {
            invoked[g] += climbers[t].counts[g];
            improved[g] += climbers[t].counts[NUM_LLH + 1 + g];
        }
    }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(climbers);
    PyMem_Free(blocks);
    release(views, 8);
    return result;
}

/* Per consecutive pair of rows, Generator.random() as a coin and, where it
   is below p_crossover and the rows have a cut point, a cut from
   Generator.integers(1, length): the pair swaps its genes from the cut on.
   Then per row, Generator.random(length) as a coin per gene, and
   Generator.integers(1, NUM_LLH, size=hits) as the new ids of the genes
   whose coin is below p_mutation, each shifted up past the gene's old id. */
static PyObject *
breed(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "breed(chromosomes, bit_generator, p_crossover,"
                     " p_mutation) takes 4 arguments, %zd given", nargs);
        return NULL;
    }
    Py_buffer pool = {0};
    PyObject *capsule = NULL, *result = NULL;
    double *coins = NULL;
    double p_crossover, p_mutation;
    bitgen_t *rng;
    if (get_buffer(args[0], &pool, "chromosomes", INT64, 2, -1, 1) < 0
        || ((p_crossover = PyFloat_AsDouble(args[2])) == -1.0 && PyErr_Occurred())
        || ((p_mutation = PyFloat_AsDouble(args[3])) == -1.0 && PyErr_Occurred())
        || (rng = get_bitgen(args[1], &capsule)) == NULL)
        goto done;
    Py_ssize_t rows = pool.shape[0], length = pool.shape[1];
    /* the coins, then the hits' positions and their draws */
    if ((coins = PyMem_Malloc(length * (sizeof(double) + 2 * sizeof(uint64_t)))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    uint64_t *hit = (uint64_t *)(coins + length), *draw = hit + length;
    for (Py_ssize_t i = 0; i + 1 < rows; i += 2) {
        if (random_standard_uniform(rng) >= p_crossover || length < 2)
            continue;
        uint64_t cut;
        random_bounded_uint64_fill(rng, 1, (uint64_t)(length - 2), 1, false, &cut);
        int64_t *a = (int64_t *)pool.buf + i * length, *b = a + length;
        for (Py_ssize_t j = (Py_ssize_t)cut; j < length; j++) {
            int64_t t = a[j];
            a[j] = b[j];
            b[j] = t;
        }
    }
    for (Py_ssize_t i = 0; i < rows; i++) {
        int64_t *gene = (int64_t *)pool.buf + i * length;
        Py_ssize_t hits = 0;
        random_standard_uniform_fill(rng, length, coins);
        for (Py_ssize_t j = 0; j < length; j++)
            if (coins[j] < p_mutation)
                hit[hits++] = (uint64_t)j;
        random_bounded_uint64_fill(rng, 1, NUM_LLH - 2, hits, false, draw);
        for (Py_ssize_t h = 0; h < hits; h++)
            gene[hit[h]] = (int64_t)draw[h] + ((int64_t)draw[h] >= gene[hit[h]]);
    }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(coins);
    Py_XDECREF(capsule);
    if (pool.obj != NULL)
        PyBuffer_Release(&pool);
    return result;
}

#define BLOCK 4  /* rows summed at a time */

/* With glibc on x86-64 Linux (its loader runs target_clones' ifunc resolver)
   nearest_rows is built for AVX-512 and the baseline, so a cached build runs
   on any x86-64 CPU, and both add the same terms in the same order (fused on
   AVX-512, within the same bound), so find the same neighbours. No AVX2
   build: gcc 12 spills 64-byte vectors, as nearest_rows' 16-float lanes
   are, out of pairs of 256-bit registers.
   An AVX2 clone was measured only on an earlier float64 distance loop with
   8-double lanes, where it ran slower than the baseline build. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define WIDEST_VECTORS __attribute__((target_clones("avx512f", "default")))
#endif
#endif
#ifndef WIDEST_VECTORS
#define WIDEST_VECTORS
#endif

#define SCREEN_LANES 16  /* float32 columns screened at a time, as one vector */
typedef float screen_lanes __attribute__((vector_size(SCREEN_LANES * sizeof(float))));
typedef int32_t label_lanes __attribute__((vector_size(SCREEN_LANES * sizeof(int32_t))));
#define QUIET_NAN 0x7fc00000  /* NAN's bits as a float32: above every distance's */

/* The screen's sums for the nr <= BLOCK rows i..i+nr-1 of the (k, w)
   float32 columns y into their rows of out, each term rounded and added in
   ascending l as exact adds them, each row from the vector holding column
   i to w - 1 (a multiple of SCREEN_LANES); a tile right of the rows' own
   also into its rows below n, columns i..i+nr-1, as (a - b)^2 equals
   (b - a)^2 exactly. Inlined, so it runs on the vector unit of the
   nearest_rows clone that calls it. */
static inline __attribute__((always_inline)) void
screen_block(const float *y, Py_ssize_t k, Py_ssize_t n, Py_ssize_t w, Py_ssize_t i, int nr,
             float *out)
{
    for (Py_ssize_t j = i - i % SCREEN_LANES; j < w; j += SCREEN_LANES) {
        screen_lanes acc[BLOCK] = {{0}};
        for (Py_ssize_t l = 0; l < k; l++) {
            screen_lanes yj;
            memcpy(&yj, y + l * w + j, sizeof yj);
            for (int s = 0; s < nr; s++) {
                screen_lanes t = y[l * w + i + s] - yj;
                acc[s] += t * t;
            }
        }
        for (int s = 0; s < nr; s++)
            memcpy(out + s * w + j, &acc[s], sizeof acc[s]);
        for (Py_ssize_t c = 0; j > i && c < SCREEN_LANES && j + c < n; c++)
            for (int s = 0; s < nr; s++)
                out[(j - i + c) * w + i + s] = acc[s][c];  /* row j + c, column i + s */
    }
}

/* The constants of the screen's bound (see nearest): the float32 and
   float64 sums' relative error bounds, the copy's rounding radius and the
   two sums' absolute underflow allowances, all in the copy's units. */
struct bound {
    double g32, g64, rho, pad32, pad64;
    int open;  /* the bound holds nothing: every column is a candidate */
};

/* The largest float32 screen distance a column can have and still tie or
   beat, in float64, a column whose screen distance is m. */
static float
threshold(float m, const struct bound *b)
{
    if (b->open)
        return INFINITY;
    double near = sqrt(((double)m + b->pad32) / (1.0 - b->g32)) + b->rho;
    double reach = (near * near * (1.0 + b->g64) + 2.0 * b->pad64) / (1.0 - b->g64);
    double far = sqrt(reach) + b->rho;
    double t = ((1.0 + b->g32) * far * far + b->pad32) * (1.0 + 0x1p-40);
    float up = (float)t;
    return (double)up < t ? nextafterf(up, INFINITY) : up;
}

/* Column j's float64 distance from row i, as nearest defines it: each
   term rounded, then added in ascending l. */
static inline double
exact(const double *x, Py_ssize_t k, Py_ssize_t n, Py_ssize_t i, Py_ssize_t j)
{
    double acc = 0.0;
    for (Py_ssize_t l = 0; l < k; l++) {
        double t = x[l * n + i] - x[l * n + j];
        acc += t * t;
    }
    return acc;
}

/* The nearest candidate so far: its column (-1 for none) and, once a
   second candidate came, its exact distance. */
struct pick {
    Py_ssize_t j;
    double d;
    int summed;
};

/* Take candidate column j in place of *p where it is nearer row i, or as
   near and lower. A lone candidate is never summed. */
static inline void
take(struct pick *p, Py_ssize_t j, const double *x, Py_ssize_t k, Py_ssize_t n, Py_ssize_t i)
{
    if (p->j < 0) {
        p->j = j;
        p->summed = 0;
        return;
    }
    if (!p->summed) {
        p->d = exact(x, k, n, i, p->j);
        p->summed = 1;
    }
    double d = exact(x, k, n, i, j);
    if (d < p->d || (d == p->d && j < p->j)) {
        p->j = j;
        p->d = d;
    }
}

/* A row's screen distances lane by lane, lane s holding the columns j with
   j % SCREEN_LANES == s: each lane's least distance, the lowest column
   holding it and the lane's next least distance, as float32 bits; and the
   last threshold the row took, t = threshold(m). */
struct lanes {
    label_lanes least, column, next;
    float m, t;
};

/* The lanes of ``row``, w columns. The distances are non-negative or NaN,
   whose bits order as the floats do (NaN, QUIET_NAN, above all), so the
   comparisons are integer differences' signs: gcc 12 splits those into
   the baseline build's 4-lane instructions, and scalarises a comparison. */
static inline __attribute__((always_inline)) void
survey(const float *row, Py_ssize_t w, struct lanes *st)
{
    label_lanes least = (label_lanes){0} + QUIET_NAN, next = least, column, at;
    for (int s = 0; s < SCREEN_LANES; s++)
        at[s] = s;
    column = at;
    for (Py_ssize_t j = 0; j < w; j += SCREEN_LANES) {
        label_lanes d;
        memcpy(&d, row + j, sizeof d);
        label_lanes gap = d - least, less = gap >> 31;
        label_lanes high = d - (gap & less);  /* the larger of d and least */
        least += gap & less;
        column = (at & less) | (column & ~less);
        gap = high - next;
        next += gap & (gap >> 31);
        at += SCREEN_LANES;
    }
    st->least = least;
    st->column = column;
    st->next = next;
    st->m = -1.0f;  /* no distance: the first threshold is computed */
}

/* Row i's nearest column in another fold (see nearest): m is the least of
   the lanes' least distances whose column is in another fold, or, where
   none is, the least distance in another fold. A lane whose next least
   distance is within threshold(m) is searched column by column, as is
   every lane where no lane's least column is in another fold; any other
   lane's only candidate is its least column. The row's own and padded
   columns hold NaN, which no comparison takes. */
static __attribute__((noinline)) Py_ssize_t
nearest_of(const float *row, const int32_t *fold, struct lanes *st, Py_ssize_t i,
           const struct bound *b, const double *x, Py_ssize_t k, Py_ssize_t n)
{
    int32_t own = fold[i], m = QUIET_NAN;
    for (int s = 0; s < SCREEN_LANES; s++)
        if (st->least[s] < m && fold[st->column[s]] != own)
            m = st->least[s];
    int every = m == QUIET_NAN;
    float low = INFINITY;
    if (every) {
        for (Py_ssize_t j = 0; j < n; j++)
            if (fold[j] != own && row[j] < low)
                low = row[j];
    } else {
        memcpy(&low, &m, sizeof low);
    }
    if (!(low == st->m)) {
        st->m = low;
        st->t = threshold(low, b);
    }
    float t = st->t;
    int32_t top;
    memcpy(&top, &t, sizeof top);
    struct pick p = {-1, 0.0, 0};
    for (int s = 0; s < SCREEN_LANES; s++) {
        if (every || st->next[s] <= top) {
            for (Py_ssize_t j = s; j < n; j += SCREEN_LANES)
                if (fold[j] != own && row[j] <= t)
                    take(&p, j, x, k, n, i);
        } else if (st->least[s] <= top && fold[st->column[s]] != own) {
            take(&p, st->column[s], x, k, n, i);
        }
    }
    return p.j;
}

/* A nearest call's buffers, e, 2^e as two exact factors and underflow (see
   nearest), and its cursor, the next mask to take, for all its threads. */
struct batch {
    const double *columns, *low, *span;
    int e;
    double scale[2], underflow;
    const int32_t *folds;
    const char *masks;
    int64_t *out;
    Py_ssize_t features, n, w, repeats, count, next;
};

/* nearest's work for a mask's (k, n) columns x, their least values low:
   their float32 copy y, the screen's n x w out from it, each pair summed
   once, BLOCK rows at a time (screen_block), then the diagonal and the
   padded columns NaN; then per row its lanes and, per repeat r, its nearest
   column in another fold of folds[r], into nearest[r]. The copy and the
   screen run on the clone's vector unit, the screen's squares fused into
   its sums where it has FMA (AVX-512); nearest_of, out of line, keeps its
   sums unfused. */
WIDEST_VECTORS __attribute__((optimize("fp-contract=fast"))) static void
nearest_rows(const struct batch *c, const double *x, const double *low, Py_ssize_t k,
             const struct bound *b, float *y, float *out, int64_t *nearest)
{
    Py_ssize_t n = c->n, w = c->w;
    for (Py_ssize_t l = 0; l < k; l++) {
        for (Py_ssize_t i = 0; i < n; i++) {
            float v = (float)((x[l * n + i] - low[l]) * c->scale[0] * c->scale[1]);
            y[l * w + i] = v >= 0.0f && v <= 1.0f ? v : 0.0f;
        }
        memset(y + l * w + n, 0, (w - n) * sizeof *y);
    }
    float nan;
    memcpy(&nan, &(int32_t){QUIET_NAN}, sizeof nan);
    for (Py_ssize_t r = 0; r < n; r += BLOCK) {
        if (n - r >= BLOCK)
            screen_block(y, k, n, w, r, BLOCK, out + r * w);
        else
            screen_block(y, k, n, w, r, (int)(n - r), out + r * w);
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        out[r * w + r] = nan;
        for (Py_ssize_t j = n; j < w; j++)
            out[r * w + j] = nan;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        struct lanes st;
        survey(out + i * w, w, &st);
        for (Py_ssize_t t = 0; t < c->repeats; t++)
            nearest[t * n + i] = nearest_of(out + i * w, c->folds + t * n, &st, i, b, x, k, n);
    }
}

/* One thread of a nearest call: its n x w work and its buffers for a
   mask's columns x, their least values and their copy y, N rows at most. */
struct worker {
    struct batch *batch;
    float *work, *y;
    double *x, *low;
};

/* A worker's loop: the next mask off the cursor, until none is left: its
   columns gathered, in ascending order, its bound's constants from its k
   and its radii, and its neighbours into its rows of out. */
static void *
work_masks(void *arg)
{
    const struct worker *me = arg;
    struct batch *c = me->batch;
    Py_ssize_t n = c->n, m;
    while ((m = __atomic_fetch_add(&c->next, 1, __ATOMIC_RELAXED)) < c->count) {
        const char *mask = c->masks + m * c->features;
        Py_ssize_t k = 0;
        double r2 = 0.0;
        for (Py_ssize_t l = 0; l < c->features; l++) {
            if (!mask[l])
                continue;
            memcpy(me->x + k * n, c->columns + l * n, n * sizeof *me->x);
            me->low[k] = c->low[l];
            double radius = ldexp(c->span[l], c->e - 23) + 0x1p-124;
            r2 += radius * radius;
            k++;
        }
        double e32 = (double)(k + 2) * 0x1p-24, e64 = (double)(k + 2) * 0x1p-53;
        struct bound b = {e32 / (1.0 - e32), e64 / (1.0 - e64), 2.0 * sqrt(r2) * (1.0 + 0x1p-40),
                          (double)k * 0x1p-124, (double)k * c->underflow,
                          !(e32 < 0.5) || c->underflow == INFINITY};
        nearest_rows(c, me->x, me->low, k, &b, me->y, me->work, c->out + m * c->repeats * n);
    }
    return NULL;
}

static PyObject *
nearest(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError,
                     "nearest(columns, low, span, folds, masks, work, out) takes 7 arguments,"
                     " %zd given", nargs);
        return NULL;
    }
    Py_buffer columns = {0}, low = {0}, span = {0}, folds = {0}, masks = {0}, work = {0},
              out = {0};
    Py_buffer *views[] = {&columns, &low, &span, &folds, &masks, &work, &out};
    PyObject *result = NULL;
    struct worker *workers = NULL;
    char *gathered = NULL;
    if (get_buffer(args[0], &columns, "columns", FLOAT64, 2, -1, 0) < 0)
        goto done;
    Py_ssize_t features = columns.shape[0], n = columns.shape[1];
    Py_ssize_t w = (n + SCREEN_LANES - 1) / SCREEN_LANES * SCREEN_LANES;
    if (get_buffer(args[1], &low, "low", FLOAT64, 1, features, 0) < 0
        || get_buffer(args[2], &span, "span", FLOAT64, 1, features, 0) < 0
        || get_buffer(args[3], &folds, "folds", INT32, 2, -1, 0) < 0
        || get_buffer(args[4], &masks, "masks", BOOL, 2, -1, 0) < 0
        || get_buffer(args[5], &work, "work", FLOAT32, 3, -1, 1) < 0
        || get_buffer(args[6], &out, "out", INT64, 3, -1, 1) < 0)
        goto done;
    Py_ssize_t repeats = folds.shape[0], count = masks.shape[0], threads = work.shape[0];
    if (folds.shape[1] != n || masks.shape[1] != features || threads < 1
        || work.shape[1] != n || work.shape[2] != w || out.shape[0] != count
        || out.shape[1] != repeats || out.shape[2] != n) {
        PyErr_Format(PyExc_ValueError,
                     "for (%zd, %zd) columns, nearest needs (R, %zd) folds, (M, %zd) masks,"
                     " a (T, %zd, %zd) work of T >= 1 threads and an (M, R, %zd) out",
                     features, n, n, features, n, w, n);
        goto done;
    }
    const double *least = low.buf, *range = span.buf;
    double widest = 0.0;
    for (Py_ssize_t l = 0; l < features; l++) {
        if (!(isfinite(least[l]) && range[l] >= 0.0 && range[l] <= DBL_MAX)) {
            PyErr_SetString(PyExc_ValueError, "low must be finite, and span finite and at least 0");
            goto done;
        }
        widest = fmax(widest, range[l]);
    }
    Py_buffer *inputs[] = {&columns, &low, &span, &folds, &masks};
    int overlaps = overlap(&out, &work);
    for (int v = 0; v < 5; v++)
        overlaps |= overlap(&work, inputs[v]) || overlap(&out, inputs[v]);
    if (overlaps) {
        PyErr_SetString(PyExc_ValueError, "work and out must overlap no other buffer");
        goto done;
    }
    const int32_t *label = folds.buf;
    for (Py_ssize_t t = 0; t < repeats; t++) {
        Py_ssize_t i = 1;
        while (i < n && label[t * n + i] == label[t * n])
            i++;
        if (i == n) {
            PyErr_Format(PyExc_ValueError, "folds[%zd] puts every row in one fold", t);
            goto done;
        }
    }
    /* per thread, this one among them (alone where there is no mask): x, low and y */
    Py_ssize_t started = count < 1 ? 1 : threads < count ? threads : count;
    Py_ssize_t each = columns.len + features * (span.itemsize + w * (Py_ssize_t)sizeof(float));
    workers = PyMem_Calloc(started, sizeof *workers);
    gathered = each && started > PY_SSIZE_T_MAX / each ? NULL : PyMem_Malloc(started * each);
    if (workers == NULL || gathered == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* 2^e takes the widest span to at most 1; it is no double past 2^1023 */
    int e = widest > 0.0 ? -ilogb(widest) - 1 : 0, big = e > 1023 ? 1023 : e;
    struct batch c = {columns.buf, least, range, e, {ldexp(1.0, big), ldexp(1.0, e - big)},
                      ldexp(1.0, 2 * e - 1020) /* inf past 2^1023 */, folds.buf, masks.buf,
                      out.buf, features, n, w, repeats, count, 0};
    for (Py_ssize_t t = 0; t < started; t++) {
        char *mine = gathered + t * each;
        workers[t] = (struct worker){.batch = &c, .work = (float *)work.buf + t * n * w,
                                     .x = (double *)mine, .low = (double *)(mine + columns.len),
                                     .y = (float *)(mine + columns.len + span.len)};
    }
    Py_BEGIN_ALLOW_THREADS  /* every buffer is held, so other threads may run */
    spread(work_masks, workers, sizeof *workers, started);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(workers);
    PyMem_Free(gathered);
    release(views, 7);
    return result;
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_FASTCALL,
     "scan(bits, feature_class, feature_feature, row_out)"
     " -> (k, sum_cf, sum_ff, merit); the row goes to row_out"},
    {"generation", (PyCFunction)(void (*)(void))generation, METH_FASTCALL,
     "generation(population, keys, bits, feature_class, feature_feature, mutn_rate,"
     " invocations, improvements, masks_out, threads): row i of the population's"
     " heuristics from bits, drawing from PCG64 seeded from the uint32 entropy words"
     " keys[i], on min(threads, rows) threads at most; its mask goes to masks_out[i]"},
    {"breed", (PyCFunction)(void (*)(void))breed, METH_FASTCALL,
     "breed(chromosomes, bit_generator, p_crossover, p_mutation): single-point crossover"
     " of each consecutive pair of rows, then each gene to another id with probability"
     " p_mutation, in place"},
    {"nearest", (PyCFunction)(void (*)(void))nearest, METH_FASTCALL,
     "nearest(columns, low, span, folds, masks, work, out): out[m][r][i] = the column in"
     " another fold of folds[r] nearest row i over the columns masks[m] selects (low and span"
     " their least values and ranges), ties to the lowest index, on work.shape[0] threads"
     " at most, each helper on a CPU of its own"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_climb",
    "The merit scan, the low-level heuristics and the 1NN neighbours, compiled.", -1,
    methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__climb(void)
{
    if (pthread_atfork(NULL, NULL, empty_team) != 0)
        return PyErr_NoMemory();
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "SCREEN_LANES", SCREEN_LANES) < 0)
        Py_CLEAR(m);
    return m;
}
