/* The merit scan and the 16 low-level heuristics (see hhfs.correlation and
   hhfs.llh) and the 1NN fitness's squared distances (hhfs.evaluation),
   compiled.

   scan(bits, feature_class, feature_feature, row_out) -> (k, sum_cf, sum_ff, merit)
   A mask's merit scan, summed in one fixed order: ascending selected index.
   row[j] is the sum of feature_feature[i][j] over the selected i (row i is
   column i: the matrix is symmetric), added element by element (so the loop
   vectorises across j, and every row[j] is the same sequential sum); sum_cf
   is the sum of feature_class[i] and sum_ff the sum of row[i] -
   feature_feature[i][i] over the selected i; the merit is
   sum_cf / sqrt((double)k + sum_ff), or 0.0 at k == 0.

   apply(genes, bit_generator, bits, feature_class, feature_feature,
         mutn_rate, invocations, improvements, bits_out) -> bool
   Run the heuristics ``genes`` (catalog ids 1..16) left to right from the
   mask ``bits``, each on the previous one's output: scan the bits as scan
   does, run a gene, and scan its bits afresh when it moved. Every gene
   counts one invocation, and one improvement where its fresh merit is
   strictly higher. The final bits go to bits_out; returns whether any
   gene moved.

   generation(population, seed, gen, bits, feature_class, feature_feature,
              mutn_rate, invocations, improvements, masks_out, moved_out)
   apply's gene loop on each row i of the (P, L) population from the same
   bits, into masks_out[i], with moved_out[i] whether it moved, all rows
   counted into the same counters. Row i draws from numpy's
   PCG64(SeedSequence([seed, 1, gen, i])), seeded here as numpy seeds it
   (seed_pcg64) and run as numpy runs it: the same stream, draw for draw.
   Every gene is checked before any row runs.

   The heuristics draw from the bit generator through numpy's random C API,
   with the calls its Generator makes: integers(n) is
   random_bounded_uint64_fill over [0, n - 1], random() and random(n) are
   random_standard_uniform[_fill], and permutation(n) shuffles arange(n) by
   random_interval from the top down. So a gene list draws what the Python
   rules drew on a Generator over the same bit generator, draw for draw.

   crossover(chromosomes, bit_generator, p) and
   mutate(chromosomes, bit_generator, p)
   The GA's two edits of a (P, L) int64 pool, in place, drawing through the
   same API as a Generator would. crossover: per consecutive pair of rows,
   a random() coin and, where it is below p and L >= 2, a cut from
   integers(1, L); the pair swaps its genes from the cut on. mutate: per
   row, random(L) coins, then integers(1, 16, size=hits) for the genes whose
   coin is below p, each id shifted up by one where it is at or above the
   gene's old id, so a mutated gene always changes.

   A flip is scored from the scan's sums, on doubles and in this order: the
   per-branch sums, then sum_cf / sqrt((double)k + sum_ff), or 0.0 when the
   flip leaves k == 0. It is built with -ffp-contract=off, so no multiply
   and add are fused. Every buffer is checked against n, the length of the
   bits, and every gene id against 1..16 before any is read.

   sqdist(columns, out)
   The 1NN fitness's exact squared distances (see hhfs.evaluation): for the
   (k, n) selected columns x, the n x n
   out[i][j] = the sum over l of (x[l][i] - x[l][j])^2, added in
   ascending l. That is pdist's "sqeuclidean", bit for bit, and as
   (a - b)^2 equals (b - a)^2 exactly, the entries below the diagonal are
   copied from above it rather than summed again. The sums run over BLOCK
   rows and LANES columns at a time, in registers, on AVX-512 where the CPU
   has it (sqdist_rows). Every buffer and out against overlapping the
   columns are checked before out is written, and the sums run without the
   GIL, so threads that each own an out compute at once. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/distributions.h"

#define NUM_LLH 16
enum domain { ALL, ZEROS, ONES };      /* each hill-climbing rule's three ids, in order */
enum rule { SDHC, NAHC, DBHC, RMHC };  /* ids 1-3, 4-6, 7-9, 10-12 */
enum move { SWPD = 13, DIMM, HYPM, MUTN };

enum kind { BOOL, FLOAT64, INT64 };

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
    case FLOAT64:
        ok = view->itemsize == 8 && strcmp(format, "d") == 0;
        break;
    default:
        ok = view->itemsize == 8 && (strcmp(format, "l") == 0 || strcmp(format, "q") == 0);
    }
    if (!ok) {
        PyErr_Format(PyExc_ValueError, "%s must hold %s, not format '%s' of %zd bytes",
                     name, want == BOOL ? "bools" : want == FLOAT64 ? "float64" : "int64",
                     format, view->itemsize);
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
   into ``out`` (which may be bits), each counted, and each that moved
   scanned afresh and counted as an improvement where its merit rose.
   ``work`` holds the row, then run_gene's n positions and n coins.
   Returns whether any gene moved. */
static int
run_chromosome(const int64_t *gene, Py_ssize_t count, bitgen_t *rng, double mutn_rate,
               const char *bits, char *out, const struct cache *c, double *work,
               int64_t *invoked, int64_t *improved)
{
    int moved = 0;
    memmove(out, bits, c->n);
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
        moved = 1;
    }
    return moved;
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

/* The row, then run_gene's n positions and n coins; NULL with an error set. */
static double *
alloc_work(Py_ssize_t n)
{
    double *work = PyMem_Malloc(n * (2 * sizeof(double) + sizeof(int64_t)));
    if (work == NULL)
        PyErr_NoMemory();
    return work;
}

static PyObject *
apply(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 9) {
        PyErr_Format(PyExc_TypeError,
                     "apply(genes, bit_generator, bits, feature_class, feature_feature,"
                     " mutn_rate, invocations, improvements, bits_out) takes 9 arguments,"
                     " %zd given", nargs);
        return NULL;
    }
    Py_buffer genes = {0}, bits = {0}, cache[2] = {{0}};
    Py_buffer invocations = {0}, improvements = {0}, bits_out = {0};
    Py_buffer *views[] = {&genes, &bits, &cache[0], &cache[1],
                          &invocations, &improvements, &bits_out};
    PyObject *capsule = NULL, *result = NULL;
    double *work = NULL;
    bitgen_t *rng;
    struct cache c;
    if (get_buffer(args[0], &genes, "genes", INT64, 1, -1, 0) < 0
        || get_buffer(args[2], &bits, "bits", BOOL, 1, -1, 0) < 0)
        goto done;
    c.n = bits.shape[0];
    if (get_cache(args + 3, cache, &c) < 0
        || get_buffer(args[6], &invocations, "invocations", INT64, 1, NUM_LLH + 1, 1) < 0
        || get_buffer(args[7], &improvements, "improvements", INT64, 1, NUM_LLH + 1, 1) < 0
        || get_buffer(args[8], &bits_out, "bits_out", BOOL, 1, c.n, 1) < 0)
        goto done;
    double mutn_rate = PyFloat_AsDouble(args[5]);
    if ((mutn_rate == -1.0 && PyErr_Occurred())
        || check_genes(genes.buf, genes.shape[0], c.n) < 0
        || (rng = get_bitgen(args[1], &capsule)) == NULL
        || (work = alloc_work(c.n)) == NULL)
        goto done;
    result = PyBool_FromLong(run_chromosome(genes.buf, genes.shape[0], rng, mutn_rate,
                                            bits.buf, bits_out.buf, &c, work,
                                            invocations.buf, improvements.buf));
done:
    PyMem_Free(work);
    Py_XDECREF(capsule);
    release(views, 7);
    return result;
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

/* The entropy words numpy's SeedSequence reads from the int ``value``:
   its little-endian 32-bit words, [0] for 0, into a PyMem buffer at *out.
   Returns their count, or -1 with an error set. */
static Py_ssize_t
int_words(PyObject *value, const char *name, uint32_t **out)
{
    Py_ssize_t count = 0, room = 0;
    uint32_t *word = NULL;
    PyObject *v = PyNumber_Index(value), *zero = PyLong_FromLong(0), *shift = PyLong_FromLong(32);
    int more;
    if (v == NULL || zero == NULL || shift == NULL
        || (more = PyObject_RichCompareBool(v, zero, Py_LT)) < 0)
        goto fail;
    if (more) {
        PyErr_Format(PyExc_ValueError, "%s must be non-negative", name);
        goto fail;
    }
    do {
        if (count == room) {
            uint32_t *grown = PyMem_Realloc(word, (room += 4) * sizeof *word);
            if (grown == NULL) {
                PyErr_NoMemory();
                goto fail;
            }
            word = grown;
        }
        word[count++] = (uint32_t)PyLong_AsUnsignedLongLongMask(v);
        PyObject *rest = PyNumber_Rshift(v, shift);
        Py_DECREF(v);
        if ((v = rest) == NULL || (more = PyObject_IsTrue(v)) < 0)
            goto fail;
    } while (more);
    Py_DECREF(v);
    Py_DECREF(zero);
    Py_DECREF(shift);
    *out = word;
    return count;
fail:
    PyMem_Free(word);
    Py_XDECREF(v);
    Py_XDECREF(zero);
    Py_XDECREF(shift);
    return -1;
}

static PyObject *
generation(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError,
                     "generation(population, seed, gen, bits, feature_class, feature_feature,"
                     " mutn_rate, invocations, improvements, masks_out, moved_out)"
                     " takes 11 arguments, %zd given", nargs);
        return NULL;
    }
    Py_buffer population = {0}, bits = {0}, cache[2] = {{0}};
    Py_buffer invocations = {0}, improvements = {0}, masks_out = {0}, moved_out = {0};
    Py_buffer *views[] = {&population, &bits, &cache[0], &cache[1],
                          &invocations, &improvements, &masks_out, &moved_out};
    PyObject *result = NULL;
    uint32_t *seed = NULL, *gen = NULL, *key = NULL;
    Py_ssize_t nseed, ngen;
    double *work = NULL;
    struct cache c;
    if (get_buffer(args[0], &population, "population", INT64, 2, -1, 0) < 0
        || get_buffer(args[3], &bits, "bits", BOOL, 1, -1, 0) < 0)
        goto done;
    c.n = bits.shape[0];
    Py_ssize_t rows = population.shape[0], length = population.shape[1];
    if (get_cache(args + 4, cache, &c) < 0
        || get_buffer(args[7], &invocations, "invocations", INT64, 1, NUM_LLH + 1, 1) < 0
        || get_buffer(args[8], &improvements, "improvements", INT64, 1, NUM_LLH + 1, 1) < 0
        || get_buffer(args[9], &masks_out, "masks_out", BOOL, 2, -1, 1) < 0
        || get_buffer(args[10], &moved_out, "moved_out", BOOL, 1, rows, 1) < 0)
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
    double mutn_rate = PyFloat_AsDouble(args[6]);
    if ((mutn_rate == -1.0 && PyErr_Occurred())
        || check_genes(population.buf, rows * length, c.n) < 0
        || (nseed = int_words(args[1], "seed", &seed)) < 0
        || (ngen = int_words(args[2], "gen", &gen)) < 0
        || (work = alloc_work(c.n)) == NULL)
        goto done;
    /* row i's entropy: the seed's words, 1, gen's words, then i's */
    Py_ssize_t prefix = nseed + 1 + ngen;
    if ((key = PyMem_Malloc((prefix + 2) * sizeof *key)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(key, seed, nseed * sizeof *key);
    key[nseed] = 1;
    memcpy(key + nseed + 1, gen, ngen * sizeof *key);
    struct pcg64 pcg;
    bitgen_t rng = {&pcg, pcg64_next64, pcg64_uint32, pcg64_double, pcg64_next64};
    const int64_t *gene = population.buf;
    char *masks = masks_out.buf, *moved = moved_out.buf;
    for (Py_ssize_t i = 0; i < rows; i++) {
        uint64_t index = (uint64_t)i;
        key[prefix] = (uint32_t)index;
        key[prefix + 1] = (uint32_t)(index >> 32);
        seed_pcg64(key, prefix + 1 + (index >> 32 != 0), &pcg);
        moved[i] = (char)run_chromosome(gene + i * length, length, &rng, mutn_rate, bits.buf,
                                        masks + i * c.n, &c, work, invocations.buf,
                                        improvements.buf);
    }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(key);
    PyMem_Free(gen);
    PyMem_Free(seed);
    PyMem_Free(work);
    release(views, 8);
    return result;
}

/* The GA's chromosomes args[0]: a writable (rows, length) int64 pool, and
   the generator and probability at args[1..2]. */
static bitgen_t *
get_pool(PyObject *const *args, Py_ssize_t nargs, const char *call, Py_buffer *pool,
         PyObject **capsule, double *p)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "%s(chromosomes, bit_generator, p) takes 3 arguments,"
                     " %zd given", call, nargs);
        return NULL;
    }
    if (get_buffer(args[0], pool, "chromosomes", INT64, 2, -1, 1) < 0)
        return NULL;
    *p = PyFloat_AsDouble(args[2]);
    if (*p == -1.0 && PyErr_Occurred())
        return NULL;
    return get_bitgen(args[1], capsule);
}

/* Per consecutive pair of rows, Generator.random() as a coin and, where
   it is below p and the rows have a cut point, a cut from
   Generator.integers(1, length): the pair swaps its genes from the cut on. */
static PyObject *
crossover(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer pool = {0};
    PyObject *capsule = NULL;
    double p;
    bitgen_t *rng = get_pool(args, nargs, "crossover", &pool, &capsule, &p);
    if (rng != NULL) {
        Py_ssize_t rows = pool.shape[0], length = pool.shape[1];
        for (Py_ssize_t i = 0; i + 1 < rows; i += 2) {
            if (random_standard_uniform(rng) >= p || length < 2)
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
    }
    Py_XDECREF(capsule);
    if (pool.obj != NULL)
        PyBuffer_Release(&pool);
    return rng != NULL ? Py_NewRef(Py_None) : NULL;
}

/* Per row, Generator.random(length) as a coin per gene, then
   Generator.integers(1, NUM_LLH, size=hits) as the new ids of the genes
   whose coin is below p, each shifted up past the gene's old id. */
static PyObject *
mutate(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer pool = {0};
    PyObject *capsule = NULL, *result = NULL;
    double p, *coins = NULL;
    bitgen_t *rng = get_pool(args, nargs, "mutate", &pool, &capsule, &p);
    if (rng == NULL)
        goto done;
    Py_ssize_t rows = pool.shape[0], length = pool.shape[1];
    /* the coins, then the hits' positions and their draws */
    if ((coins = PyMem_Malloc(length * (sizeof(double) + 2 * sizeof(uint64_t)))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    uint64_t *hit = (uint64_t *)(coins + length), *draw = hit + length;
    for (Py_ssize_t i = 0; i < rows; i++) {
        int64_t *gene = (int64_t *)pool.buf + i * length;
        Py_ssize_t hits = 0;
        random_standard_uniform_fill(rng, length, coins);
        for (Py_ssize_t j = 0; j < length; j++)
            if (coins[j] < p)
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
#define LANES 8  /* columns summed at a time, as one vector */
typedef double lanes __attribute__((vector_size(LANES * sizeof(double))));

/* sqdist's sums for the nr <= BLOCK rows i..i+nr-1 of the (k, n) columns
   x into their rows of out, each from column i to n - 1; inlined, so it
   runs on the vector unit of the sqdist_rows clone that calls it. */
static inline __attribute__((always_inline)) void
sqdist_block(const double *x, Py_ssize_t k, Py_ssize_t n, Py_ssize_t i, int nr, double *out)
{
    Py_ssize_t j = i;
    for (; j + LANES <= n; j += LANES) {
        lanes acc[BLOCK] = {{0}};
        for (Py_ssize_t l = 0; l < k; l++) {
            lanes xj;
            memcpy(&xj, x + l * n + j, sizeof xj);
            for (int s = 0; s < nr; s++) {
                lanes t = x[l * n + i + s] - xj;
                acc[s] += t * t;
            }
        }
        for (int s = 0; s < nr; s++)
            memcpy(out + s * n + j, &acc[s], sizeof acc[s]);
    }
    for (; j < n; j++) {
        for (int s = 0; s < nr; s++) {
            double acc = 0.0;
            for (Py_ssize_t l = 0; l < k; l++) {
                double t = x[l * n + i + s] - x[l * n + j];
                acc += t * t;
            }
            out[s * n + j] = acc;
        }
    }
}

/* With glibc on x86-64 Linux (its loader runs target_clones' ifunc resolver)
   sqdist_rows is built for AVX-512 and the baseline, so a cached build runs
   on any x86-64 CPU, and both add the same terms in the same order, unfused,
   so give the same bits. No AVX2 build: gcc 12 spills its 8-double lanes out
   of pairs of 256-bit registers, and it ran slower than the baseline build. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define WIDEST_VECTORS __attribute__((target_clones("avx512f", "default")))
#endif
#endif
#ifndef WIDEST_VECTORS
#define WIDEST_VECTORS
#endif

/* sqdist's n x n out from the (k, n) columns x: the sums on and above the
   diagonal, BLOCK rows at a time, then the entries below it copied. */
WIDEST_VECTORS static void
sqdist_rows(const double *x, Py_ssize_t k, Py_ssize_t n, double *out)
{
    for (Py_ssize_t r = 0; r < n; r += BLOCK) {
        if (n - r >= BLOCK)  /* a constant count: the block's sums stay in registers */
            sqdist_block(x, k, n, r, BLOCK, out + r * n);
        else
            sqdist_block(x, k, n, r, (int)(n - r), out + r * n);
    }
    for (Py_ssize_t r = 1; r < n; r++)
        for (Py_ssize_t j = 0; j < r; j++)
            out[r * n + j] = out[j * n + r];
}

static PyObject *
sqdist(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "sqdist(columns, out) takes 2 arguments, %zd given", nargs);
        return NULL;
    }
    Py_buffer columns = {0}, out = {0};
    Py_buffer *views[] = {&columns, &out};
    PyObject *result = NULL;
    if (get_buffer(args[0], &columns, "columns", FLOAT64, 2, -1, 0) < 0
        || get_buffer(args[1], &out, "out", FLOAT64, 2, -1, 1) < 0)
        goto done;
    Py_ssize_t k = columns.shape[0], n = columns.shape[1];
    if (out.shape[0] != n || out.shape[1] != n) {
        PyErr_Format(PyExc_ValueError, "out has shape (%zd, %zd), expected (%zd, %zd)",
                     out.shape[0], out.shape[1], n, n);
        goto done;
    }
    if (overlap(&out, &columns)) {
        PyErr_SetString(PyExc_ValueError, "out must not overlap columns");
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS  /* both buffers are held, so other threads may run */
    sqdist_rows(columns.buf, k, n, out.buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    release(views, 2);
    return result;
}

static PyMethodDef methods[] = {
    {"scan", (PyCFunction)(void (*)(void))scan, METH_FASTCALL,
     "scan(bits, feature_class, feature_feature, row_out)"
     " -> (k, sum_cf, sum_ff, merit); the row goes to row_out"},
    {"apply", (PyCFunction)(void (*)(void))apply, METH_FASTCALL,
     "apply(genes, bit_generator, bits, feature_class, feature_feature, mutn_rate,"
     " invocations, improvements, bits_out) -> whether any gene moved; the bits go to"
     " bits_out"},
    {"generation", (PyCFunction)(void (*)(void))generation, METH_FASTCALL,
     "generation(population, seed, gen, bits, feature_class, feature_feature, mutn_rate,"
     " invocations, improvements, masks_out, moved_out): row i of the population as apply"
     " runs it on PCG64([seed, 1, gen, i]); its mask goes to masks_out[i] and whether"
     " it moved to moved_out[i]"},
    {"crossover", (PyCFunction)(void (*)(void))crossover, METH_FASTCALL,
     "crossover(chromosomes, bit_generator, p): single-point crossover of each"
     " consecutive pair of rows, in place"},
    {"mutate", (PyCFunction)(void (*)(void))mutate, METH_FASTCALL,
     "mutate(chromosomes, bit_generator, p): each gene to another id with"
     " probability p, in place"},
    {"sqdist", (PyCFunction)(void (*)(void))sqdist, METH_FASTCALL,
     "sqdist(columns, out): out[i][j] = sum over l of"
     " (columns[l][i] - columns[l][j])**2, in ascending l"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_climb",
    "The merit scan, the low-level heuristics and the 1NN distances, compiled.", -1,
    methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__climb(void)
{
    return PyModule_Create(&module);
}
