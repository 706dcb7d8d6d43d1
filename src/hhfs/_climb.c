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

   The heuristics draw from the bit generator through numpy's random C API,
   with the calls its Generator makes: integers(n) is
   random_bounded_uint64_fill over [0, n - 1], random() and random(n) are
   random_standard_uniform[_fill], and permutation(n) shuffles arange(n) by
   random_interval from the top down. So a gene list draws what the Python
   rules drew on a Generator over the same bit generator, draw for draw.

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
   columns are checked before out is written. */

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
    if (mutn_rate == -1.0 && PyErr_Occurred())
        goto done;

    const int64_t *gene = genes.buf;
    Py_ssize_t count = genes.shape[0];
    for (Py_ssize_t i = 0; i < count; i++) {
        if (gene[i] < 1 || gene[i] > NUM_LLH) {
            PyErr_Format(PyExc_ValueError, "unknown low-level heuristic id %lld",
                         (long long)gene[i]);
            goto done;
        }
        if (c.n < (gene[i] == SWPD ? 2 : 1)) {
            PyErr_SetString(PyExc_ValueError, gene[i] == SWPD
                            ? "swap needs at least 2 dimensions"
                            : "a heuristic needs at least 1 dimension");
            goto done;
        }
    }
    bitgen_t *rng = NULL;
    if ((capsule = PyObject_GetAttrString(args[1], "capsule")) == NULL
        || (rng = PyCapsule_GetPointer(capsule, "BitGenerator")) == NULL) {
        PyErr_Format(PyExc_TypeError, "bit_generator must be a numpy BitGenerator, not %s",
                     Py_TYPE(args[1])->tp_name);
        goto done;
    }
    /* the row, then run_gene's n positions and n coins */
    if ((work = PyMem_Malloc(c.n * (2 * sizeof(double) + sizeof(int64_t)))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    char *out = bits_out.buf;
    int64_t *invoked = invocations.buf, *improved = improvements.buf;
    int moved = 0;
    memmove(out, bits.buf, c.n);
    struct sums s = scan_bits(out, &c, work);
    for (Py_ssize_t i = 0; i < count; i++) {
        int g = (int)gene[i];
        invoked[g]++;
        if (!run_gene(g, rng, mutn_rate, out, work, &c, &s, (int64_t *)(work + c.n),
                      work + 2 * c.n))
            continue;
        double before = s.merit;
        s = scan_bits(out, &c, work);
        improved[g] += s.merit > before;
        moved = 1;
    }
    result = PyBool_FromLong(moved);
done:
    PyMem_Free(work);
    Py_XDECREF(capsule);
    release(views, 7);
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

/* Whether the memory of two acquired buffers overlaps. */
static int
overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *p = a->buf, *q = b->buf;
    return p < q + b->len && q < p + a->len;
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
    sqdist_rows(columns.buf, k, n, out.buf);
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
