/* The hill-climbers' scoring loops over a merit scan (see hhfs.llh).

   sweep: the NAHC/DBHC/RMHC pass. Visit the given positions in order,
   score each single-bit flip from the working sums and keep it iff its
   merit is greater than the current one (or equal, with ties). A kept
   flip updates the working sums and adds or subtracts the cache column
   of its bit from a working copy of the row. Returns the kept positions.

   best: SDHC's move. The lowest position whose flip scores the highest
   merit, if that merit is strictly above the current one; else None.

   Each visit computes, on doubles and in this order, what the Python
   loop it replaces computed: the per-branch sums, then
   sum_cf / sqrt((double)k + sum_ff), or 0.0 when the flip leaves k == 0.
   It is built with -ffp-contract=off, so no multiply and add are fused
   and every merit has the bits that Python's float arithmetic gives.
   Every buffer is checked against n, the length of the bits, and every
   position against 0..n-1 before any is read. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

enum kind { BOOL, FLOAT64, INT64 };

/* Acquire ``obj`` as a C-contiguous buffer of ``ndim`` dimensions, each of
   length ``n`` (any length where n < 0), holding items of ``want`` kind. */
static int
get_buffer(PyObject *obj, Py_buffer *view, const char *name, enum kind want,
           int ndim, Py_ssize_t n)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
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

/* The scan state both functions take: bits, row, fc, diag as buffers and
   k, sum_cf, sum_ff, merit as numbers, at args[0..3] and args[first..]. */
struct scan {
    Py_buffer bits, row, fc, diag;
    Py_ssize_t n, k;
    double sum_cf, sum_ff, merit;
};

static void
release(Py_buffer *views[], int count)
{
    for (int i = 0; i < count; i++)
        if (views[i]->obj != NULL)
            PyBuffer_Release(views[i]);
}

static int
get_scan(PyObject *const *args, Py_ssize_t first, struct scan *s)
{
    if (get_buffer(args[0], &s->bits, "bits", BOOL, 1, -1) < 0)
        return -1;
    s->n = s->bits.shape[0];
    if (get_buffer(args[1], &s->row, "row", FLOAT64, 1, s->n) < 0
        || get_buffer(args[2], &s->fc, "feature_class", FLOAT64, 1, s->n) < 0
        || get_buffer(args[3], &s->diag, "diagonal", FLOAT64, 1, s->n) < 0)
        return -1;
    s->k = PyLong_AsSsize_t(args[first]);
    if (s->k == -1 && PyErr_Occurred())
        return -1;
    s->sum_cf = PyFloat_AsDouble(args[first + 1]);
    if (s->sum_cf == -1.0 && PyErr_Occurred())
        return -1;
    s->sum_ff = PyFloat_AsDouble(args[first + 2]);
    if (s->sum_ff == -1.0 && PyErr_Occurred())
        return -1;
    s->merit = PyFloat_AsDouble(args[first + 3]);
    if (s->merit == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
get_positions(PyObject *obj, Py_buffer *view, Py_ssize_t n)
{
    if (get_buffer(obj, view, "positions", INT64, 1, -1) < 0)
        return -1;
    const int64_t *pos = view->buf;
    for (Py_ssize_t i = 0; i < view->shape[0]; i++) {
        if (pos[i] < 0 || pos[i] >= n) {
            PyErr_Format(PyExc_IndexError, "position %lld out of range for %zd features",
                         (long long)pos[i], n);
            return -1;
        }
    }
    return 0;
}

/* The sums and merit of the scan with bit b flipped; returns the merit. */
static inline double
flip_merit(const char *bits, const double *row, const double *fc, const double *diag,
           Py_ssize_t b, Py_ssize_t k, double sum_cf, double sum_ff,
           Py_ssize_t *k_b, double *cf_b, double *ff_b)
{
    if (bits[b]) {
        *k_b = k - 1;
        *cf_b = sum_cf - fc[b];
        *ff_b = sum_ff - 2.0 * (row[b] - diag[b]);
    } else {
        *k_b = k + 1;
        *cf_b = sum_cf + fc[b];
        *ff_b = sum_ff + 2.0 * row[b];
    }
    return *k_b ? *cf_b / sqrt((double)*k_b + *ff_b) : 0.0;
}

static PyObject *
sweep(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError,
                     "sweep(bits, row, feature_class, diagonal, columns, positions,"
                     " k, sum_cf, sum_ff, merit, ties) takes 11 arguments, %zd given", nargs);
        return NULL;
    }
    struct scan s = {0};
    Py_buffer columns = {0}, positions = {0};
    Py_buffer *views[] = {&s.bits, &s.row, &s.fc, &s.diag, &columns, &positions};
    PyObject *kept = NULL;
    double *work = NULL;
    int ties;
    if (get_scan(args, 6, &s) < 0
        || get_buffer(args[4], &columns, "columns", FLOAT64, 2, s.n) < 0
        || get_positions(args[5], &positions, s.n) < 0
        || (ties = PyObject_IsTrue(args[10])) < 0
        || (kept = PyList_New(0)) == NULL)
        goto done;

    const char *bits = s.bits.buf;
    const double *fc = s.fc.buf, *diag = s.diag.buf, *cols = columns.buf;
    const double *row = s.row.buf;
    const int64_t *pos = positions.buf;
    Py_ssize_t k = s.k, k_b;
    double sum_cf = s.sum_cf, sum_ff = s.sum_ff, current = s.merit, cf_b, ff_b;
    for (Py_ssize_t i = 0; i < positions.shape[0]; i++) {
        Py_ssize_t b = (Py_ssize_t)pos[i];
        double candidate = flip_merit(bits, row, fc, diag, b, k, sum_cf, sum_ff,
                                      &k_b, &cf_b, &ff_b);
        if (!(candidate > current || (ties && candidate == current)))
            continue;
        if (work == NULL && (work = PyMem_Malloc(s.n * sizeof(double))) == NULL) {
            PyErr_NoMemory();
            Py_CLEAR(kept);
            goto done;
        }
        const double *col = cols + b * s.n;
        if (bits[b])
            for (Py_ssize_t j = 0; j < s.n; j++)
                work[j] = row[j] - col[j];
        else
            for (Py_ssize_t j = 0; j < s.n; j++)
                work[j] = row[j] + col[j];
        row = work;
        k = k_b;
        sum_cf = cf_b;
        sum_ff = ff_b;
        current = candidate;
        PyObject *item = PyLong_FromSsize_t(b);
        if (item == NULL || PyList_Append(kept, item) < 0) {
            Py_XDECREF(item);
            Py_CLEAR(kept);
            goto done;
        }
        Py_DECREF(item);
    }
done:
    PyMem_Free(work);
    release(views, 6);
    return kept;
}

static PyObject *
best(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 9) {
        PyErr_Format(PyExc_TypeError,
                     "best(bits, row, feature_class, diagonal, positions,"
                     " k, sum_cf, sum_ff, merit) takes 9 arguments, %zd given", nargs);
        return NULL;
    }
    struct scan s = {0};
    Py_buffer positions = {0};
    Py_buffer *views[] = {&s.bits, &s.row, &s.fc, &s.diag, &positions};
    PyObject *result = NULL;
    if (get_scan(args, 5, &s) < 0 || get_positions(args[4], &positions, s.n) < 0)
        goto done;

    const int64_t *pos = positions.buf;
    Py_ssize_t top = -1, k_b;
    double top_merit = 0.0, cf_b, ff_b;
    for (Py_ssize_t i = 0; i < positions.shape[0]; i++) {
        double merit = flip_merit(s.bits.buf, s.row.buf, s.fc.buf, s.diag.buf,
                                  (Py_ssize_t)pos[i], s.k, s.sum_cf, s.sum_ff,
                                  &k_b, &cf_b, &ff_b);
        if (top < 0 || merit > top_merit) {  /* the first maximum: ascending positions */
            top = (Py_ssize_t)pos[i];
            top_merit = merit;
        }
    }
    if (top >= 0 && top_merit > s.merit)
        result = PyLong_FromSsize_t(top);
    else
        result = Py_NewRef(Py_None);
done:
    release(views, 5);
    return result;
}

static PyMethodDef methods[] = {
    {"sweep", (PyCFunction)(void (*)(void))sweep, METH_FASTCALL,
     "sweep(bits, row, feature_class, diagonal, columns, positions, k, sum_cf,"
     " sum_ff, merit, ties) -> list of the kept positions"},
    {"best", (PyCFunction)(void (*)(void))best, METH_FASTCALL,
     "best(bits, row, feature_class, diagonal, positions, k, sum_cf, sum_ff,"
     " merit) -> the position of the best improving flip, or None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_climb",
    "The hill-climbers' scoring loops over a merit scan.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__climb(void)
{
    return PyModule_Create(&module);
}
