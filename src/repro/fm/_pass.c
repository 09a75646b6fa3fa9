/* One exact FM/CLIP pass with LIFO gain buckets, compiled.
 *
 * This is the pass that repro.fm.engine.fm_bipartition runs in Python
 * as _initial_gains, one LinkedListBuckets.insert per free module,
 * _move_loop_csr and _rollback_csr, written out over flat int/double
 * buffers.  It makes the same moves in the same order, keeps every
 * bucket in the same order after every move, picks the same best prefix
 * and leaves the same state after rollback, with part_area bit-equal
 * (the float updates run in the same order).  Three transformations
 * keep those decisions while dropping work: the move's bookkeeping
 * shares one net sweep with phase B, a two-pin net skips phase A and
 * relinks its other pin once by 2w (exact by the last-relink argument
 * in DESIGN.md section 8), and rollback works from the shorter side of
 * the best prefix.  The Python loop is the reference; the comments
 * name the Python step each block ports.
 *
 * The module is built on first use by repro.fm.native, which compiles
 * this file with the system C compiler into a per-user cache.  It needs
 * only the CPython headers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

#define NIL (-1)

/* One argument buffer with its format and length checked. */
static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, char code,
           Py_ssize_t count, const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *fmt = view->format ? view->format : "B";
    if (fmt[0] == '@' || fmt[0] == '=')
        fmt++;
    Py_ssize_t size = code == 'd' ? (Py_ssize_t)sizeof(double)
                                  : (Py_ssize_t)sizeof(int);
    if (fmt[0] != code || fmt[1] != '\0' || view->itemsize != size
            || (count >= 0 && view->len != count * size)) {
        PyErr_Format(PyExc_ValueError,
                     "%s: expected %zd items of format '%c'", name, count,
                     code);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Everything one pass reads and writes. */
typedef struct {
    int n, m;
    /* state (written) */
    int *part_of, *c[2], *spans;
    double *part_area;
    /* netlist (read) */
    const int *xpins, *pins, *xinc, *inc, *weights;
    const double *areas;
    /* scratch */
    int *head, *nxt, *prv, *idx_of, *moves;
    char *locked;
    int max_g, width, top;
} pass_t;

/* memcpy of count ints; an empty buffer may have a NULL pointer. */
static inline void
copy_ints(int *dst, const int *src, size_t count)
{
    if (count)
        memcpy(dst, src, count * sizeof(int));
}

static int
out_of_range(pass_t *p, int nidx)
{
    PyErr_Format(PyExc_OverflowError, "gain %d outside bucket range",
                 nidx - p->max_g);
    return -1;
}

/* Move u from bucket oidx to the head of bucket nidx (LIFO relink; the
 * prev entry of a head element is never read). */
static inline void
relink(pass_t *p, int u, int oidx, int nidx)
{
    int *head = p->head, *nxt = p->nxt, *prv = p->prv;
    int u_n = nxt[u];
    if (head[oidx] == u) {
        head[oidx] = u_n;
    }
    else {
        int u_p = prv[u];
        nxt[u_p] = u_n;
        if (u_n != NIL)
            prv[u_n] = u_p;
    }
    int old = head[nidx];
    nxt[u] = old;
    head[nidx] = u;
    if (old != NIL)
        prv[old] = u;
    p->idx_of[u] = nidx;
}

/* A +w bump can only raise the max-gain cursor. */
static inline int
bump_up(pass_t *p, int u, int w)
{
    int oidx = p->idx_of[u];
    int nidx = oidx + w;
    if (nidx >= p->width)
        return out_of_range(p, nidx);
    relink(p, u, oidx, nidx);
    if (nidx > p->top)
        p->top = nidx;
    return 0;
}

/* A -w bump can only settle the max-gain cursor. */
static inline int
bump_down(pass_t *p, int u, int w)
{
    int oidx = p->idx_of[u];
    int nidx = oidx - w;
    if (nidx < 0)
        return out_of_range(p, nidx);
    relink(p, u, oidx, nidx);
    if (oidx == p->top && p->head[oidx] == NIL) {
        int top = p->top;
        while (top >= 0 && p->head[top] == NIL)
            top--;
        p->top = top;
    }
    return 0;
}

/* _initial_gains + one insert per free module (for CLIP, into the
 * zero bucket after a stable ascending sort).  Returns the number of
 * modules inserted, or -1 on allocation failure. */
static Py_ssize_t
fill_buckets(pass_t *p, int clip)
{
    int n = p->n;
    int max_g = p->max_g;
    const int *xinc = p->xinc, *inc = p->inc, *w = p->weights;
    const int *c0 = p->c[0], *c1 = p->c[1];
    int *gains = p->moves;  /* the move list is empty until the loop */
    Py_ssize_t size = 0;

    for (int i = 0; i < p->width; i++)
        p->head[i] = NIL;
    p->top = -1;
    for (int v = 0; v < n; v++) {
        p->idx_of[v] = max_g;
        if (p->locked[v])
            continue;
        const int *cs = p->part_of[v] ? c1 : c0;
        const int *cd = p->part_of[v] ? c0 : c1;
        int g = 0;
        for (int j = xinc[v]; j < xinc[v + 1]; j++) {
            int e = inc[j];
            if (cs[e] == 1)
                g += w[e];
            if (cd[e] == 0)
                g -= w[e];
        }
        if (g < -max_g || g > max_g)
            return out_of_range(p, g + max_g);
        gains[v] = g;
    }

    if (!clip) {
        /* fill: head insertion in ascending module order. */
        for (int v = 0; v < n; v++) {
            if (p->locked[v])
                continue;
            int idx = gains[v] + max_g;
            int old = p->head[idx];
            p->nxt[v] = old;
            p->prv[v] = NIL;
            p->head[idx] = v;
            if (old != NIL)
                p->prv[old] = v;
            p->idx_of[v] = idx;
            if (idx > p->top)
                p->top = idx;
            size++;
        }
        return size;
    }

    /* CLIP: order the free modules by ascending initial gain, ties in
     * module order (Python's stable sort), with a counting sort over
     * the gain range; head-inserting that order into the zero bucket
     * leaves the chain in reverse, best gain first. */
    int *start = (int *)calloc((size_t)p->width + 1, sizeof(int));
    int *order = (int *)malloc(((size_t)n + 1) * sizeof(int));
    if (start == NULL || order == NULL) {
        free(start);
        free(order);
        PyErr_NoMemory();
        return -1;
    }
    for (int v = 0; v < n; v++)
        if (!p->locked[v])
            start[gains[v] + max_g + 1]++;
    for (int i = 0; i < p->width; i++)
        start[i + 1] += start[i];
    for (int v = 0; v < n; v++)
        if (!p->locked[v])
            order[start[gains[v] + max_g]++] = v;
    size = start[p->width];
    int previous = NIL;
    for (Py_ssize_t i = size - 1; i >= 0; i--) {
        int v = order[i];
        p->prv[v] = previous;
        if (previous != NIL)
            p->nxt[previous] = v;
        previous = v;
    }
    if (size) {
        p->nxt[previous] = NIL;
        p->head[max_g] = order[size - 1];
        p->top = max_g;
    }
    free(start);
    free(order);
    return size;
}

/* _move_loop_csr with LIFO buckets, no boundary mode, no lookahead.
 * Writes the move list as (module, side, gain) triples and returns its
 * length, or -1 with an exception set. */
static Py_ssize_t
move_loop(pass_t *p, Py_ssize_t size, double lower, double upper,
          int early_stall, long long *cut, long long *soed,
          long long *best_cut, long long *best_soed, Py_ssize_t *best_index)
{
    int *head = p->head, *nxt = p->nxt;
    int *part_of = p->part_of, *spans = p->spans;
    char *locked = p->locked;
    double *part_area = p->part_area;
    const int *xpins = p->xpins, *pins = p->pins, *xinc = p->xinc;
    const int *inc = p->inc, *weights = p->weights;
    const double *areas = p->areas;
    long long cut_w = *cut, soed_w = *soed;
    Py_ssize_t n_moves = 0;
    int stall = 0;

    *best_cut = cut_w;
    *best_soed = soed_w;
    *best_index = 0;
    while (size) {
        /* selection: best-bucket-first scan for a feasible move,
         * settling the max-gain cursor over the empty prefix. */
        int chosen = -1;
        int idx = p->top;
        int settling = 1;
        while (idx >= 0) {
            int item = head[idx];
            if (item == NIL) {
                if (settling)
                    p->top = idx - 1;
                idx--;
                continue;
            }
            if (settling) {
                p->top = idx;
                settling = 0;
            }
            while (item != NIL) {
                int s = part_of[item];
                double a = areas[item];
                if (part_area[s] - a >= lower
                        && part_area[1 - s] + a <= upper) {
                    chosen = item;
                    break;
                }
                item = nxt[item];
            }
            if (chosen >= 0)
                break;
            idx--;
        }
        if (chosen < 0)
            break;  /* no feasible move remains */

        /* unlink the chosen module and lock it. */
        int cidx = p->idx_of[chosen];
        int i_n = nxt[chosen];
        if (head[cidx] == chosen) {
            head[cidx] = i_n;
        }
        else {
            int i_p = p->prv[chosen];
            nxt[i_p] = i_n;
            if (i_n != NIL)
                p->prv[i_n] = i_p;
        }
        size--;
        if (cidx == p->top && head[cidx] == NIL) {
            int top = p->top;
            while (top >= 0 && head[top] == NIL)
                top--;
            p->top = top;
        }
        locked[chosen] = 1;

        int src = part_of[chosen];
        int dst = 1 - src;
        int *counts_src = p->c[src];
        int *counts_dst = p->c[dst];
        int first = xinc[chosen], last = xinc[chosen + 1];
        long long cut_before = cut_w;

        /* gain updates, phase A: inspect pre-move counts.  Two-pin
         * nets are left to the sweep below. */
        for (int j = first; j < last; j++) {
            int e = inc[j];
            int a = xpins[e], b = xpins[e + 1];
            if (b - a == 2)
                continue;
            int cd = counts_dst[e];
            if (cd == 0) {
                int w = weights[e];
                for (int k = a; k < b; k++) {
                    int u = pins[k];
                    if (!locked[u] && bump_up(p, u, w) < 0)
                        return -1;
                }
            }
            else if (cd == 1) {
                int w = weights[e];
                for (int k = a; k < b; k++) {
                    int u = pins[k];
                    if (!locked[u] && part_of[u] == dst) {
                        if (bump_down(p, u, w) < 0)
                            return -1;
                        break;
                    }
                }
            }
        }

        /* the move itself, fused with phase B. */
        double area = areas[chosen];
        part_of[chosen] = dst;
        part_area[src] -= area;
        part_area[dst] += area;
        for (int j = first; j < last; j++) {
            int e = inc[j];
            int w = weights[e];
            int a = xpins[e], b = xpins[e + 1];
            if (b - a == 2) {
                /* two-pin net: one relink by 2w at the phase-B
                 * position. */
                int u = pins[a];
                if (u == chosen)
                    u = pins[a + 1];
                if (part_of[u] == src) {
                    counts_src[e] = 1;
                    counts_dst[e] = 1;
                    spans[e] = 2;
                    cut_w += w;
                    soed_w += 2 * (long long)w;
                    if (!locked[u] && bump_up(p, u, w + w) < 0)
                        return -1;
                }
                else {
                    counts_src[e] = 0;
                    counts_dst[e] = 2;
                    spans[e] = 1;
                    cut_w -= w;
                    soed_w -= 2 * (long long)w;
                    if (!locked[u] && bump_down(p, u, w + w) < 0)
                        return -1;
                }
                continue;
            }
            int s = spans[e];
            int cs = counts_src[e] - 1;
            counts_src[e] = cs;
            if (cs == 0) {
                s -= 1;
                soed_w -= s > 1 ? w : (s == 1 ? 2 * (long long)w : 0);
                if (s == 1)
                    cut_w -= w;
            }
            int c = counts_dst[e] + 1;
            counts_dst[e] = c;
            if (c == 1) {
                s += 1;
                soed_w += s > 2 ? w : (s == 2 ? 2 * (long long)w : 0);
                if (s == 2)
                    cut_w += w;
            }
            spans[e] = s;
            /* phase B for this net, off the freshly written counts. */
            if (cs == 0) {
                for (int k = a; k < b; k++) {
                    int u = pins[k];
                    if (!locked[u] && bump_down(p, u, w) < 0)
                        return -1;
                }
            }
            else if (cs == 1) {
                for (int k = a; k < b; k++) {
                    int u = pins[k];
                    if (!locked[u] && part_of[u] == src) {
                        if (bump_up(p, u, w) < 0)
                            return -1;
                        break;
                    }
                }
            }
        }
        int *slot = p->moves + 3 * n_moves;
        slot[0] = chosen;
        slot[1] = src;
        slot[2] = (int)(cut_before - cut_w);
        n_moves++;

        if (cut_w < *best_cut) {
            *best_cut = cut_w;
            *best_soed = soed_w;
            *best_index = n_moves;
            stall = 0;
        }
        else {
            stall++;
            if (early_stall >= 0 && stall >= early_stall)
                break;
        }
    }
    *cut = cut_w;
    *soed = soed_w;
    return n_moves;
}

/* Move module v to side dst, updating part_of, counts and spans only. */
static inline void
shift(pass_t *p, int v, int dst)
{
    int *cs = p->c[1 - dst], *cd = p->c[dst], *spans = p->spans;
    p->part_of[v] = dst;
    for (int j = p->xinc[v]; j < p->xinc[v + 1]; j++) {
        int e = p->inc[j];
        if (--cs[e] == 0)
            spans[e]--;
        if (++cd[e] == 1)
            spans[e]++;
    }
}

/* _rollback_csr, from the shorter side of the best prefix: undo the
 * tail last move first, or put the pass-start copies back and replay
 * the prefix; the integer state is the same either way.  part_area
 * always takes the tail's float updates in reverse, as the undo with
 * PartitionState.move does; fm_pass returns the objectives the loop
 * recorded at the best prefix. */
static void
rollback(pass_t *p, Py_ssize_t n_moves, Py_ssize_t best_index,
         const int *saved)
{
    Py_ssize_t tail = n_moves - best_index;
    if (tail == 0)
        return;
    for (Py_ssize_t i = n_moves - 1; i >= best_index; i--) {
        int v = p->moves[3 * i], original = p->moves[3 * i + 1];
        double area = p->areas[v];
        p->part_area[1 - original] -= area;
        p->part_area[original] += area;
    }
    if (best_index < tail) {
        /* the pass-start copies, then the prefix. */
        size_t n = (size_t)p->n, m = (size_t)p->m;
        copy_ints(p->part_of, saved, n);
        copy_ints(p->c[0], saved + n, m);
        copy_ints(p->c[1], saved + n + m, m);
        copy_ints(p->spans, saved + n + 2 * m, m);
        for (Py_ssize_t i = 0; i < best_index; i++)
            shift(p, p->moves[3 * i], 1 - p->moves[3 * i + 1]);
    }
    else {
        for (Py_ssize_t i = n_moves - 1; i >= best_index; i--)
            shift(p, p->moves[3 * i], p->moves[3 * i + 1]);
    }
}

PyDoc_STRVAR(fm_pass_doc,
"fm_pass(part_of, c0, c1, spans, part_area, xpins, pins, xinc, inc,\n"
"        weights, areas, fixed, moves, clip, max_gain, lower, upper,\n"
"        early_stall, cut, soed)\n"
"--\n\n"
"Run one FM (clip=0) or CLIP (clip=1) pass with LIFO buckets and roll\n"
"it back to its best prefix.  The state buffers (array 'i', part_area\n"
"array 'd') are updated in place; fixed is one byte per module; moves\n"
"receives the pass's (module, side, gain) triples, gain being the drop\n"
"in internal cut.  early_stall < 0 means no early exit.  Returns\n"
"(moves, best_index, cut, soed, inserted): the objectives are those at\n"
"the best prefix.  Raises OverflowError when a gain leaves the bucket\n"
"range.");

static PyObject *
fm_pass(PyObject *self, PyObject *args)
{
    PyObject *o[13];
    int clip, max_g, early_stall;
    (void)self;
    double lower, upper;
    long long cut, soed;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOiiddiLL", &o[0], &o[1],
                          &o[2], &o[3], &o[4], &o[5], &o[6], &o[7], &o[8],
                          &o[9], &o[10], &o[11], &o[12], &clip, &max_g,
                          &lower, &upper, &early_stall, &cut, &soed))
        return NULL;
    if (max_g < 0) {
        PyErr_SetString(PyExc_ValueError, "max_gain must be >= 0");
        return NULL;
    }

    /* The netlist buffers first: their lengths size the state. */
    Py_buffer b[13];
    int got = 0;
    PyObject *result = NULL;
    Py_ssize_t n, m;
    pass_t p;
    memset(&p, 0, sizeof(p));
    int *scratch = NULL;
    char *locked = NULL;

#define GET(i, w, code, count, name) \
    do { \
        if (get_buffer(o[i], &b[i], w, code, count, name) < 0) \
            goto done; \
        got = i + 1; \
    } while (0)

    GET(0, 1, 'i', -1, "part_of");
    n = b[0].len / (Py_ssize_t)sizeof(int);
    GET(1, 1, 'i', -1, "c0");
    m = b[1].len / (Py_ssize_t)sizeof(int);
    GET(2, 1, 'i', m, "c1");
    GET(3, 1, 'i', m, "spans");
    GET(4, 1, 'd', 2, "part_area");
    GET(5, 0, 'i', m + 1, "xpins");
    GET(6, 0, 'i', -1, "pins");
    GET(7, 0, 'i', n + 1, "xinc");
    GET(8, 0, 'i', -1, "inc");
    GET(9, 0, 'i', m, "weights");
    GET(10, 0, 'd', n, "areas");
    if (PyObject_GetBuffer(o[11], &b[11], PyBUF_C_CONTIGUOUS) < 0)
        goto done;
    got = 12;
    if (b[11].len != n) {
        PyErr_SetString(PyExc_ValueError, "fixed: expected one byte per "
                        "module");
        goto done;
    }
    GET(12, 1, 'i', 3 * n, "moves");
#undef GET
    if (((const int *)b[5].buf)[m] * (Py_ssize_t)sizeof(int) != b[6].len
            || ((const int *)b[7].buf)[n] * (Py_ssize_t)sizeof(int)
               != b[8].len) {
        PyErr_SetString(PyExc_ValueError,
                        "pins/inc: length disagrees with its offsets");
        goto done;
    }

    p.n = (int)n;
    p.m = (int)m;
    p.part_of = (int *)b[0].buf;
    p.c[0] = (int *)b[1].buf;
    p.c[1] = (int *)b[2].buf;
    p.spans = (int *)b[3].buf;
    p.part_area = (double *)b[4].buf;
    p.xpins = (const int *)b[5].buf;
    p.pins = (const int *)b[6].buf;
    p.xinc = (const int *)b[7].buf;
    p.inc = (const int *)b[8].buf;
    p.weights = (const int *)b[9].buf;
    p.areas = (const double *)b[10].buf;
    p.moves = (int *)b[12].buf;
    p.max_g = max_g;
    p.width = 2 * max_g + 1;

    /* head | next | prev | idx_of | pass-start part_of, c0, c1, spans */
    size_t words = (size_t)p.width + 4 * (size_t)n + 3 * (size_t)m;
    scratch = (int *)malloc((words ? words : 1) * sizeof(int));
    locked = (char *)malloc((size_t)n + 1);
    if (scratch == NULL || locked == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (n)
        memcpy(locked, b[11].buf, (size_t)n);
    for (Py_ssize_t v = 0; v < n; v++)
        locked[v] = locked[v] != 0;
    p.locked = locked;
    p.head = scratch;
    p.nxt = p.head + p.width;
    p.prv = p.nxt + n;
    p.idx_of = p.prv + n;
    int *saved = p.idx_of + n;
    copy_ints(saved, p.part_of, (size_t)n);
    copy_ints(saved + n, p.c[0], (size_t)m);
    copy_ints(saved + n + m, p.c[1], (size_t)m);
    copy_ints(saved + n + 2 * m, p.spans, (size_t)m);

    Py_ssize_t inserted = fill_buckets(&p, clip);
    if (inserted < 0)
        goto done;
    long long best_cut, best_soed;
    Py_ssize_t best_index;
    Py_ssize_t n_moves = move_loop(&p, inserted, lower, upper, early_stall,
                                   &cut, &soed, &best_cut, &best_soed,
                                   &best_index);
    if (n_moves < 0)
        goto done;
    rollback(&p, n_moves, best_index, saved);
    result = Py_BuildValue("nnLLn", n_moves, best_index, best_cut,
                           best_soed, inserted);

done:
    free(scratch);
    free(locked);
    for (int i = 0; i < got; i++)
        PyBuffer_Release(&b[i]);
    return result;
}

static PyMethodDef methods[] = {
    {"fm_pass", fm_pass, METH_VARARGS, fm_pass_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_pass",
    "One exact FM/CLIP pass with LIFO buckets (see repro.fm.native).",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__pass(void)
{
    return PyModule_Create(&module);
}
