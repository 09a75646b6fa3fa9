/* One ML level in C: Match, Induce, the state sweep and the exact
 * FM/CLIP pass with LIFO gain buckets.
 *
 * Every entry point ports a Python function that stays in the tree as
 * its reference and its fallback, over the flat layout a Hypergraph
 * keeps (xpins/pins int, weights int64, areas double):
 *
 *   match       repro.clustering.matching.match, schemes conn and heavy
 *   induce      repro.clustering.induce.induce with merge_parallel
 *   init_state  PartitionState's k = 2 construction sweep and
 *               Hypergraph.max_weighted_degree (the gain bound)
 *   incidence   Hypergraph.active_incidence as flat offsets
 *   fm_pass     _initial_gains, one LinkedListBuckets.insert per free
 *               module, _move_loop_csr and _rollback_csr
 *
 * Each returns what its reference returns, bit for bit: Match's scores
 * add up in the reference's order and its candidate choice is the
 * reference's ascending strict-> scan; Induce sums cluster areas in
 * module order and keeps coarse nets in first-appearance order; the
 * pass makes the same moves in the same order, keeps every bucket in
 * the same order after every move, picks the same best prefix and
 * leaves the same state after rollback, with part_area bit-equal (the
 * float updates run in the same order).  Three transformations keep
 * the pass's decisions while dropping work: the move's bookkeeping
 * shares one net sweep with phase B, a two-pin net skips phase A and
 * relinks its other pin once by 2w (exact by the last-relink argument
 * in DESIGN.md section 8), and rollback works from the shorter side of
 * the best prefix.  DESIGN.md section 8 gives the argument for each;
 * the comments name the Python step each block ports.
 *
 * The module is built on first use by repro.fm.native, which compiles
 * this file with the system C compiler into a per-user cache.  It needs
 * only the CPython headers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
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
                      : code == 'q' ? (Py_ssize_t)sizeof(long long)
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
    const int *xpins, *pins, *xinc, *inc;
    const long long *weights;
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
    const int *xinc = p->xinc, *inc = p->inc;
    const long long *w = p->weights;
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
                g += (int)w[e];
            if (cd[e] == 0)
                g -= (int)w[e];
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
    const int *inc = p->inc;
    const long long *weights = p->weights;
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
                int w = (int)weights[e];
                for (int k = a; k < b; k++) {
                    int u = pins[k];
                    if (!locked[u] && bump_up(p, u, w) < 0)
                        return -1;
                }
            }
            else if (cd == 1) {
                int w = (int)weights[e];
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
            int w = (int)weights[e];
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
"the best prefix.  weights is array 'q'; every active net's weight must\n"
"fit the bucket range.  Raises OverflowError when a gain leaves it.");

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
    GET(9, 0, 'q', m, "weights");
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
    p.weights = (const long long *)b[9].buf;
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

/* ------------------------------------------------------------------
 * The level pipeline: Match, Induce, the state sweep and the flat
 * incidence, over the netlist layout every entry point shares.
 * ------------------------------------------------------------------ */

/* The buffers one call holds, released together. */
typedef struct {
    Py_buffer view[12];
    int got;
} buffers_t;

static void
release(buffers_t *bs)
{
    for (int i = 0; i < bs->got; i++)
        PyBuffer_Release(&bs->view[i]);
    bs->got = 0;
}

/* get_buffer into the next free slot; *buf and *len (in items) on
 * success. */
static int
take(buffers_t *bs, PyObject *obj, int writable, char code, Py_ssize_t count,
     const char *name, void **buf, Py_ssize_t *len)
{
    Py_buffer *view = &bs->view[bs->got];
    if (get_buffer(obj, view, writable, code, count, name) < 0)
        return -1;
    bs->got++;
    *buf = view->buf;
    *len = view->len / view->itemsize;
    return 0;
}

/* The flat netlist: net e's pins are pins[xpins[e]:xpins[e + 1]]. */
typedef struct {
    int n, m, np;
    const int *xpins, *pins;
    const long long *weights;
    const double *areas;
} netlist_t;

static int
netlist_error(const char *what)
{
    PyErr_Format(PyExc_ValueError, "netlist buffers: %s", what);
    return -1;
}

/* Take xpins, pins, weights and areas from o[0..3] and check that they
 * describe a netlist: offsets from 0 to len(pins), at least two pins a
 * net, every pin a module. */
static int
get_netlist(buffers_t *bs, PyObject *const *o, netlist_t *g)
{
    void *buf;
    Py_ssize_t m1, np, m, n;
    if (take(bs, o[0], 0, 'i', -1, "xpins", &buf, &m1) < 0)
        return -1;
    g->xpins = (const int *)buf;
    if (m1 < 1)
        return netlist_error("xpins is empty");
    if (take(bs, o[1], 0, 'i', -1, "pins", &buf, &np) < 0)
        return -1;
    g->pins = (const int *)buf;
    if (take(bs, o[2], 0, 'q', m1 - 1, "weights", &buf, &m) < 0)
        return -1;
    g->weights = (const long long *)buf;
    if (take(bs, o[3], 0, 'd', -1, "areas", &buf, &n) < 0)
        return -1;
    g->areas = (const double *)buf;
    if (n > INT_MAX || np > INT_MAX)
        return netlist_error("more than INT_MAX modules or pins");
    if (g->xpins[0] != 0 || g->xpins[m] != np)
        return netlist_error("xpins disagrees with pins");
    for (Py_ssize_t e = 0; e < m; e++)
        if ((long long)g->xpins[e + 1] - g->xpins[e] < 2)
            return netlist_error("a net has fewer than two pins");
    for (Py_ssize_t k = 0; k < np; k++)
        if (g->pins[k] < 0 || g->pins[k] >= n)
            return netlist_error("a pin is not a module");
    g->n = (int)n;
    g->m = (int)m;
    g->np = (int)np;
    return 0;
}

static inline int
net_size(const netlist_t *g, int e)
{
    return g->xpins[e + 1] - g->xpins[e];
}

static inline int
is_active(const netlist_t *g, int e, int max_size)
{
    return max_size < 0 || net_size(g, e) <= max_size;
}

/* Per-module incident nets of size <= max_size (all for max_size < 0),
 * ascending by net: xinc has n + 1 entries, inc at least np.  Returns
 * the number of entries written. */
static int
transpose(const netlist_t *g, int max_size, int *xinc, int *inc)
{
    int n = g->n;
    memset(xinc, 0, ((size_t)n + 1) * sizeof(int));
    for (int e = 0; e < g->m; e++)
        if (is_active(g, e, max_size))
            for (int k = g->xpins[e]; k < g->xpins[e + 1]; k++)
                xinc[g->pins[k] + 1]++;
    for (int v = 0; v < n; v++)
        xinc[v + 1] += xinc[v];
    /* fill through a running cursor per module, then shift back. */
    for (int e = 0; e < g->m; e++)
        if (is_active(g, e, max_size))
            for (int k = g->xpins[e]; k < g->xpins[e + 1]; k++)
                inc[xinc[g->pins[k]]++] = e;
    for (int v = n; v > 0; v--)
        xinc[v] = xinc[v - 1];
    xinc[0] = 0;
    return xinc[n];
}

PyDoc_STRVAR(incidence_doc,
"incidence(xpins, pins, weights, areas, max_size, xinc, inc)\n"
"--\n\n"
"Write module v's nets of at most max_size pins (all nets when\n"
"max_size < 0), ascending, to inc[xinc[v]:xinc[v + 1]].  xinc holds\n"
"n + 1 ints, inc at least len(pins).  Returns len(inc) used.");

static PyObject *
incidence(PyObject *self, PyObject *args)
{
    PyObject *o[4], *xinc_o, *inc_o;
    int max_size;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOiOO", &o[0], &o[1], &o[2], &o[3],
                          &max_size, &xinc_o, &inc_o))
        return NULL;
    buffers_t bs = {.got = 0};
    netlist_t g;
    void *xinc, *inc;
    Py_ssize_t len;
    PyObject *result = NULL;
    if (get_netlist(&bs, o, &g) < 0
            || take(&bs, xinc_o, 1, 'i', (Py_ssize_t)g.n + 1, "xinc", &xinc,
                    &len) < 0
            || take(&bs, inc_o, 1, 'i', -1, "inc", &inc, &len) < 0)
        goto done;
    if (len < g.np) {
        PyErr_SetString(PyExc_ValueError, "inc: shorter than pins");
        goto done;
    }
    result = PyLong_FromLong(transpose(&g, max_size, (int *)xinc,
                                       (int *)inc));
done:
    release(&bs);
    return result;
}

PyDoc_STRVAR(match_doc,
"match(xpins, pins, weights, areas, perm, restrict, heavy, ratio,\n"
"      max_size, cluster_of, pairs)\n"
"--\n\n"
"Match (Figure 3) with the conn scheme (heavy=0) or the heavy scheme\n"
"(heavy=1), visiting modules in perm order and scoring nets of at most\n"
"max_size pins.  restrict is None or one int64 label per module; only\n"
"equal labels match.  cluster_of (n ints) receives every module's\n"
"cluster, pairs (2n ints) the (module, partner) pair of each cluster\n"
"the visit opened in opening order, partner -1 for none.  Returns\n"
"(clusters, opened).");

static PyObject *
match(PyObject *self, PyObject *args)
{
    PyObject *o[4], *perm_o, *restrict_o, *cluster_o, *pairs_o;
    int heavy, max_size;
    double ratio;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOOidiOO", &o[0], &o[1], &o[2], &o[3],
                          &perm_o, &restrict_o, &heavy, &ratio, &max_size,
                          &cluster_o, &pairs_o))
        return NULL;
    buffers_t bs = {.got = 0};
    netlist_t g;
    void *buf;
    Py_ssize_t len;
    const int *perm;
    const long long *label = NULL;
    int *cluster_of, *pairs;
    int *xn = NULL, *nets = NULL, *touched = NULL;
    double *score = NULL;
    char *matched = NULL;
    PyObject *result = NULL;

    if (get_netlist(&bs, o, &g) < 0)
        goto done;
    int n = g.n;
    if (take(&bs, perm_o, 0, 'i', n, "perm", &buf, &len) < 0)
        goto done;
    perm = (const int *)buf;
    if (restrict_o != Py_None) {
        if (take(&bs, restrict_o, 0, 'q', n, "restrict", &buf, &len) < 0)
            goto done;
        label = (const long long *)buf;
    }
    if (take(&bs, cluster_o, 1, 'i', n, "cluster_of", &buf, &len) < 0)
        goto done;
    cluster_of = (int *)buf;
    if (take(&bs, pairs_o, 1, 'i', 2 * (Py_ssize_t)n, "pairs", &buf,
             &len) < 0)
        goto done;
    pairs = (int *)buf;
    for (int j = 0; j < n; j++) {
        if (perm[j] < 0 || perm[j] >= n) {
            PyErr_SetString(PyExc_ValueError, "perm: not a module");
            goto done;
        }
    }

    xn = (int *)malloc(((size_t)n + 1) * sizeof(int));
    nets = (int *)malloc(((size_t)g.np + 1) * sizeof(int));
    touched = (int *)malloc(((size_t)n + 1) * sizeof(int));
    score = (double *)calloc((size_t)n + 1, sizeof(double));
    matched = (char *)calloc((size_t)n + 1, 1);
    if (!xn || !nets || !touched || !score || !matched) {
        PyErr_NoMemory();
        goto done;
    }
    /* The scored incidence: module_nets[v] without nets above max_size,
     * which _neighbour_scores skips. */
    transpose(&g, max_size < 2 ? 1 : max_size, xn, nets);

    long long n_match = 0;
    int clusters = 0, opened = 0;
    for (int j = 0; j < n; j++) {
        if ((double)n_match / (double)n >= ratio)
            break;
        int v = perm[j];
        if (matched[v])
            continue;
        /* Step 4: open a new cluster holding v. */
        int cluster = clusters++;
        cluster_of[v] = cluster;
        matched[v] = 1;

        /* _neighbour_scores: every score is a sum of positive terms,
         * so 0.0 marks a neighbour not yet seen. */
        int seen = 0;
        for (int i = xn[v]; i < xn[v + 1]; i++) {
            int e = nets[i];
            double contribution = (double)g.weights[e]
                                  / (double)(net_size(&g, e) - 1);
            for (int k = g.xpins[e]; k < g.xpins[e + 1]; k++) {
                int w = g.pins[k];
                if (w != v && !matched[w]) {
                    if (score[w] == 0.0)
                        touched[seen++] = w;
                    score[w] += contribution;
                }
            }
        }
        /* Step 5: the reference scans candidates in ascending id and
         * keeps a strictly better score, starting from 0.0: the lowest
         * id among the best scores above 0.0. */
        int best = -1;
        double best_score = 0.0;
        double area_v = g.areas[v];
        for (int i = 0; i < seen; i++) {
            int w = touched[i];
            double s = score[w];
            score[w] = 0.0;
            if (label != NULL && label[w] != label[v])
                continue;
            if (!heavy)
                s /= area_v * g.areas[w];
            if (s > best_score
                    || (s == best_score && best >= 0 && w < best)) {
                best_score = s;
                best = w;
            }
        }
        /* Step 6: close the pair. */
        if (best >= 0) {
            cluster_of[best] = cluster;
            matched[best] = 1;
            n_match += 2;
        }
        pairs[2 * opened] = v;
        pairs[2 * opened + 1] = best;
        opened++;
    }
    /* Steps 8-10: every remaining module becomes a singleton. */
    for (int v = 0; v < n; v++)
        if (!matched[v])
            cluster_of[v] = clusters++;
    result = Py_BuildValue("ii", clusters, opened);

done:
    free(xn);
    free(nets);
    free(touched);
    free(score);
    free(matched);
    release(&bs);
    return result;
}

static int
compare_ints(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

static void
sort_ints(int *a, int count)
{
    if (count > 16) {
        qsort(a, (size_t)count, sizeof(int), compare_ints);
        return;
    }
    for (int i = 1; i < count; i++) {
        int x = a[i], j = i - 1;
        while (j >= 0 && a[j] > x) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = x;
    }
}

static unsigned long long
hash_ints(const int *a, int count)
{
    unsigned long long h = 1469598103934665603ULL ^ (unsigned)count;
    for (int i = 0; i < count; i++)
        h = (h ^ (unsigned)a[i]) * 1099511628211ULL;
    return h ^ (h >> 31);
}

PyDoc_STRVAR(induce_doc,
"induce(xpins, pins, weights, areas, cluster_of, xpins_out, pins_out,\n"
"       weights_out, areas_out)\n"
"--\n\n"
"Induce (Definition 1) with parallel nets merged: the coarse netlist of\n"
"the clustering cluster_of, with len(areas_out) clusters.  The *_out\n"
"buffers (sized for the fine netlist; areas_out one double a cluster)\n"
"receive the coarse netlist's flat layout.  Returns (nets, pins,\n"
"largest net).  Raises OverflowError when a merged weight leaves int64.");

static PyObject *
induce(PyObject *self, PyObject *args)
{
    PyObject *o[4], *cluster_o, *out[4];
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOOOOO", &o[0], &o[1], &o[2], &o[3],
                          &cluster_o, &out[0], &out[1], &out[2], &out[3]))
        return NULL;
    buffers_t bs = {.got = 0};
    netlist_t g;
    void *buf;
    Py_ssize_t len, k;
    const int *cluster_of;
    int *xout, *pout;
    long long *wout;
    double *aout;
    int *stamp = NULL, *key = NULL, *table = NULL;
    unsigned long long *hashes = NULL;
    PyObject *result = NULL;

    if (get_netlist(&bs, o, &g) < 0
            || take(&bs, cluster_o, 0, 'i', g.n, "cluster_of", &buf,
                    &len) < 0)
        goto done;
    cluster_of = (const int *)buf;
    if (take(&bs, out[0], 1, 'i', (Py_ssize_t)g.m + 1, "xpins_out", &buf,
             &len) < 0)
        goto done;
    xout = (int *)buf;
    if (take(&bs, out[1], 1, 'i', g.np, "pins_out", &buf, &len) < 0)
        goto done;
    pout = (int *)buf;
    if (take(&bs, out[2], 1, 'q', g.m, "weights_out", &buf, &len) < 0)
        goto done;
    wout = (long long *)buf;
    if (take(&bs, out[3], 1, 'd', -1, "areas_out", &buf, &k) < 0)
        goto done;
    aout = (double *)buf;
    for (int v = 0; v < g.n; v++) {
        if (cluster_of[v] < 0 || cluster_of[v] >= k) {
            PyErr_SetString(PyExc_ValueError,
                            "cluster_of: a cluster outside areas_out");
            goto done;
        }
    }

    /* Cluster areas, summed in module order. */
    for (Py_ssize_t c = 0; c < k; c++)
        aout[c] = 0.0;
    for (int v = 0; v < g.n; v++)
        aout[cluster_of[v]] += g.areas[v];

    /* Coarse nets in first-appearance order, pins sorted and distinct;
     * an open-addressing table over the pin sets finds a parallel net. */
    size_t cap = 2;
    while (cap < 2 * (size_t)g.m)
        cap <<= 1;
    stamp = (int *)malloc(((size_t)k + 1) * sizeof(int));
    key = (int *)malloc(((size_t)g.np + 1) * sizeof(int));
    table = (int *)malloc(cap * sizeof(int));
    hashes = (unsigned long long *)malloc(((size_t)g.m + 1)
                                          * sizeof(unsigned long long));
    if (!stamp || !key || !table || !hashes) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t c = 0; c < k; c++)
        stamp[c] = -1;
    for (size_t i = 0; i < cap; i++)
        table[i] = -1;
    int nets = 0, used = 0, largest = 0;
    xout[0] = 0;
    for (int e = 0; e < g.m; e++) {
        int count = 0;
        for (int i = g.xpins[e]; i < g.xpins[e + 1]; i++) {
            int c = cluster_of[g.pins[i]];
            if (stamp[c] != e) {
                stamp[c] = e;
                key[count++] = c;
            }
        }
        if (count < 2)
            continue;  /* net absorbed inside one cluster */
        sort_ints(key, count);
        unsigned long long h = hash_ints(key, count);
        size_t slot = (size_t)h & (cap - 1);
        int found = -1;
        while (table[slot] >= 0) {
            int f = table[slot];
            if (hashes[f] == h && xout[f + 1] - xout[f] == count
                    && memcmp(pout + xout[f], key,
                              (size_t)count * sizeof(int)) == 0) {
                found = f;
                break;
            }
            slot = (slot + 1) & (cap - 1);
        }
        long long w = g.weights[e];
        if (found >= 0) {
            if (w > LLONG_MAX - wout[found]) {
                PyErr_SetString(PyExc_OverflowError,
                                "a merged net weight exceeds int64");
                goto done;
            }
            wout[found] += w;
            continue;
        }
        table[slot] = nets;
        hashes[nets] = h;
        memcpy(pout + used, key, (size_t)count * sizeof(int));
        used += count;
        wout[nets] = w;
        xout[++nets] = used;
        if (count > largest)
            largest = count;
    }
    result = Py_BuildValue("iii", nets, used, largest);

done:
    free(stamp);
    free(key);
    free(table);
    free(hashes);
    release(&bs);
    return result;
}

PyDoc_STRVAR(init_state_doc,
"init_state(xpins, pins, weights, areas, part_of, c0, c1, spans,\n"
"           part_area, max_size)\n"
"--\n\n"
"PartitionState's k = 2 construction sweep over the nets of at most\n"
"max_size pins (all nets when max_size < 0): per-side pin counts c0/c1\n"
"and spans (0 on other nets) and part_area, written in place.  Returns\n"
"(cut, soed, bound), bound being the largest per-module sum of active\n"
"net weights (Hypergraph.max_weighted_degree), capped at int64.");

static PyObject *
init_state(PyObject *self, PyObject *args)
{
    PyObject *o[4], *s[5];
    int max_size;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOi", &o[0], &o[1], &o[2], &o[3],
                          &s[0], &s[1], &s[2], &s[3], &s[4], &max_size))
        return NULL;
    buffers_t bs = {.got = 0};
    netlist_t g;
    void *buf;
    Py_ssize_t len;
    const int *part_of;
    int *c0, *c1, *spans;
    double *part_area;
    unsigned long long *degree = NULL;
    PyObject *result = NULL;

    if (get_netlist(&bs, o, &g) < 0
            || take(&bs, s[0], 0, 'i', g.n, "part_of", &buf, &len) < 0)
        goto done;
    part_of = (const int *)buf;
    if (take(&bs, s[1], 1, 'i', g.m, "c0", &buf, &len) < 0)
        goto done;
    c0 = (int *)buf;
    if (take(&bs, s[2], 1, 'i', g.m, "c1", &buf, &len) < 0)
        goto done;
    c1 = (int *)buf;
    if (take(&bs, s[3], 1, 'i', g.m, "spans", &buf, &len) < 0)
        goto done;
    spans = (int *)buf;
    if (take(&bs, s[4], 1, 'd', 2, "part_area", &buf, &len) < 0)
        goto done;
    part_area = (double *)buf;
    for (int v = 0; v < g.n; v++) {
        if (part_of[v] != 0 && part_of[v] != 1) {
            PyErr_SetString(PyExc_ValueError, "part_of: not a side");
            goto done;
        }
    }
    degree = (unsigned long long *)calloc((size_t)g.n + 1,
                                          sizeof(unsigned long long));
    if (degree == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    part_area[0] = part_area[1] = 0.0;
    for (int v = 0; v < g.n; v++)
        part_area[part_of[v]] += g.areas[v];
    /* Unsigned sums: a netlist whose objectives leave int64 is refused
     * by the caller's gain-bound check, never computed with. */
    unsigned long long cut = 0, soed = 0;
    for (int e = 0; e < g.m; e++) {
        if (!is_active(&g, e, max_size)) {
            c0[e] = c1[e] = spans[e] = 0;
            continue;
        }
        unsigned long long w = (unsigned long long)g.weights[e];
        int a = 0, b = 0;
        for (int k = g.xpins[e]; k < g.xpins[e + 1]; k++) {
            int v = g.pins[k];
            if (part_of[v])
                b++;
            else
                a++;
            unsigned long long d = degree[v] + w;
            degree[v] = d < w ? ULLONG_MAX : d;
        }
        c0[e] = a;
        c1[e] = b;
        int present = (a > 0) + (b > 0);
        spans[e] = present;
        if (present > 1) {
            cut += w;
            soed += 2 * w;
        }
    }
    unsigned long long bound = 0;
    for (int v = 0; v < g.n; v++)
        if (degree[v] > bound)
            bound = degree[v];
    if (bound > (unsigned long long)LLONG_MAX)
        bound = (unsigned long long)LLONG_MAX;
    result = Py_BuildValue("LLL", (long long)cut, (long long)soed,
                           (long long)bound);

done:
    free(degree);
    release(&bs);
    return result;
}

static PyMethodDef methods[] = {
    {"fm_pass", fm_pass, METH_VARARGS, fm_pass_doc},
    {"match", match, METH_VARARGS, match_doc},
    {"induce", induce, METH_VARARGS, induce_doc},
    {"init_state", init_state, METH_VARARGS, init_state_doc},
    {"incidence", incidence, METH_VARARGS, incidence_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "One ML level: Match, Induce, the state sweep and the exact FM/CLIP "
    "pass (see repro.fm.native).",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
