/* Compiled tier of the discrete-event core.
 *
 * Implements the same event-store contract as _pyengine.py with
 * C-native storage: the heap is a struct-of-arrays binary heap
 * (parallel arrays of times, tie-break counters, item pointers and
 * item kinds), events are C structs, and the dispatch loop — including
 * the generator send/throw protocol of Process and the occupancy state
 * machine of Resource — runs without re-entering the interpreter
 * except to run user callbacks and generator frames.
 *
 * Semantics are transcribed from _pyengine.py, which is the readable
 * reference: same error messages, same tie-break counting (every heap
 * entry bumps the counter exactly once, so Simulator.stats() agrees
 * across tiers record-for-record), same kick-event recycling, same
 * batched same-instant drain, and the same contract — no more than the
 * simulated machine calls (engine.py lists it).  SimulationError and the
 * PENDING sentinel are *shared* with the pure tier: they are injected
 * once via _set_helpers() so isinstance checks and identity tests work
 * across the facade.
 *
 * One function here is not engine: sweep_phase, SOR's numerical kernel.
 * It lives in this file because the repository has one native artefact
 * (one build, one stamp, one fallback rule), not because the simulator
 * needs it.
 *
 * Built on demand by _build.py with the system C compiler; see
 * engine.py for tier selection.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Injected from _cengine.py via _set_helpers(). */
static PyObject *Pending;       /* the shared PENDING sentinel */
static PyObject *SimError;      /* SimulationError class */
static PyObject *AllOfCls;      /* AllOf (Python subclass of our Event) */
static PyObject *SpawnObsHook;  /* callable(sim, proc) -> None */
static PyObject *DropArgHelper; /* callable(fn) -> (lambda _ev: fn()) */

static PyObject *str_send, *str_throw, *str_value, *str_dunder_name;

/* Heap item kinds. */
#define K_EVENT 0   /* boxed Event: fire-and-dispatch */
#define K_CALL  1   /* bare callable: call with no args */
#define K_START 2   /* Process bootstrap: first generator resume */
/* Occupancy steps (Resource.occupy): the item is the completion event. */
#define K_OCC_REQ   3   /* request deferred from a busy instant */
#define K_OCC_GRANT 4   /* slot granted: start the hold */
#define K_OCC_HOLD  5   /* hold expired: release, then complete */
#define K_OCC_NEXT  6   /* occupy_quanta: next segment posted from a busy
                         * instant (the loop's posted completion) */

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;          /* monotone tie-break counter */
    long long n_spawned;
    long long n_fast;
    long long n_fallback;
    int running;
    PyObject *obs;          /* tracer or NULL */
    /* Struct-of-arrays binary heap keyed by (time, seq). */
    Py_ssize_t hlen, hcap;
    double *ht;
    long long *hseq;
    PyObject **hitem;       /* strong references */
    unsigned char *hkind;
} SimObject;

typedef struct {
    PyObject_HEAD
    PyObject *sim;          /* SimObject, strong */
    PyObject *callbacks;    /* PyList, or NULL once processed */
    PyObject *value;        /* Pending sentinel until triggered */
    char ok;
    char scheduled;
} EventObject;

typedef struct {
    EventObject ev;
    PyObject *gen;
    PyObject *name;         /* str */
    PyObject *kick;         /* recycled kick Event or NULL */
    PyObject *kick_cbs;     /* the kick's callback list, or NULL */
    PyObject *resume_cb;    /* cached bound _resume (stable identity) */
} ProcessObject;

/* FIFO of waiters for one priority level of a Resource: a ring buffer
 * of strong references.  Entries are the gate Events handed out by
 * request(), or Occupancy events queued by occupy(). */
typedef struct {
    PyObject **buf;
    Py_ssize_t head, len, cap;  /* cap is 0 or a power of two */
} WaitQ;

typedef struct {
    PyObject_HEAD
    PyObject *sim;          /* SimObject, strong */
    PyObject *name;
    long capacity;
    long in_use;
    double busy_time;       /* integral of in_use over time */
    double last_change;
    WaitQ q[2];             /* [0] urgent (priority <= 0), [1] background */
} ResourceObject;

/* The completion event of one Resource.occupy() or occupy_quanta()
 * call.  It doubles as the record of the occupancy state machine: the
 * same object sits in the heap under K_OCC_REQ / K_OCC_GRANT /
 * K_OCC_HOLD / K_OCC_NEXT (or in a WaitQ) and finally under K_EVENT, so
 * one occupy — every segment of an occupy_quanta included — allocates
 * one object. */
typedef struct {
    EventObject ev;
    ResourceObject *res;    /* strong; dropped at completion */
    PyObject *on_release;   /* callable(t_req, t_grant, qdepth) or NULL */
    PyObject *speeds;       /* occupy_quanta's speed table, or NULL */
    double seconds;         /* hold of the current segment */
    double t_req, t_grant;
    double remaining;       /* occupy_quanta: work after this segment */
    double quantum;         /* occupy_quanta: segment size; 0 for occupy */
    Py_ssize_t index;       /* occupy_quanta: this resource's speed entry */
    long qdepth;            /* queue joined, counting itself + in_use */
    int level;              /* index into res->q */
} OccObject;

static PyTypeObject SimType;
static PyTypeObject EventType;
static PyTypeObject ProcessType;
static PyTypeObject ResourceType;
static PyTypeObject OccType;

static int process_step(ProcessObject *self, PyObject *sendval, int ok);

/* ------------------------------------------------------------------ */
/* Heap primitives                                                     */
/* ------------------------------------------------------------------ */

static int
heap_grow(SimObject *s)
{
    Py_ssize_t ncap = s->hcap ? s->hcap * 2 : 64;
    double *nt = PyMem_Realloc(s->ht, (size_t)ncap * sizeof(double));
    if (!nt) { PyErr_NoMemory(); return -1; }
    s->ht = nt;
    long long *nseq = PyMem_Realloc(s->hseq, (size_t)ncap * sizeof(long long));
    if (!nseq) { PyErr_NoMemory(); return -1; }
    s->hseq = nseq;
    PyObject **nitem = PyMem_Realloc(s->hitem, (size_t)ncap * sizeof(PyObject *));
    if (!nitem) { PyErr_NoMemory(); return -1; }
    s->hitem = nitem;
    unsigned char *nkind = PyMem_Realloc(s->hkind, (size_t)ncap);
    if (!nkind) { PyErr_NoMemory(); return -1; }
    s->hkind = nkind;
    s->hcap = ncap;
    return 0;
}

/* Push (t, ++seq, item, kind); increfs item. */
static int
heap_push(SimObject *s, double t, PyObject *item, int kind)
{
    if (s->hlen == s->hcap && heap_grow(s) < 0)
        return -1;
    long long seq = ++s->seq;
    Py_ssize_t i = s->hlen++;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (s->ht[p] < t || (s->ht[p] == t && s->hseq[p] < seq))
            break;
        s->ht[i] = s->ht[p];
        s->hseq[i] = s->hseq[p];
        s->hitem[i] = s->hitem[p];
        s->hkind[i] = s->hkind[p];
        i = p;
    }
    s->ht[i] = t;
    s->hseq[i] = seq;
    s->hitem[i] = Py_NewRef(item);
    s->hkind[i] = (unsigned char)kind;
    return 0;
}

/* Pop the root; returns an owned item reference.  hlen must be > 0. */
static PyObject *
heap_pop(SimObject *s, double *t_out, int *kind_out)
{
    PyObject *item = s->hitem[0];
    *t_out = s->ht[0];
    *kind_out = s->hkind[0];
    Py_ssize_t n = --s->hlen;
    if (n > 0) {
        double t = s->ht[n];
        long long seq = s->hseq[n];
        PyObject *last = s->hitem[n];
        unsigned char kind = s->hkind[n];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t c = 2 * i + 1;
            if (c >= n)
                break;
            Py_ssize_t r = c + 1;
            if (r < n && (s->ht[r] < s->ht[c] ||
                          (s->ht[r] == s->ht[c] && s->hseq[r] < s->hseq[c])))
                c = r;
            if (t < s->ht[c] || (t == s->ht[c] && seq < s->hseq[c]))
                break;
            s->ht[i] = s->ht[c];
            s->hseq[i] = s->hseq[c];
            s->hitem[i] = s->hitem[c];
            s->hkind[i] = s->hkind[c];
            i = c;
        }
        s->ht[i] = t;
        s->hseq[i] = seq;
        s->hitem[i] = last;
        s->hkind[i] = kind;
    }
    return item;
}

/* ------------------------------------------------------------------ */
/* Event                                                               */
/* ------------------------------------------------------------------ */

static int
check_ready(void)
{
    if (!Pending) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_ccore helpers not initialized (import via "
                        "repro.sim.engine, not directly)");
        return -1;
    }
    return 0;
}

/* Allocate a bare event of `type` bound to `sim` (no heap entry). */
static EventObject *
event_new_bare(PyTypeObject *type, SimObject *sim)
{
    EventObject *ev = (EventObject *)type->tp_alloc(type, 0);
    if (!ev)
        return NULL;
    ev->sim = Py_NewRef((PyObject *)sim);
    ev->callbacks = PyList_New(0);
    if (!ev->callbacks) { Py_DECREF(ev); return NULL; }
    ev->value = Py_NewRef(Pending);
    ev->ok = 1;
    ev->scheduled = 0;
    return ev;
}

/* Put a triggered event on the heap for dispatch at the current instant
 * (_pyengine._schedule).  A timeout is on the heap from birth, so
 * triggering one by hand is refused. */
static int
event_schedule(EventObject *ev)
{
    if (ev->scheduled) {
        PyErr_SetString(SimError, "event already scheduled");
        return -1;
    }
    ev->scheduled = 1;
    SimObject *sim = (SimObject *)ev->sim;
    return heap_push(sim, sim->now, (PyObject *)ev, K_EVENT);
}

/* succeed()/fail() without the argument checks. */
static int
event_complete(EventObject *ev, PyObject *value, int ok)
{
    if (ev->value != Pending) {
        PyErr_SetString(SimError, "event already triggered");
        return -1;
    }
    Py_XSETREF(ev->value, Py_NewRef(value));
    ev->ok = (char)ok;
    return event_schedule(ev);
}

/* Run and drop the event's callbacks (the dispatch of a fired event). */
static int
event_run_callbacks(EventObject *ev)
{
    PyObject *cbs = ev->callbacks;
    ev->callbacks = NULL;  /* ownership moves to this frame */
    if (cbs == NULL)
        return 0;
    /* Re-read the size every iteration, like the pure tier's list
     * iterator — a callback may reattach this same list (kick reuse). */
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = Py_NewRef(PyList_GET_ITEM(cbs, i));
        PyObject *r = PyObject_CallOneArg(cb, (PyObject *)ev);
        Py_DECREF(cb);
        if (!r) {
            Py_DECREF(cbs);
            return -1;
        }
        Py_DECREF(r);
    }
    Py_DECREF(cbs);
    return 0;
}

/* fire(): trigger and dispatch inline, bypassing the heap. */
static int
event_fire(EventObject *ev, PyObject *value)
{
    if (ev->value != Pending) {
        PyErr_SetString(SimError, "event already triggered");
        return -1;
    }
    Py_XSETREF(ev->value, Py_NewRef(value));
    ev->ok = 1;
    ev->scheduled = 1;
    ((SimObject *)ev->sim)->n_fast += 1;
    return event_run_callbacks(ev);
}

static int
Event_init(EventObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim;
    static char *kwlist[] = {"sim", NULL};
    if (check_ready() < 0)
        return -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!", kwlist,
                                     &SimType, &sim))
        return -1;
    Py_XSETREF(self->sim, Py_NewRef(sim));
    PyObject *cbs = PyList_New(0);
    if (!cbs)
        return -1;
    Py_XSETREF(self->callbacks, cbs);
    Py_XSETREF(self->value, Py_NewRef(Pending));
    self->ok = 1;
    self->scheduled = 0;
    return 0;
}

static int
Event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
Event_clear(EventObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
Event_dealloc(EventObject *self)
{
    PyObject_GC_UnTrack(self);
    Event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Event_succeed(EventObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "succeed() takes at most 1 argument");
        return NULL;
    }
    PyObject *value = nargs ? args[0] : Py_None;
    if (event_complete(self, value, 1) < 0)
        return NULL;
    return Py_NewRef((PyObject *)self);
}

static PyObject *
Event_fail(EventObject *self, PyObject *exc)
{
    if (self->value != Pending) {
        PyErr_SetString(SimError, "event already triggered");
        return NULL;
    }
    if (!PyExceptionInstance_Check(exc)) {
        PyErr_SetString(SimError, "fail() requires an exception instance");
        return NULL;
    }
    Py_XSETREF(self->value, Py_NewRef(exc));
    self->ok = 0;
    if (event_schedule(self) < 0)
        return NULL;
    return Py_NewRef((PyObject *)self);
}

static PyObject *
Event_get_triggered(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->value != Pending);
}

static PyObject *
Event_get_ok(EventObject *self, void *closure)
{
    if (self->value == Pending) {
        PyErr_SetString(SimError, "event not yet triggered");
        return NULL;
    }
    return PyBool_FromLong(self->ok);
}

static PyObject *
Event_get_value(EventObject *self, void *closure)
{
    if (self->value == Pending) {
        PyErr_SetString(SimError, "event not yet triggered");
        return NULL;
    }
    return Py_NewRef(self->value);
}

static PyObject *
Event_get_callbacks(EventObject *self, void *closure)
{
    if (self->callbacks == NULL)
        Py_RETURN_NONE;
    return Py_NewRef(self->callbacks);
}

static int
Event_set_callbacks(EventObject *self, PyObject *v, void *closure)
{
    if (v == NULL || v == Py_None) {
        Py_CLEAR(self->callbacks);
        return 0;
    }
    if (!PyList_Check(v)) {
        PyErr_SetString(PyExc_TypeError, "callbacks must be a list or None");
        return -1;
    }
    Py_XSETREF(self->callbacks, Py_NewRef(v));
    return 0;
}

static PyObject *
Event_get_rawvalue(EventObject *self, void *closure)
{
    return Py_NewRef(self->value);
}

static PyObject *
Event_get_rawok(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->ok);
}

static PyMethodDef Event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))Event_succeed, METH_FASTCALL,
     "Trigger the event; the value is sent to every waiting process."},
    {"fail", (PyCFunction)Event_fail, METH_O,
     "Trigger the event as failed; waiters receive the exception."},
    {NULL}
};

static PyGetSetDef Event_getset[] = {
    {"triggered", (getter)Event_get_triggered, NULL, NULL, NULL},
    {"ok", (getter)Event_get_ok, NULL, NULL, NULL},
    {"value", (getter)Event_get_value, NULL, NULL, NULL},
    {"callbacks", (getter)Event_get_callbacks, (setter)Event_set_callbacks,
     NULL, NULL},
    {"_value", (getter)Event_get_rawvalue, NULL, NULL, NULL},
    {"_ok", (getter)Event_get_rawok, NULL, NULL, NULL},
    {NULL}
};

static PyMemberDef Event_members[] = {
    {"sim", T_OBJECT, offsetof(EventObject, sim), READONLY, NULL},
    {NULL}
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A one-shot occurrence that processes can wait on.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Event_init,
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear,
    .tp_methods = Event_methods,
    .tp_getset = Event_getset,
    .tp_members = Event_members,
};

/* ------------------------------------------------------------------ */
/* Process                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
Process_resume_impl(PyObject *self_obj, PyObject *evobj)
{
    ProcessObject *self = (ProcessObject *)self_obj;
    if (!PyObject_TypeCheck(evobj, &EventType)) {
        PyErr_SetString(PyExc_TypeError, "_resume expects an Event");
        return NULL;
    }
    EventObject *ev = (EventObject *)evobj;
    if (process_step(self, ev->value, ev->ok) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef Process_resume_def = {
    "_resume", (PyCFunction)Process_resume_impl, METH_O,
    "Resume the generator with the fired event's value."};

static int
Process_init(ProcessObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *gen, *name = NULL;
    static char *kwlist[] = {"sim", "gen", "name", NULL};
    if (check_ready() < 0)
        return -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O|U", kwlist,
                                     &SimType, &sim, &gen, &name))
        return -1;

    PyObject *send = PyObject_GetAttr(gen, str_send);
    if (!send) {
        PyErr_Clear();
        PyErr_Format(SimError, "Process requires a generator, got %R", gen);
        return -1;
    }
    Py_DECREF(send);

    EventObject *ev = &self->ev;
    Py_XSETREF(ev->sim, Py_NewRef(sim));
    PyObject *cbs = PyList_New(0);
    if (!cbs)
        return -1;
    Py_XSETREF(ev->callbacks, cbs);
    Py_XSETREF(ev->value, Py_NewRef(Pending));
    ev->ok = 1;
    ev->scheduled = 0;

    Py_XSETREF(self->gen, Py_NewRef(gen));
    if (name && PyUnicode_GET_LENGTH(name) > 0) {
        Py_XSETREF(self->name, Py_NewRef(name));
    }
    else {
        PyObject *gname = PyObject_GetAttr(gen, str_dunder_name);
        if (!gname) {
            PyErr_Clear();
            gname = PyUnicode_FromString("process");
            if (!gname)
                return -1;
        }
        Py_XSETREF(self->name, gname);
    }
    Py_CLEAR(self->kick);
    Py_CLEAR(self->kick_cbs);
    PyObject *resume = PyCFunction_New(&Process_resume_def, (PyObject *)self);
    if (!resume)
        return -1;
    Py_XSETREF(self->resume_cb, resume);

    SimObject *s = (SimObject *)sim;
    s->n_spawned += 1;
    /* Bootstrap: one call-slot heap entry at the current instant (the
     * same tie-break cost the pure tier's bootstrap slot pays). */
    return heap_push(s, s->now, (PyObject *)self, K_START);
}

static int
Process_traverse(ProcessObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->ev.sim);
    Py_VISIT(self->ev.callbacks);
    Py_VISIT(self->ev.value);
    Py_VISIT(self->gen);
    Py_VISIT(self->name);
    Py_VISIT(self->kick);
    Py_VISIT(self->kick_cbs);
    Py_VISIT(self->resume_cb);
    return 0;
}

static int
Process_clear(ProcessObject *self)
{
    Event_clear(&self->ev);
    Py_CLEAR(self->gen);
    Py_CLEAR(self->name);
    Py_CLEAR(self->kick);
    Py_CLEAR(self->kick_cbs);
    Py_CLEAR(self->resume_cb);
    return 0;
}

static void
Process_dealloc(ProcessObject *self)
{
    PyObject_GC_UnTrack(self);
    Process_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Fail the process with the currently-raised exception (normalized),
 * re-raising KeyboardInterrupt/SystemExit.  Returns 0 on handled. */
static int
process_fail_from_err(ProcessObject *self)
{
    if (PyErr_ExceptionMatches(PyExc_KeyboardInterrupt) ||
        PyErr_ExceptionMatches(PyExc_SystemExit))
        return -1;
    PyObject *etype, *evalue, *tb;
    PyErr_Fetch(&etype, &evalue, &tb);
    PyErr_NormalizeException(&etype, &evalue, &tb);
    if (tb)
        PyException_SetTraceback(evalue, tb);
    int st = event_complete(&self->ev, evalue, 0);
    Py_XDECREF(etype);
    Py_XDECREF(evalue);
    Py_XDECREF(tb);
    return st;
}

static int
process_step(ProcessObject *self, PyObject *sendval, int ok)
{
    PyObject *gen = self->gen;
    PyObject *target = NULL;
    PyObject *val = Py_NewRef(sendval ? sendval : Py_None);

    for (;;) {
        if (ok) {
            PySendResult r = PyIter_Send(gen, val, &target);
            Py_CLEAR(val);
            if (r == PYGEN_RETURN) {
                int st = event_complete(&self->ev, target, 1);
                Py_DECREF(target);
                return st;
            }
            if (r == PYGEN_ERROR)
                return process_fail_from_err(self);
        }
        else {
            target = PyObject_CallMethodOneArg(gen, str_throw, val);
            Py_CLEAR(val);
            if (!target) {
                if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
                    PyObject *etype, *evalue, *tb;
                    PyErr_Fetch(&etype, &evalue, &tb);
                    PyErr_NormalizeException(&etype, &evalue, &tb);
                    PyObject *retval = evalue
                        ? PyObject_GetAttr(evalue, str_value)
                        : Py_NewRef(Py_None);
                    Py_XDECREF(etype);
                    Py_XDECREF(evalue);
                    Py_XDECREF(tb);
                    if (!retval)
                        return -1;
                    int st = event_complete(&self->ev, retval, 1);
                    Py_DECREF(retval);
                    return st;
                }
                return process_fail_from_err(self);
            }
        }
        if (PyObject_TypeCheck(target, &EventType))
            break;
        /* Misuse: throw into the generator and keep driving it. */
        PyObject *msg = PyUnicode_FromFormat(
            "process %R yielded %R, expected an Event", self->name, target);
        Py_CLEAR(target);
        if (!msg)
            return -1;
        PyObject *exc = PyObject_CallOneArg(SimError, msg);
        Py_DECREF(msg);
        if (!exc)
            return -1;
        val = exc;
        ok = 0;
    }

    EventObject *tev = (EventObject *)target;
    int st;
    if (tev->callbacks == NULL) {
        /* Already fired and processed: resume next tick via the
         * recycled per-process kick event.  A process waits on one
         * event at a time, so its kick has always been dispatched by
         * the time it is needed again. */
        SimObject *sim = (SimObject *)self->ev.sim;
        EventObject *kick = (EventObject *)self->kick;
        if (kick == NULL) {
            kick = event_new_bare(&EventType, sim);
            if (!kick || PyList_Append(kick->callbacks, self->resume_cb) < 0) {
                Py_XDECREF(kick);
                Py_DECREF(target);
                return -1;
            }
            self->kick = (PyObject *)kick;
            self->kick_cbs = Py_NewRef(kick->callbacks);
        }
        else
            Py_XSETREF(kick->callbacks, Py_NewRef(self->kick_cbs));
        Py_XSETREF(kick->value, Py_NewRef(tev->value));
        kick->ok = tev->ok;
        st = heap_push(sim, sim->now, (PyObject *)kick, K_EVENT);
    }
    else
        st = PyList_Append(tev->callbacks, self->resume_cb);
    Py_DECREF(target);
    return st;
}

static PyMemberDef Process_members[] = {
    {"name", T_OBJECT, offsetof(ProcessObject, name), READONLY, NULL},
    {NULL}
};

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Process",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Wraps a generator; the process event fires when it returns.",
    .tp_base = &EventType,
    .tp_init = (initproc)Process_init,
    .tp_dealloc = (destructor)Process_dealloc,
    .tp_traverse = (traverseproc)Process_traverse,
    .tp_clear = (inquiry)Process_clear,
    .tp_members = Process_members,
};

/* ------------------------------------------------------------------ */
/* Resource                                                            */
/* ------------------------------------------------------------------ */

/* Transcribed from _pyengine.Resource: every step that is a heap entry
 * there (deferred request, posted grant, hold, posted completion) is
 * one typed heap entry here, pushed at the same point, so the
 * tie-break counter and same-instant order agree across tiers.  The
 * difference is who runs the steps: here the dispatch loop does, and
 * Python is entered only for an on_release hook or for callbacks
 * waiting on the completion event. */

static int
waitq_push(WaitQ *q, PyObject *item)
{
    if (q->len == q->cap) {
        Py_ssize_t ncap = q->cap ? q->cap * 2 : 8;
        PyObject **nbuf = PyMem_Malloc((size_t)ncap * sizeof(PyObject *));
        if (!nbuf) { PyErr_NoMemory(); return -1; }
        for (Py_ssize_t i = 0; i < q->len; i++)
            nbuf[i] = q->buf[(q->head + i) & (q->cap - 1)];
        PyMem_Free(q->buf);
        q->buf = nbuf;
        q->head = 0;
        q->cap = ncap;
    }
    q->buf[(q->head + q->len++) & (q->cap - 1)] = Py_NewRef(item);
    return 0;
}

/* Pop the oldest waiter; returns an owned reference.  len must be > 0. */
static PyObject *
waitq_pop(WaitQ *q)
{
    PyObject *item = q->buf[q->head];
    q->head = (q->head + 1) & (q->cap - 1);
    q->len--;
    return item;
}

static int
res_ready(ResourceObject *r)
{
    if (!r->sim) {
        PyErr_SetString(PyExc_RuntimeError,
                        "Resource.__init__ was not called");
        return -1;
    }
    return 0;
}

static void
res_account(ResourceObject *r)
{
    double now = ((SimObject *)r->sim)->now;
    r->busy_time += (double)r->in_use * (now - r->last_change);
    r->last_change = now;
}

static void
res_take_slot(ResourceObject *r)
{
    res_account(r);
    r->in_use++;
}

static long
res_qdepth(ResourceObject *r)
{
    return (long)(r->q[0].len + r->q[1].len) + r->in_use + 1;
}

/* release(): hand the slot to the next live waiter (urgent first) —
 * one heap entry, the posted grant — or return it to the pool. */
static int
res_release(ResourceObject *r)
{
    SimObject *sim = (SimObject *)r->sim;
    if (r->in_use <= 0) {
        PyErr_Format(SimError, "release of idle resource %R", r->name);
        return -1;
    }
    for (int lvl = 0; lvl < 2; lvl++) {
        WaitQ *q = &r->q[lvl];
        while (q->len) {
            PyObject *w = waitq_pop(q);
            int st;
            if (Py_IS_TYPE(w, &OccType))
                st = heap_push(sim, sim->now, w, K_OCC_GRANT);
            else if (((EventObject *)w)->value != Pending) {
                Py_DECREF(w);  /* cancelled waiter: skip */
                continue;
            }
            else
                st = event_complete((EventObject *)w, (PyObject *)r, 1);
            Py_DECREF(w);
            return st;
        }
    }
    res_account(r);
    r->in_use--;
    return 0;
}

/* Start one hold of occ->seconds: grant (or enqueue) synchronously at
 * a quiet instant; at a busy one request one dispatch later, grant one
 * more — the depths the request/timeout/release process used. */
static int
occ_start(SimObject *sim, OccObject *occ)
{
    ResourceObject *res = occ->res;
    occ->t_req = sim->now;
    if (sim->hlen == 0 || sim->ht[0] > sim->now) {
        occ->qdepth = res_qdepth(res);
        if (res->in_use < res->capacity) {
            res_take_slot(res);
            occ->t_grant = sim->now;
            return heap_push(sim, sim->now + occ->seconds, (PyObject *)occ,
                             K_OCC_HOLD);
        }
        return waitq_push(&res->q[occ->level], (PyObject *)occ);
    }
    sim->n_fallback += 1;
    return heap_push(sim, sim->now, (PyObject *)occ, K_OCC_REQ);
}

/* Start the next segment of an occupy_quanta(): the body of the loop it
 * replaces, in the same double arithmetic, reading the speed now. */
static int
occ_start_quantum(SimObject *sim, OccObject *occ)
{
    double step = occ->remaining <= occ->quantum ? occ->remaining
                                                 : occ->quantum;
    double sp = 1.0;
    if (occ->speeds) {
        PyObject *v = PySequence_GetItem(occ->speeds, occ->index);
        if (!v)
            return -1;
        sp = PyFloat_AsDouble(v);
        Py_DECREF(v);
        if (sp == -1.0 && PyErr_Occurred())
            return -1;
    }
    if (sp == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    double cost = sp == 1.0 ? step : step / sp;
    if (!(cost >= 0)) {
        PyObject *c = PyFloat_FromDouble(cost);
        if (c) {
            PyErr_Format(SimError, "negative occupy time: %R", c);
            Py_DECREF(c);
        }
        return -1;
    }
    occ->seconds = cost;
    occ->remaining -= step;
    return occ_start(sim, occ);
}

/* One step of an occupancy popped off the heap. */
static int
occ_dispatch(SimObject *sim, OccObject *occ, int kind)
{
    ResourceObject *res = occ->res;
    if (kind == K_OCC_NEXT)
        return occ_start_quantum(sim, occ);
    if (kind == K_OCC_REQ) {
        occ->qdepth = res_qdepth(res);
        if (res->in_use < res->capacity) {
            res_take_slot(res);
            return heap_push(sim, sim->now, (PyObject *)occ, K_OCC_GRANT);
        }
        return waitq_push(&res->q[occ->level], (PyObject *)occ);
    }
    if (kind == K_OCC_GRANT) {
        occ->t_grant = sim->now;
        return heap_push(sim, sim->now + occ->seconds, (PyObject *)occ,
                         K_OCC_HOLD);
    }
    /* K_OCC_HOLD */
    if (res_release(res) < 0)
        return -1;
    if (occ->on_release) {
        PyObject *r = PyObject_CallFunction(occ->on_release, "ddl",
                                            occ->t_req, occ->t_grant,
                                            occ->qdepth);
        if (!r)
            return -1;
        Py_DECREF(r);
    }
    int quiet = sim->hlen == 0 || sim->ht[0] > sim->now;
    if (occ->remaining > 0) {
        /* occupy_quanta between segments: where the loop's process
         * resumed, start the next one inline or post it. */
        if (!quiet)
            return heap_push(sim, sim->now, (PyObject *)occ, K_OCC_NEXT);
        sim->n_fast += 1;
        return occ_start_quantum(sim, occ);
    }
    Py_CLEAR(occ->res);
    Py_CLEAR(occ->on_release);
    Py_CLEAR(occ->speeds);
    if (quiet)
        return event_fire(&occ->ev, Py_None);  /* complete inline */
    return event_complete(&occ->ev, Py_None, 1);
}

/* Fill out[0..nnames) from positional then keyword arguments of a
 * METH_FASTCALL|METH_KEYWORDS call; absent optionals stay NULL. */
static int
parse_fastcall(const char *fname, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames, const char *const *names, int nnames,
               int nrequired, PyObject **out)
{
    if (nargs > nnames) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most %d arguments (%zd given)",
                     fname, nnames, nargs);
        return -1;
    }
    for (int i = 0; i < nnames; i++)
        out[i] = i < nargs ? args[i] : NULL;
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *nm = PyTuple_GET_ITEM(kwnames, k);
        int i = 0;
        while (i < nnames && PyUnicode_CompareWithASCIIString(nm, names[i]))
            i++;
        if (i == nnames) {
            PyErr_Format(PyExc_TypeError,
                         "%s() got an unexpected keyword argument %R",
                         fname, nm);
            return -1;
        }
        if (out[i]) {
            PyErr_Format(PyExc_TypeError,
                         "%s() got multiple values for argument %R",
                         fname, nm);
            return -1;
        }
        out[i] = args[nargs + k];
    }
    for (int i = 0; i < nrequired; i++) {
        if (!out[i]) {
            PyErr_Format(PyExc_TypeError,
                         "%s() missing required argument '%s'",
                         fname, names[i]);
            return -1;
        }
    }
    return 0;
}

/* Priority argument -> queue index (0 urgent, 1 background), -1 on error. */
static int
priority_level(PyObject *priority)
{
    if (!priority)
        return 0;
    long p = PyLong_AsLong(priority);
    if (p == -1 && PyErr_Occurred())
        return -1;
    return p <= 0 ? 0 : 1;
}

static int
Resource_init(ResourceObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *name = NULL;
    long capacity = 1;
    static char *kwlist[] = {"sim", "capacity", "name", NULL};
    if (check_ready() < 0)
        return -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!|lO", kwlist,
                                     &SimType, &sim, &capacity, &name))
        return -1;
    if (capacity < 1) {
        PyErr_Format(SimError, "resource capacity must be >= 1: %ld",
                     capacity);
        return -1;
    }
    Py_XSETREF(self->sim, Py_NewRef(sim));
    if (name)
        Py_XSETREF(self->name, Py_NewRef(name));
    else {
        PyObject *empty = PyUnicode_FromString("");
        if (!empty)
            return -1;
        Py_XSETREF(self->name, empty);
    }
    self->capacity = capacity;
    self->in_use = 0;
    self->busy_time = self->last_change = 0.0;
    return 0;
}

static int
Resource_traverse(ResourceObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->name);
    for (int lvl = 0; lvl < 2; lvl++) {
        WaitQ *q = &self->q[lvl];
        for (Py_ssize_t i = 0; i < q->len; i++)
            Py_VISIT(q->buf[(q->head + i) & (q->cap - 1)]);
    }
    return 0;
}

static int
Resource_clear(ResourceObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->name);
    for (int lvl = 0; lvl < 2; lvl++) {
        WaitQ *q = &self->q[lvl];
        while (q->len) {
            PyObject *w = waitq_pop(q);
            Py_DECREF(w);
        }
    }
    return 0;
}

static void
Resource_dealloc(ResourceObject *self)
{
    PyObject_GC_UnTrack(self);
    Resource_clear(self);
    PyMem_Free(self->q[0].buf);
    PyMem_Free(self->q[1].buf);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Resource_request(ResourceObject *self, PyObject *const *args,
                 Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"priority"};
    PyObject *a[1];
    if (res_ready(self) < 0 ||
        parse_fastcall("request", args, nargs, kwnames, names, 1, 0, a) < 0)
        return NULL;
    int lvl = priority_level(a[0]);
    if (lvl < 0)
        return NULL;
    EventObject *ev = event_new_bare(&EventType, (SimObject *)self->sim);
    if (!ev)
        return NULL;
    int st;
    if (self->in_use < self->capacity) {
        res_take_slot(self);
        st = event_complete(ev, (PyObject *)self, 1);
    }
    else
        st = waitq_push(&self->q[lvl], (PyObject *)ev);
    if (st < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

static PyObject *
Resource_release(ResourceObject *self, PyObject *noargs)
{
    if (res_ready(self) < 0 || res_release(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Resource_occupy(ResourceObject *self, PyObject *const *args,
                Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"seconds", "priority", "on_release"};
    PyObject *a[3];
    if (res_ready(self) < 0 ||
        parse_fastcall("occupy", args, nargs, kwnames, names, 3, 1, a) < 0)
        return NULL;
    double seconds = PyFloat_AsDouble(a[0]);
    if (seconds == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(seconds >= 0)) {
        PyErr_Format(SimError, "negative occupy time: %S", a[0]);
        return NULL;
    }
    int lvl = priority_level(a[1]);
    if (lvl < 0)
        return NULL;
    SimObject *sim = (SimObject *)self->sim;
    OccObject *occ = (OccObject *)event_new_bare(&OccType, sim);
    if (!occ)
        return NULL;
    occ->res = (ResourceObject *)Py_NewRef((PyObject *)self);
    if (a[2] && a[2] != Py_None)
        occ->on_release = Py_NewRef(a[2]);
    occ->seconds = seconds;
    occ->level = lvl;
    if (occ_start(sim, occ) < 0) {
        Py_DECREF(occ);
        return NULL;
    }
    return (PyObject *)occ;
}

static PyObject *
Resource_occupy_quanta(ResourceObject *self, PyObject *const *args,
                       Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"seconds", "quantum", "priority",
                                        "speeds", "index"};
    PyObject *a[5];
    if (res_ready(self) < 0 ||
        parse_fastcall("occupy_quanta", args, nargs, kwnames, names, 5, 2,
                       a) < 0)
        return NULL;
    double seconds = PyFloat_AsDouble(a[0]);
    if (seconds == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(seconds >= 0 && seconds < Py_HUGE_VAL)) {
        PyErr_Format(SimError, "occupy_quanta time must be finite and "
                     "non-negative: %S", a[0]);
        return NULL;
    }
    double quantum = PyFloat_AsDouble(a[1]);
    if (quantum == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(quantum > 0)) {
        PyErr_Format(SimError, "occupy_quanta quantum must be > 0: %S", a[1]);
        return NULL;
    }
    int lvl = a[2] ? priority_level(a[2]) : 1;
    if (lvl < 0)
        return NULL;
    Py_ssize_t index = 0;
    if (a[4]) {
        index = PyNumber_AsSsize_t(a[4], PyExc_IndexError);
        if (index == -1 && PyErr_Occurred())
            return NULL;
    }
    SimObject *sim = (SimObject *)self->sim;
    OccObject *occ = (OccObject *)event_new_bare(&OccType, sim);
    if (!occ)
        return NULL;
    occ->res = (ResourceObject *)Py_NewRef((PyObject *)self);
    if (a[3] && a[3] != Py_None)
        occ->speeds = Py_NewRef(a[3]);
    occ->remaining = seconds;
    occ->quantum = quantum;
    occ->index = index;
    occ->level = lvl;
    if (occ_start_quantum(sim, occ) < 0) {
        Py_DECREF(occ);
        return NULL;
    }
    return (PyObject *)occ;
}

static PyObject *
Resource_busy_time(ResourceObject *self, PyObject *noargs)
{
    if (res_ready(self) < 0)
        return NULL;
    res_account(self);
    return PyFloat_FromDouble(self->busy_time);
}

static PyObject *
Resource_get_in_use(ResourceObject *self, void *closure)
{
    return PyLong_FromLong(self->in_use);
}

static PyObject *
Resource_get_queue_length(ResourceObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->q[0].len + self->q[1].len);
}

static PyMethodDef Resource_methods[] = {
    {"request", (PyCFunction)(void (*)(void))Resource_request,
     METH_FASTCALL | METH_KEYWORDS,
     "Ask for one slot; the returned event fires when granted."},
    {"release", (PyCFunction)Resource_release, METH_NOARGS,
     "Return a slot; the next waiter (urgent first) is granted."},
    {"occupy", (PyCFunction)(void (*)(void))Resource_occupy,
     METH_FASTCALL | METH_KEYWORDS,
     "One-shot request/hold/release; returns the completion event."},
    {"occupy_quanta", (PyCFunction)(void (*)(void))Resource_occupy_quanta,
     METH_FASTCALL | METH_KEYWORDS,
     "seconds of work held in quantum-sized segments; returns the "
     "completion event of the last one."},
    {"busy_time", (PyCFunction)Resource_busy_time, METH_NOARGS,
     "Integral of in-use servers over time."},
    {NULL}
};

static PyGetSetDef Resource_getset[] = {
    {"in_use", (getter)Resource_get_in_use, NULL, NULL, NULL},
    {"queue_length", (getter)Resource_get_queue_length, NULL, NULL, NULL},
    {NULL}
};

static PyMemberDef Resource_members[] = {
    {"sim", T_OBJECT, offsetof(ResourceObject, sim), READONLY, NULL},
    {"capacity", T_LONG, offsetof(ResourceObject, capacity), READONLY, NULL},
    {"name", T_OBJECT, offsetof(ResourceObject, name), READONLY, NULL},
    {NULL}
};

static PyTypeObject ResourceType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Resource",
    .tp_basicsize = sizeof(ResourceObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A counted resource with FIFO granting per priority level.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Resource_init,
    .tp_dealloc = (destructor)Resource_dealloc,
    .tp_traverse = (traverseproc)Resource_traverse,
    .tp_clear = (inquiry)Resource_clear,
    .tp_methods = Resource_methods,
    .tp_getset = Resource_getset,
    .tp_members = Resource_members,
};

static int
Occ_traverse(OccObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->res);
    Py_VISIT(self->on_release);
    Py_VISIT(self->speeds);
    return Event_traverse(&self->ev, visit, arg);
}

static int
Occ_clear(OccObject *self)
{
    Py_CLEAR(self->res);
    Py_CLEAR(self->on_release);
    Py_CLEAR(self->speeds);
    return Event_clear(&self->ev);
}

static void
Occ_dealloc(OccObject *self)
{
    PyObject_GC_UnTrack(self);
    Occ_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject OccType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Occupancy",
    .tp_basicsize = sizeof(OccObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Completion event of one Resource.occupy() call.",
    .tp_base = &EventType,
    .tp_dealloc = (destructor)Occ_dealloc,
    .tp_traverse = (traverseproc)Occ_traverse,
    .tp_clear = (inquiry)Occ_clear,
};

/* ------------------------------------------------------------------ */
/* Dispatch                                                            */
/* ------------------------------------------------------------------ */

/* Run one popped heap item.  Steals nothing (caller owns item). */
static int
dispatch_item(SimObject *sim, PyObject *item, int kind)
{
    if (kind == K_CALL) {
        PyObject *r = PyObject_CallNoArgs(item);
        if (!r)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    if (kind == K_START)
        return process_step((ProcessObject *)item, Py_None, 1);
    if (kind != K_EVENT)
        return occ_dispatch(sim, (OccObject *)item, kind);
    EventObject *ev = (EventObject *)item;
    if (ev->value == Pending)  /* a timeout: fires with None */
        Py_SETREF(ev->value, Py_NewRef(Py_None));
    return event_run_callbacks(ev);
}

/* ------------------------------------------------------------------ */
/* Simulator                                                           */
/* ------------------------------------------------------------------ */

static int
Sim_init(SimObject *self, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Simulator() takes no arguments");
        return -1;
    }
    self->now = 0.0;
    self->seq = 0;
    self->n_spawned = self->n_fast = self->n_fallback = 0;
    self->running = 0;
    Py_CLEAR(self->obs);
    for (Py_ssize_t i = 0; i < self->hlen; i++)
        Py_DECREF(self->hitem[i]);
    self->hlen = 0;
    return 0;
}

static int
Sim_traverse(SimObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->obs);
    for (Py_ssize_t i = 0; i < self->hlen; i++)
        Py_VISIT(self->hitem[i]);
    return 0;
}

static int
Sim_clear(SimObject *self)
{
    Py_CLEAR(self->obs);
    Py_ssize_t n = self->hlen;
    self->hlen = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->hitem[i]);
    return 0;
}

static void
Sim_dealloc(SimObject *self)
{
    PyObject_GC_UnTrack(self);
    Sim_clear(self);
    PyMem_Free(self->ht);
    PyMem_Free(self->hseq);
    PyMem_Free(self->hitem);
    PyMem_Free(self->hkind);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* timeout(delay): a pending event on the heap `delay` seconds out; the
 * dispatch loop fires it with None.  The hottest boxed allocation. */
static PyObject *
Sim_timeout(SimObject *self, PyObject *dobj)
{
    double delay = PyFloat_AsDouble(dobj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(delay >= 0)) {
        PyErr_Format(SimError, "negative timeout delay: %S", dobj);
        return NULL;
    }
    if (check_ready() < 0)
        return NULL;
    EventObject *ev = event_new_bare(&EventType, self);
    if (!ev)
        return NULL;
    ev->scheduled = 1;
    if (heap_push(self, self->now + delay, (PyObject *)ev, K_EVENT) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

/* A fresh timeout with `cb` already on its callbacks (after, call_at). */
static PyObject *
sim_timeout_with(SimObject *self, PyObject *dobj, PyObject *cb)
{
    PyObject *ev = Sim_timeout(self, dobj);
    if (ev && PyList_Append(((EventObject *)ev)->callbacks, cb) < 0)
        Py_CLEAR(ev);
    return ev;
}

static PyObject *
Sim_after_call(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "after_call() takes exactly 2 arguments");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(delay >= 0)) {
        PyErr_Format(SimError, "negative after_call delay: %S", args[0]);
        return NULL;
    }
    if (heap_push(self, self->now + delay, args[1], K_CALL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Sim_after(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "after() takes exactly 2 arguments");
        return NULL;
    }
    return sim_timeout_with(self, args[0], args[1]);
}

static PyObject *
Sim_call_at(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "call_at() takes exactly 2 arguments");
        return NULL;
    }
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(when >= self->now)) {
        PyObject *nowobj = PyFloat_FromDouble(self->now);
        if (nowobj) {
            PyErr_Format(SimError, "call_at past time %S < now %S",
                         args[0], nowobj);
            Py_DECREF(nowobj);
        }
        return NULL;
    }
    PyObject *wrapper = PyObject_CallOneArg(DropArgHelper, args[1]);
    if (!wrapper)
        return NULL;
    PyObject *dobj = PyFloat_FromDouble(when - self->now);
    PyObject *ev = dobj ? sim_timeout_with(self, dobj, wrapper) : NULL;
    Py_XDECREF(dobj);
    Py_DECREF(wrapper);
    return ev;
}

static PyObject *
Sim_spawn(SimObject *self, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames)
{
    PyObject *name = NULL;
    if (kwnames) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *nm = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(nm, "name") == 0)
                name = args[nargs + i];
            else {
                PyErr_Format(PyExc_TypeError,
                             "spawn() got an unexpected keyword argument %R",
                             nm);
                return NULL;
            }
        }
    }
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "spawn() takes 1 or 2 positional arguments");
        return NULL;
    }
    if (nargs == 2)
        name = args[1];
    PyObject *proc;
    if (name)
        proc = PyObject_CallFunctionObjArgs((PyObject *)&ProcessType,
                                            (PyObject *)self, args[0], name,
                                            NULL);
    else
        proc = PyObject_CallFunctionObjArgs((PyObject *)&ProcessType,
                                            (PyObject *)self, args[0], NULL);
    if (!proc)
        return NULL;
    if (self->obs && self->obs != Py_None && SpawnObsHook) {
        PyObject *r = PyObject_CallFunctionObjArgs(SpawnObsHook,
                                                   (PyObject *)self, proc,
                                                   NULL);
        if (!r) { Py_DECREF(proc); return NULL; }
        Py_DECREF(r);
    }
    return proc;
}

static PyObject *
Sim_all_of(SimObject *self, PyObject *events)
{
    if (!AllOfCls) {
        PyErr_SetString(PyExc_RuntimeError, "_ccore helpers not initialized");
        return NULL;
    }
    return PyObject_CallFunctionObjArgs(AllOfCls, (PyObject *)self, events,
                                        NULL);
}

static PyObject *
Sim_idle_at_now(SimObject *self, PyObject *noargs)
{
    return PyBool_FromLong(self->hlen == 0 || self->ht[0] > self->now);
}

static PyObject *
Sim_next_time(SimObject *self, PyObject *noargs)
{
    if (self->hlen == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(self->ht[0]);
}

static PyObject *
Sim_stats(SimObject *self, PyObject *noargs)
{
    PyObject *d = PyDict_New();
    if (!d)
        return NULL;
    int bad = 0;
    PyObject *v;
#define SET(key, val) \
    do { \
        v = PyLong_FromLongLong(val); \
        if (!v || PyDict_SetItemString(d, key, v) < 0) bad = 1; \
        Py_XDECREF(v); \
    } while (0)
    SET("events_processed", self->seq - (long long)self->hlen);
    SET("spawns", self->n_spawned);
    SET("fast_completions", self->n_fast);
    SET("fallbacks", self->n_fallback);
#undef SET
    if (bad) { Py_DECREF(d); return NULL; }
    return d;
}

/* The one dispatch loop: drain the heap one instant at a time — the
 * clock store and the `until` horizon check happen once per instant,
 * then every entry scheduled for it is popped and dispatched.  With a
 * `stop` process the loop ends as soon as that process has finished,
 * so orphaned timers do not advance the clock further. */
static int
sim_drain(SimObject *self, int has_until, double until, ProcessObject *stop)
{
    if (self->running) {
        PyErr_SetString(SimError, "simulator is not reentrant");
        return -1;
    }
    self->running = 1;
    int err = 0;
#define STOPPED (stop && stop->ev.value != Pending)
    while (self->hlen && !STOPPED) {
        double when = self->ht[0];
        if (has_until && when > until) {
            self->now = until;
            break;
        }
        self->now = when;
        while (self->hlen && self->ht[0] == when && !STOPPED) {
            double t;
            int kind;
            PyObject *item = heap_pop(self, &t, &kind);
            err = dispatch_item(self, item, kind);
            Py_DECREF(item);
            if (err)
                goto done;
        }
    }
#undef STOPPED
done:
    self->running = 0;
    return err;
}

static PyObject *
Sim_run(SimObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *untilobj = Py_None;
    static char *kwlist[] = {"until", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &untilobj))
        return NULL;
    int has_until = untilobj != Py_None;
    double until = 0.0;
    if (has_until) {
        until = PyFloat_AsDouble(untilobj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (sim_drain(self, has_until, until, NULL) < 0)
        return NULL;
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Sim_run_process(SimObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *gen, *name = NULL;
    static char *kwlist[] = {"gen", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|U", kwlist, &gen, &name))
        return NULL;
    PyObject *sargs[2] = {gen, name};
    PyObject *procobj = Sim_spawn(self, sargs, name ? 2 : 1, NULL);
    if (!procobj)
        return NULL;
    ProcessObject *proc = (ProcessObject *)procobj;
    if (sim_drain(self, 0, 0.0, proc) < 0) {
        Py_DECREF(procobj);
        return NULL;
    }
    if (proc->ev.value == Pending) {
        PyObject *nowobj = PyFloat_FromDouble(self->now);
        if (nowobj) {
            PyErr_Format(SimError,
                         "deadlock: process %R never finished "
                         "(simulation ran dry at t=%S)",
                         proc->name, nowobj);
            Py_DECREF(nowobj);
        }
        Py_DECREF(procobj);
        return NULL;
    }
    if (!proc->ev.ok) {
        PyObject *exc = proc->ev.value;
        PyErr_SetObject(PyExceptionInstance_Class(exc), exc);
        Py_DECREF(procobj);
        return NULL;
    }
    PyObject *result = Py_NewRef(proc->ev.value);
    Py_DECREF(procobj);
    return result;
}

static PyMethodDef Sim_methods[] = {
    {"timeout", (PyCFunction)Sim_timeout, METH_O,
     "Return an event that fires with None after a fixed delay."},
    {"after_call", (PyCFunction)(void (*)(void))Sim_after_call, METH_FASTCALL,
     "Schedule bare fn() as a call slot, delay seconds out."},
    {"after", (PyCFunction)(void (*)(void))Sim_after, METH_FASTCALL,
     "Schedule fn(event) to run delay seconds from now."},
    {"call_at", (PyCFunction)(void (*)(void))Sim_call_at, METH_FASTCALL,
     "Run fn at absolute virtual time when (>= now)."},
    {"spawn", (PyCFunction)(void (*)(void))Sim_spawn,
     METH_FASTCALL | METH_KEYWORDS,
     "Start a new simulation process from a generator."},
    {"all_of", (PyCFunction)Sim_all_of, METH_O,
     "An event that fires when all the given events have fired."},
    {"next_time", (PyCFunction)Sim_next_time, METH_NOARGS,
     PyDoc_STR("Time of the earliest scheduled entry, or None.")},
    {"idle_at_now", (PyCFunction)Sim_idle_at_now, METH_NOARGS,
     "True when nothing further is scheduled at the current instant."},
    {"stats", (PyCFunction)Sim_stats, METH_NOARGS,
     "Dispatch and fast-path counters."},
    {"run", (PyCFunction)(void (*)(void))Sim_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run until the heap is empty or virtual time passes `until`."},
    {"run_process", (PyCFunction)(void (*)(void))Sim_run_process,
     METH_VARARGS | METH_KEYWORDS,
     "Spawn gen, run to completion, and return its value."},
    {NULL}
};

static PyMemberDef Sim_members[] = {
    {"now", T_DOUBLE, offsetof(SimObject, now), 0, NULL},
    {"obs", T_OBJECT, offsetof(SimObject, obs), 0, NULL},
    {"_seq", T_LONGLONG, offsetof(SimObject, seq), READONLY, NULL},
    {"_n_spawned", T_LONGLONG, offsetof(SimObject, n_spawned), 0, NULL},
    {NULL}
};

static PyTypeObject SimType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Simulator",
    .tp_basicsize = sizeof(SimObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The event loop over the struct-of-arrays slot store.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Sim_init,
    .tp_dealloc = (destructor)Sim_dealloc,
    .tp_traverse = (traverseproc)Sim_traverse,
    .tp_clear = (inquiry)Sim_clear,
    .tp_methods = Sim_methods,
    .tp_members = Sim_members,
};

/* ------------------------------------------------------------------ */
/* Module functions                                                    */
/* ------------------------------------------------------------------ */

static PyObject *
mod_fire(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "fire() takes 1 or 2 arguments");
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &EventType)) {
        PyErr_SetString(PyExc_TypeError, "fire() expects an Event");
        return NULL;
    }
    if (event_fire((EventObject *)args[0], nargs == 2 ? args[1] : Py_None) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
mod_set_helpers(PyObject *mod, PyObject *args, PyObject *kwds)
{
    PyObject *pending, *simerror, *allof, *spawn_obs, *drop_arg;
    static char *kwlist[] = {"pending", "simerror", "allof", "spawn_obs",
                             "drop_arg", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOO", kwlist,
                                     &pending, &simerror, &allof,
                                     &spawn_obs, &drop_arg))
        return NULL;
    Py_XSETREF(Pending, Py_NewRef(pending));
    Py_XSETREF(SimError, Py_NewRef(simerror));
    Py_XSETREF(AllOfCls, Py_NewRef(allof));
    Py_XSETREF(SpawnObsHook, Py_NewRef(spawn_obs));
    Py_XSETREF(DropArgHelper, Py_NewRef(drop_arg));
    Py_RETURN_NONE;
}

/* SOR's red/black half-sweep (apps/sor/grid.py:sweep_phase_reference is
 * the reference and documents the layout).  Every float32 step rounds as
 * numpy's does there — ((up + down) + left) + right, * scale, keep * x,
 * + nb, |upd - x| — which needs -ffp-contract=off (_build.py): a fused
 * keep * x + nb would round once.  Like the reference's two stride-2
 * slices, each row class keeps its own maximum and a class whose maximum
 * is NaN contributes nothing. */
static PyObject *
mod_sweep_phase(PyObject *mod, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"padded", "parity", "omega", "row0", NULL};
    PyObject *padded;
    long long parity, row0;
    double omega;
    Py_buffer view;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OLdL", kwlist,
                                     &padded, &parity, &omega, &row0))
        return NULL;
    int ok = PyObject_GetBuffer(padded, &view, PyBUF_WRITABLE | PyBUF_FORMAT |
                                                   PyBUF_C_CONTIGUOUS) == 0;
    if (ok) {
        const char *fmt = view.format ? view.format : "B";
        if (*fmt == '@' || *fmt == '=')
            fmt++;
        ok = view.ndim == 2 && view.itemsize == sizeof(float) &&
             strcmp(fmt, "f") == 0;
        if (!ok)
            PyBuffer_Release(&view);
    }
    if (!ok) {
        PyErr_SetString(PyExc_TypeError,
                        "sweep_phase() needs a writable C-contiguous 2-D "
                        "float32 buffer");
        return NULL;
    }
    const Py_ssize_t m = view.shape[0] - 2, cols = view.shape[1];
    const float scale = (float)omega * 0.25f, keep = 1.0f - (float)omega;
    const int first = (int)((row0 & 1) + (parity & 1));
    float cls[2] = {0.0f, 0.0f};
    for (Py_ssize_t i = 1; i <= m; i++) {
        float *x = (float *)view.buf + i * cols;
        const float *up = x - cols, *down = x + cols;
        float big = cls[(i - 1) & 1], sum = 0.0f;
        for (Py_ssize_t j = 1 + ((first + i) & 1); j < cols - 1; j += 2) {
            float nb = ((up[j] + down[j]) + x[j - 1]) + x[j + 1];
            nb *= scale;
            float upd = keep * x[j];
            upd += nb;
            float d = fabsf(upd - x[j]);
            if (d > big)
                big = d;
            sum += d;
            x[j] = upd;
        }
        /* ndarray.max() is NaN if any element is, and a sum of
         * non-negative terms is NaN exactly then; testing d itself in
         * the loop costs a fifth of the kernel. */
        cls[(i - 1) & 1] = sum != sum ? sum : big;
    }
    PyBuffer_Release(&view);
    float maxdiff = 0.0f;
    for (int r = 0; r < 2; r++)
        if (cls[r] > maxdiff)
            maxdiff = cls[r];
    return PyFloat_FromDouble((double)maxdiff);
}

static PyMethodDef mod_methods[] = {
    {"fire", (PyCFunction)(void (*)(void))mod_fire, METH_FASTCALL,
     "Trigger an event and run its callbacks inline, bypassing the heap."},
    {"sweep_phase", (PyCFunction)(void (*)(void))mod_sweep_phase,
     METH_VARARGS | METH_KEYWORDS,
     "sweep_phase(padded, parity, omega, row0): one red/black SOR "
     "half-sweep in place; returns the max absolute change."},
    {"_set_helpers", (PyCFunction)(void (*)(void))mod_set_helpers,
     METH_VARARGS | METH_KEYWORDS,
     "Inject the shared sentinel, exception types, and Python helpers."},
    {NULL}
};

static struct PyModuleDef ccoremodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ccore",
    .m_doc = "Compiled tier of the discrete-event core (see engine.py).",
    .m_size = -1,
    .m_methods = mod_methods,
};

PyMODINIT_FUNC
PyInit__ccore(void)
{
    str_send = PyUnicode_InternFromString("send");
    str_throw = PyUnicode_InternFromString("throw");
    str_value = PyUnicode_InternFromString("value");
    str_dunder_name = PyUnicode_InternFromString("__name__");
    if (!str_send || !str_throw || !str_value || !str_dunder_name)
        return NULL;
    if (PyType_Ready(&SimType) < 0 || PyType_Ready(&EventType) < 0 ||
        PyType_Ready(&ProcessType) < 0 || PyType_Ready(&ResourceType) < 0 ||
        PyType_Ready(&OccType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&ccoremodule);
    if (!m)
        return NULL;
    if (PyModule_AddObjectRef(m, "Simulator", (PyObject *)&SimType) < 0 ||
        PyModule_AddObjectRef(m, "Event", (PyObject *)&EventType) < 0 ||
        PyModule_AddObjectRef(m, "Process", (PyObject *)&ProcessType) < 0 ||
        PyModule_AddObjectRef(m, "Resource", (PyObject *)&ResourceType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
