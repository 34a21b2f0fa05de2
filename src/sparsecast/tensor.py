"""Dense float64 tensor engine with taped reverse-mode gradients.

Every operation evaluates eagerly with numpy.  When gradients are enabled
and at least one input requires them, the operation also records a graph
node on its output: a ``_Node`` holding the output's gradient buffer, the
nodes of the inputs that require gradients, the output shape and a
backward closure.  The closure captures those parent nodes plus exactly
the arrays its own gradient formula reads (a linear map keeps its
operands, a ReLU a boolean mask, dropout its boolean mask, an add
nothing), never the input tensors, so the tape holds only what backward
reads: an output that no formula reads is freed as soon as the caller
drops it.  Attention, dense or sparse (a selection mask picks the rows
that attend; the rest get a lazy fill), is one node from the full-width
projections to the merged heads that keeps q, k, v and two numbers per
attended row, not its weights: its backward recomputes them a block of
rows at a time, so no array of score size outlives the forward.  A leaf
(a tensor that requires gradients but was not made by a recorded
operation, such as a parameter) is its own node.  Under ``no_grad``, or
when every input is a constant, an operation records nothing and builds
no closure.

Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates ``grad`` buffers on every
reachable leaf.  The walk consumes the tape: once a node has passed its
gradient on, its gradient, closure and parent links are dropped, so the
saved arrays are freed as the walk passes them and a second
``backward()`` through the same graph raises ``RuntimeError``.

One window is an (L, C) array; axes before those two are window axes, and
every op runs forward and backward over them.  Every backward adds its
gradients in one place, ``_accum``, which hands a gradient of its input's
shape on as it is.  Of any other gradient, the axes before its last two
that the input lacks are window axes: each window's share is summed down
to the input's shape as that window's own op sums it, and the shares are
added one at a time in window order, never summed over the window axis.
So a stacked backward gives each window the bits of its own, and an input
that the windows share (a parameter) gets one term per window.

Tensors are value-semantic (no operation mutates an input array), so a
frozen parameter set can be read from multiple threads; gradient buffers
belong to a single training loop at a time.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

_GRAD_ENABLED = ContextVar("sparsecast_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable backward-closure recording inside the context.

    The switch is per thread and per context, so one thread's ``no_grad``
    never turns recording off, or back on, for another."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class _Node:
    """One recorded operation: its output's gradient buffer and shape, the
    nodes of its inputs that require gradients, and its backward closure.

    ``_parents`` and ``_backward`` carry the names ``Tensor`` exposes, so a
    walk reads op nodes and leaves alike."""

    __slots__ = ("grad", "shape", "_parents", "_backward")

    def __init__(self, shape, parents, backward):
        self.grad = None
        self.shape = shape
        self._parents = parents
        self._backward = backward


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer.

    A leaf keeps its gradient in ``grad``; the output of a recorded
    operation keeps it on its ``_node``, until backward passes it on."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def _parents(self):
        """Parent nodes of the operation that made this tensor; () for a leaf."""
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        """Backward closure of the operation that made this tensor; None for
        a leaf."""
        return None if self._node is None else self._node._backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def zero_grad(self):
        """Zero the gradient buffer in place, allocating it only if missing."""
        if self.grad is None or self.grad.shape != self.data.shape:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def backward(self):
        """Reverse-mode pass seeded at this scalar; consumes the tape."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        root = self if self._node is None else self._node
        if root is self and not self.requires_grad:
            return  # a constant: no graph, no gradient
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                raise RuntimeError(_CONSUMED)
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        _accum(root, np.ones(self.data.shape), fresh=True)
        # Popping drops the list's reference, so each node's saved arrays die
        # as soon as its gradient has been passed on.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()

    # arithmetic sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(_coerce(other), -1.0))

    def __getitem__(self, key):
        return _getitem(self, key)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


_CONSUMED = ("backward() through a consumed tape: an earlier backward() already "
             "freed this graph; recompute the forward pass")


def _consumed(g):
    """Backward closure of a node whose tape a ``backward()`` already walked."""
    raise RuntimeError(_CONSUMED)


def _inputs(*tensors):
    """The graph nodes of an operation's inputs (None for a constant), or
    None when the operation records nothing: gradients are disabled, or
    every input is a constant."""
    if not _GRAD_ENABLED.get():
        return None
    nodes = tuple([t._node or (t if t.requires_grad else None) for t in tensors])
    return None if nodes.count(None) == len(nodes) else nodes


def _make(data, nodes, backward) -> Tensor:
    """Wrap an operation's output and record its node; ``nodes`` come from
    ``_inputs``."""
    out = Tensor(data)
    out.requires_grad = True
    parents = tuple([n for n in nodes if n is not None]) if None in nodes else nodes
    out._node = _Node(out.data.shape, parents, backward)
    return out


def _accum(node, g, fresh: bool = False):
    """Add ``g`` into the gradient buffer of ``node`` (an op node or a leaf),
    summed down to the node's shape by the window rule of the module
    docstring.

    A ``fresh`` ``g`` is one the caller has just computed and hands over, so
    a first gradient adopts it, when it is a C-contiguous array, instead of
    copying it.  Any other first gradient is copied into a new C-ordered
    buffer: ``g`` may be shared with another parent (add) or be a read-only
    broadcast view (the share of the layer norm's mean).
    """
    shape = node.shape
    if g.shape != shape:
        windows = max(0, g.ndim - max(len(shape), 2))
        while g.ndim > windows + len(shape):
            g = g.sum(axis=windows)
        for ax, s in enumerate(shape, windows):
            if s == 1 and g.shape[ax] != 1:
                g = g.sum(axis=ax, keepdims=True)
        if windows:
            for share in g.reshape((-1,) + shape):
                _accum(node, share)
            return
    if node.grad is None:
        if fresh and isinstance(g, np.ndarray) and g.flags.c_contiguous:
            node.grad = g
        else:
            node.grad = np.empty(shape)
            np.copyto(node.grad, g)
    else:
        node.grad += g


# -- elementwise ------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data + b.data
    nodes = _inputs(a, b)
    if nodes is None:
        return Tensor(out)
    na, nb = nodes

    def bw(g):
        # g is this node's own buffer, dropped after this call: the first
        # parent may keep it, the second reads it before anything writes it.
        if na is not None:
            _accum(na, g, fresh=True)
        if nb is not None:
            _accum(nb, g)

    return _make(out, nodes, bw)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data
    nodes = _inputs(a, b)
    if nodes is None:
        return Tensor(out)
    na, nb = nodes
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def bw(g):
        if na is not None:
            _accum(na, g * b_data, fresh=True)
        if nb is not None:
            _accum(nb, g * a_data, fresh=True)

    return _make(out, nodes, bw)


def relu(a) -> Tensor:
    a = _coerce(a)
    out = np.maximum(a.data, 0.0)
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes
    positive = a.data > 0.0

    def bw(g):
        _accum(na, g * positive, fresh=True)

    return _make(out, nodes, bw)


def elu(a) -> Tensor:
    a = _coerce(a)
    # expm1(min(a, 0)) is 0 where a > 0 and at least a where a <= 0, so the
    # max with a picks a or expm1(a) in one buffer
    out = np.minimum(a.data, 0.0)
    np.expm1(out, out=out)
    np.maximum(a.data, out, out=out)
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes

    def bw(g):
        # out > 0 exactly where a > 0, since expm1 of a non-positive a is not
        # positive, so the tape keeps only the output: the slope is
        # min(out + 1, 1)
        d = out + 1.0
        np.minimum(d, 1.0, out=d)
        d *= g
        _accum(na, d, fresh=True)

    return _make(out, nodes, bw)


def dropout(a: Tensor, p: float, kept: np.ndarray) -> Tensor:
    """Inverted dropout with the boolean keep mask ``kept``, of ``a``'s
    shape: a kept entry is scaled by 1 / (1 - p), the others become zero.
    The tape keeps the mask and rebuilds the scaled mask from it."""
    if p <= 0.0:
        return a
    out = a.data * (kept / (1.0 - p))
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes

    def bw(g):
        _accum(na, g * (kept / (1.0 - p)), fresh=True)

    return _make(out, nodes, bw)


# -- linear algebra ---------------------------------------------------


def linear(x, w, b=None) -> Tensor:
    """``x @ w + b`` as one node: ``x`` is (..., L, d_in), ``w`` (d_in, d_out)
    and the optional bias ``b`` (d_out,).  Leading window axes make numpy's
    stacked product, one GEMM per window, so each window gets the bits of
    its own (L, d_in) product.  Backward hands ``_accum`` the stacked
    products x^T g as the weight's terms and g itself as the bias's."""
    x, w = _coerce(x), _coerce(w)
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data
    if b is None:
        nodes = _inputs(x, w)
    else:
        b = _coerce(b)
        out += b.data
        nodes = _inputs(x, w, b)
    if nodes is None:
        return Tensor(out)
    nx, nw = nodes[:2]
    nb = nodes[2] if len(nodes) == 3 else None
    x_data = x.data if nw is not None else None
    w_data = w.data if nx is not None else None

    def bw(g):
        if nx is not None:
            _accum(nx, g @ w_data.T, fresh=True)
        if nw is not None:
            _accum(nw, np.matmul(np.swapaxes(x_data, -1, -2), g), fresh=True)
        if nb is not None:
            _accum(nb, g, fresh=True)

    return _make(out, nodes, bw)


# -- reductions and rearrangement -------------------------------------


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes
    shape = a.data.shape

    def bw(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(gg, shape).copy(), fresh=True)

    return _make(out, nodes, bw)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes
    shape = a.data.shape
    count = a.data.size if axis is None else int(np.prod(np.take(shape, axis)))

    def bw(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(gg / count, shape).copy(), fresh=True)

    return _make(out, nodes, bw)


def _getitem(a: Tensor, key) -> Tensor:
    """``a[key]`` for any numpy key; an integer-array key may repeat
    entries, whose gradients add up."""
    out = a.data[key]
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes
    shape = a.data.shape

    def bw(g):
        full = np.zeros(shape)
        np.add.at(full, key, g)
        _accum(na, full, fresh=True)

    return _make(out, nodes, bw)


def head_view(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., L, H*d) -> (..., H, L, d), head h being columns h*d..(h+1)*d-1:
    a numpy view of ``a`` that records nothing."""
    if a.ndim < 2 or a.shape[-1] % n_heads:
        raise ValueError(f"head_view needs an (..., L, width) array whose width is divisible "
                         f"by {n_heads} heads, got shape {a.shape}")
    return a.reshape(a.shape[:-1] + (n_heads, a.shape[-1] // n_heads)).swapaxes(-3, -2)


def _merged(a: np.ndarray) -> np.ndarray:
    """(..., H, L, d) -> (..., L, H*d), the inverse of ``head_view``: a view
    when H == 1."""
    rows = a.swapaxes(-3, -2)
    *lead, L, H, d = rows.shape
    return rows.reshape(*lead, L, H * d)


# -- neural-network primitives -----------------------------------------

# Most elements of one block of query rows in the ``attention`` backward:
# 1 MiB of float64, so a block's weights and score gradient stay in cache.
_ATTENTION_BLOCK = 1 << 17


def _rows(pos: np.ndarray) -> tuple:
    """The index that takes rows ``pos`` (..., H, n) of an (..., H, L, d)
    array: an open mesh over the leading axes and heads, then ``pos``."""
    lead = pos.shape[:-1]
    return (*[np.arange(size).reshape((size,) + (1,) * (len(lead) - axis))
              for axis, size in enumerate(lead)], pos)


def _softmax_rows(q, k, scale, visible, row_max=None, row_sum=None):
    """``softmax(q k^T * scale)`` over the last axis, with the row max and
    row sum it divided by.

    ``visible`` (boolean, broadcastable to (..., n, m), or None for all)
    marks the keys each query row sees; the others get exact zeros.  Given
    the row statistics of an earlier call over these rows, it gives those
    rows the bits that call gave them.
    """
    w = (q * scale) @ np.swapaxes(k, -1, -2)
    if row_max is None:
        row_max = (w.max(axis=-1, keepdims=True) if visible is None else
                   w.max(axis=-1, keepdims=True, where=visible, initial=-np.inf))
    w -= row_max
    if visible is None:
        np.exp(w, out=w)
    else:  # exp of the visible entries only, then exact zeros for the rest
        np.exp(w, out=w, where=visible)
        np.copyto(w, 0.0, where=~visible)
    if row_sum is None:
        row_sum = w.sum(axis=-1, keepdims=True)
    w /= row_sum
    return w, row_max, row_sum


def attention(q, k, v, n_heads: int, scale: float, causal: bool = False,
              selected=None) -> Tensor:
    """``softmax(q k^T * scale) v`` on each of ``n_heads`` heads, as one
    node; ``causal`` lets row i see keys 0..i.  ``q`` is (..., L, H*d), ``k``
    (..., m, H*d) and ``v`` (..., m, H*d_v), and the output is
    (..., L, H*d_v): head h of each is the block of columns ``head_view``
    gives it.

    ``selected``, a boolean (..., H, L) mask, makes it sparse: every row it
    leaves out gets the column mean of its head of ``v``, or its inclusive
    prefix sum when ``causal`` (then m == L).  A stable argsort of the
    inverted mask picks the n rows each head attends: its selected rows
    ascending, then its first lazy rows as padding, whose output stays the
    fill and which get no gradient.  In a stack of windows n is the most
    any window's head selects.

    The forward makes the (..., H, n, m) weights in one buffer, with the scale
    folded into ``q`` and the softmax in place, and drops them after the
    product with ``v``.  The tape keeps the attended rows of ``q``, ``k``,
    ``v``, the rows' positions and the (..., H, n, 1) row max and row sum,
    nothing of score size.  Backward runs ``_attention_grads``, whose sums
    into dk and dv depend on where the row blocks start and end, so each
    window keeps the blocks, and the bits, of its own one-window backward:
    on the whole stack when every window attends as many rows as the stack
    does, as the non-causal selection's fixed n gives, and otherwise one
    window at a time on its own rows.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    q_data, k_data, v_data = (head_view(t.data, n_heads) for t in (q, k, v))
    q_shape, k_shape = q.data.shape, k.data.shape
    lead, L, m = q_shape[:-2], q_shape[-2], k_shape[-2]
    if q_shape[-1] != k_shape[-1] or v.data.shape[:-1] != k_shape[:-1] or k_shape[:-2] != lead:
        raise ValueError(f"attention needs one query and key dim and one key and value row "
                         f"count, got q {q_shape}, k {k_shape}, v {v.data.shape}")
    if selected is not None and (np.asarray(selected).dtype != bool
                                 or np.shape(selected) != lead + (n_heads, L)):
        raise ValueError(f"selected must be a boolean {lead + (n_heads, L)} mask for q "
                         f"{q.data.shape}, got {np.asarray(selected).dtype} of shape "
                         f"{np.shape(selected)}")
    real = counts = None
    if selected is None:
        pos = np.arange(L)
    else:
        counts = selected.sum(axis=-1, keepdims=True)
        pos = np.argsort(~selected, axis=-1, kind="stable")[..., :counts.max()]
        real = np.arange(pos.shape[-1]) < counts  # the selected rows among them
        q_data = q_data[_rows(pos)]
    visible = np.arange(m) <= pos[..., None] if causal else None
    w, row_max, row_sum = _softmax_rows(q_data, k_data, scale, visible)
    out = w @ v_data
    del w, visible  # the scores are freed before the fill is made
    if selected is not None:  # the lazy fill, then the selected rows over it
        attended = out
        out = (np.cumsum(v_data, axis=-2) if causal else
               np.repeat(v_data.mean(axis=-2, keepdims=True), L, axis=-2))
        out[selected] = attended[real]
    out = _merged(out)
    nodes = _inputs(q, k, v)
    if nodes is None:
        return Tensor(out)
    shapes = (q_shape, k_shape, v.data.shape)
    want = tuple(node is not None for node in nodes)
    # The windows of a stack run as one when each attends as many rows as
    # the stack does and all or none of them have lazy rows; else one by one.
    # Running as one saves a per-window loop: `smoke` trained about 9%
    # faster with it than window by window (README, "Training runs in chunks").
    whole = selected is None or not lead
    if not whole:
        every = selected.all(axis=(-2, -1))
        whole = bool((counts.max(axis=(-2, -1)) == pos.shape[-1]).all()
                     and (every.all() or not every.any()))

    def bw(g):
        g = np.ascontiguousarray(head_view(g, n_heads))  # one copy, read per block
        saved = (q_data, k_data, v_data, pos, real, row_max, row_sum)
        if whole:
            lazy = None if selected is None or selected.all() else ~selected
            grads = _attention_grads(g, *saved, lazy, scale, causal, want)
        else:
            grads = [np.empty(shape) if wanted else None for shape, wanted in zip(shapes, want)]
            for i in np.ndindex(lead):
                for buffer, grad in zip(grads, _attention_grads(
                        g[i], *_window_rows(i, saved, counts, selected), scale, causal, want)):
                    if buffer is not None:
                        buffer[i] = grad
        for node, grad in zip(nodes, grads):
            if node is not None:
                _accum(node, grad, fresh=True)

    return _make(out, nodes, bw)


def _window_rows(i, saved, counts, selected):
    """What a sparse ``attention`` saved for window ``i`` (an index over the
    window axes), with its attended rows cut to its own count n, as a
    one-window forward saves them; then the window's lazy rows, or None."""
    q, k, v, pos, real, row_max, row_sum = (a[i] for a in saved)
    n = counts[i].max()
    lazy = None if selected[i].all() else ~selected[i]
    return (q[..., :n, :], k, v, pos[..., :n], real[..., :n], row_max[..., :n, :],
            row_sum[..., :n, :], lazy)


def _attention_grads(g_out, q, k, v, pos, real, row_max, row_sum, lazy, scale, causal, want):
    """The merged (dq, dk, dv) of an ``attention`` node, each None where
    ``want`` says no, for one window or a stack of windows that attend
    equally many rows.  ``g_out`` is the (..., H, L, d_v) output gradient,
    ``q`` the attended rows ``pos`` (..., H, n) of the queries, ``real`` marks
    the selected ones among them (None: every row attends) and ``lazy`` the
    rows that got the fill (None: none).

    The rows are walked in blocks of at most ``_ATTENTION_BLOCK`` scores:
    each block's weights are recomputed from the row statistics and its
    share is added into dq, dk and dv; dq is placed by assignment, and dv
    also gets the fill's share.
    """
    n_heads, m = g_out.shape[-3], k.shape[-2]
    g = g_out
    if real is not None:  # the attended rows' gradient; padding rows get none
        rows = _rows(pos)
        g = g[rows] * real[..., None]
    want_q, want_k, want_v = want
    step = max(1, _ATTENTION_BLOCK // (m * n_heads))
    dq = np.empty(q.shape) if want_q else None
    dk_t = dv = None  # dk transposed, and dv: the first block writes them
    for start in range(0, pos.shape[-1], step):
        block = slice(start, start + step)
        q_b, g_b = q[..., block, :], g[..., block, :]
        w_b, _, _ = _softmax_rows(q_b, k, scale,
                                  np.arange(m) <= pos[..., block, None] if causal else None,
                                  row_max[..., block, :], row_sum[..., block, :])
        if want_v:
            part = np.swapaxes(w_b, -1, -2) @ g_b
            dv = part if dv is None else np.add(dv, part, out=dv)
        if not (want_q or want_k):
            continue
        # ds = (g v^T - rowsum(g v^T * w)) * w * scale, in one block buffer
        ds = g_b @ np.swapaxes(v, -1, -2)
        ds -= (ds * w_b).sum(axis=-1, keepdims=True)
        ds *= w_b
        ds *= scale
        if want_q:
            dq[..., block, :] = ds @ k
        if want_k:
            part = np.swapaxes(q_b, -1, -2) @ ds
            dk_t = part if dk_t is None else np.add(dk_t, part, out=dk_t)
    # Each merge below copies an array made in this call, or with H == 1 is
    # a view of it, so a parent may adopt it.
    if want_q:
        if real is not None:
            dq, attended = np.zeros(g_out.shape[:-1] + dq.shape[-1:]), dq
            dq[rows] = attended
        dq = _merged(dq)
    dk = _merged(np.swapaxes(dk_t, -1, -2)) if want_k else None
    if want_v:
        if lazy is not None:  # the fill's share: a suffix sum, or the mean's
            share = g_out * lazy[..., None]
            if causal:
                dv += np.flip(np.cumsum(np.flip(share, axis=-2), axis=-2), axis=-2)
            else:
                dv += share.sum(axis=-2, keepdims=True) / m
        dv = _merged(dv)
    return dq, dk, dv


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by ``gain`` and shift by
    ``bias`` (both (d,)), as one node.

    The forward is the chain mean, centre, variance, (var + eps)^-1/2,
    scale, shift, in that order.  The backward pass returns dx, dgain and
    dbias in closed form, summed in the order the reverse walk of that
    chain sums them, so both passes give the chain's bits.  The tape keeps
    the centred input, the per-row variance terms and the gain.
    """
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.data.shape[-1]
    # sum / d is how ndarray.mean computes, without its Python wrapper
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var_eps = (centered * centered).sum(axis=-1, keepdims=True) / d + eps
    inv = var_eps ** -0.5
    out = centered * inv * gain.data + bias.data
    nodes = _inputs(x, gain, bias)
    if nodes is None:
        return Tensor(out)
    nx, ng, nb = nodes
    gain_data = gain.data

    def bw(g):
        if nb is not None:
            _accum(nb, g)
        if ng is not None:
            _accum(ng, g * (centered * inv), fresh=True)
        if nx is not None:
            dxhat = g * gain_data
            d_var = (dxhat * centered).sum(axis=-1, keepdims=True) * -0.5 * var_eps ** -1.5
            d_sq = d_var / d
            dx = dxhat * inv
            dx += d_sq * centered  # the square's two operands, one at a time
            dx += d_sq * centered
            d_mean = dx.sum(axis=-1, keepdims=True) * -1.0 / d
            _accum(nx, dx, fresh=True)  # through the centring, then through the mean
            _accum(nx, np.broadcast_to(d_mean, dx.shape))

    return _make(out, nodes, bw)


def _conv_windows(xp: np.ndarray, l_out: int, k: int) -> np.ndarray:
    """(..., l_out, C_in*k) rows of the C-contiguous padded input ``xp``:
    row t is windows[..., t, c, i] = xp[..., t + i, c], flattened
    channel-major."""
    lead, c_in = xp.shape[:-2], xp.shape[-1]
    step, item = xp.strides[-2:]
    windows = np.ndarray(lead + (l_out, c_in, k), dtype=np.float64, buffer=xp,
                         strides=xp.strides[:-2] + (step, item, step))
    return windows.reshape(lead + (l_out, c_in * k))


def conv1d_time(x, kernel, padding: int, bias=None) -> Tensor:
    """Cross-correlation along the time axis with zero padding, plus an
    optional bias, as one node.

    ``x`` is (..., L, C_in), ``kernel`` is (C_out, C_in, k) with odd k and
    the optional ``bias`` (C_out,); the result is (..., L_out, C_out) with
    L_out = L + 2*padding - k + 1.  Each window's unrolled rows make their
    own GEMM, as in ``linear``.  The tape keeps the padded input for the
    kernel's gradient and the kernel for the input's; the bias's gradient
    is the output gradient summed over time.  The kernel and the bias get
    one term per window.
    """
    x, kernel = _coerce(x), _coerce(kernel)
    if x.data.ndim < 2 or kernel.data.ndim != 3:
        raise ValueError("conv1d_time expects x (..., L, C_in) and kernel (C_out, C_in, k)")
    lead, (L, c_in) = x.data.shape[:-2], x.data.shape[-2:]
    c_out, kc_in, k = kernel.data.shape
    if k % 2 != 1:
        raise ValueError(f"kernel width must be odd, got {k}")
    if padding < 0:
        raise ValueError("padding must be non-negative")
    if kc_in != c_in:
        raise ValueError(
            f"channel mismatch: x has shape {x.data.shape} (C_in={c_in}) "
            f"but kernel has shape {kernel.data.shape} (C_in={kc_in})"
        )
    l_out = L + 2 * padding - k + 1
    if l_out < 1:
        raise ValueError(f"sequence of length {L} too short for kernel {k} with padding {padding}")
    if padding:
        xp = np.zeros(lead + (L + 2 * padding, c_in))
        xp[..., padding : padding + L, :] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    flat_kernel = kernel.data.reshape(c_out, c_in * k)
    out = _conv_windows(xp, l_out, k) @ flat_kernel.T
    if bias is None:
        nodes = _inputs(x, kernel)
    else:
        bias = _coerce(bias)
        out += bias.data
        nodes = _inputs(x, kernel, bias)
    if nodes is None:
        return Tensor(out)
    nx, nk = nodes[:2]
    nb = nodes[2] if len(nodes) == 3 else None
    padded_shape = xp.shape
    xp = xp if nk is not None else None
    flat_kernel = flat_kernel if nx is not None else None

    def bw(g):
        if nk is not None:
            terms = np.matmul(np.swapaxes(g, -1, -2), _conv_windows(xp, l_out, k))
            _accum(nk, terms.reshape(terms.shape[:-1] + (c_in, k)), fresh=True)
        if nx is not None:
            g_windows = (g @ flat_kernel).reshape(g.shape[:-1] + (c_in, k))
            gxp = np.zeros(padded_shape)
            for i in range(k):
                gxp[..., i : i + l_out, :] += g_windows[..., i]
            _accum(nx, gxp[..., padding : padding + L, :] if padding else gxp, fresh=True)
        if nb is not None:
            _accum(nb, g, fresh=True)

    return _make(out, nodes, bw)


def pool1d(x, kind: str) -> Tensor:
    """Centred width-3, stride-2 max or average pool along the time axis:
    (..., L, C) to (..., ceil(L/2), C), window i reading input rows
    2i-1..2i+1.

    The three taps are strided views ``xp[j:j+2n:2]`` of one padded copy.
    Max pads with -inf and tapes which tap won, ties to the earliest as
    ``argmax`` does.  Average pads with zeros, sums from +0.0 as ``np.sum``
    does and divides by the in-range count: 3, or 2 at the first window
    and, for odd L, the last.
    """
    x = _coerce(x)
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown pooling kind: {kind!r}")
    lead, (L, C) = x.data.shape[:-2], x.data.shape[-2:]
    if L < 1:
        raise ValueError("sequence too short to pool")
    n = (L + 1) // 2
    xp = np.full(lead + (2 * n + 1, C), -np.inf if kind == "max" else 0.0)
    xp[..., 1 : L + 1, :] = x.data
    t0, t1, t2 = [xp[..., j : j + 2 * n : 2, :] for j in range(3)]
    if kind == "max":
        out = np.maximum(t0, t1)
        np.maximum(out, t2, out=out)
    else:
        counts = np.full((n, 1), 3.0)
        counts[0, 0] -= 1.0
        counts[-1, 0] -= L % 2
        out = 0.0 + t0
        out += t1
        out += t2
        out /= counts
    nodes = _inputs(x)
    if nodes is None:
        return Tensor(out)
    nx, = nodes
    if kind == "max":
        first = t0 == out
        second = (t1 == out) & ~first
        wins = (first, second, ~(first | second))

    def bw(g):
        shares = [np.where(w, g, 0.0) for w in wins] if kind == "max" else [g / counts] * 3
        gp = np.zeros(lead + (2 * n + 1, C))
        for j, share in enumerate(shares):
            gp[..., j : j + 2 * n : 2, :] += share
        _accum(nx, gp[..., 1 : L + 1, :], fresh=True)

    return _make(out, nodes, bw)


def embedding_sum(tables, index) -> Tensor:
    """``sum_j tables[j][index[..., j]]`` as one node: k (V_j, d) tables and
    an (..., L, k) integer ``index``, one column per table.

    The forward adds the looked-up rows in table order, and the backward
    scatters each window's output gradient into each table with one
    ``np.bincount``, window after window.
    """
    tables = [_coerce(t) for t in tables]
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu" or idx.ndim < 2 or idx.shape[-1] != len(tables):
        raise IndexError(f"embedding index must be an (L, {len(tables)}) integer array, one "
                         f"column per table, got {idx.dtype} of shape {idx.shape}")
    idx = idx.astype(np.intp, copy=False)
    sizes = np.array([t.data.shape[0] for t in tables])
    bad = ((idx < 0) | (idx >= sizes)).reshape(-1, len(tables)).any(axis=0)
    if bad.any():
        col = int(bad.argmax())
        raise IndexError(f"embedding index column {col} out of range [0, {sizes[col]}): "
                         f"min={idx[..., col].min()}, max={idx[..., col].max()}")
    out = tables[0].data[idx[..., 0]]
    for j in range(1, len(tables)):
        out += tables[j].data[idx[..., j]]
    nodes = _inputs(*tables)
    if nodes is None:
        return Tensor(out)
    shapes = [t.data.shape for t in tables]

    def bw(g):
        g_windows = g.reshape((-1,) + g.shape[-2:])
        for node, (V, d), rows in zip(nodes, shapes, np.moveaxis(idx, -1, 0)):
            if node is not None:
                flat = (rows[..., None] * d + np.arange(d)).reshape(len(g_windows), -1)
                for window, g_window in zip(flat, g_windows):
                    _accum(node, np.bincount(window, weights=g_window.ravel(),
                                             minlength=V * d).reshape(V, d), fresh=True)

    return _make(out, nodes, bw)


# -- parameter management ----------------------------------------------


class ParamStore:
    """Ordered map from path-like parameter name to tensor.

    Names are unique and iteration follows insertion order, which fixes
    the checkpoint layout.  A store is mutated by at most one trainer at
    a time; frozen stores may be read concurrently.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value, requires_grad: bool = True) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = requires_grad
        if not np.all(np.isfinite(t.data)):
            raise ValueError(f"parameter {name!r} contains non-finite values")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self):
        return iter(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def n_elements(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            out.add(name, t.data.copy(), requires_grad=t.requires_grad)
        return out

    def copy_from(self, other: "ParamStore"):
        """Copy values in place; names, their order and shapes must match exactly."""
        mine, theirs = self.names(), other.names()
        if mine != theirs:
            for names, store, where in ((mine, other, "missing from"), (theirs, self, "extra in")):
                for name in names:
                    if name not in store._params:
                        raise ValueError(f"parameter {name!r} is {where} the source store")
            i = next(i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b)
            raise ValueError(f"parameter {mine[i]!r} is out of order: the source store "
                             f"has {theirs[i]!r} at position {i}")
        for name, t in self._params.items():
            src = other[name]
            if src.data.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            t.data[...] = src.data


# -- gradient checking --------------------------------------------------


def finite_diff_check(f, params: ParamStore, step: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps the store to a scalar tensor.  For every parameter
    coordinate the analytic gradient (one backward pass) is compared with
    (f(th+e) - f(th-e)) / (2e); the relative error uses the denominator
    max(|analytic|, |numeric|, 1e-8).  Returns the maximum relative error
    over all coordinates.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    params.zero_grad()
    out = f(params)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("f must return a scalar tensor")
    if not np.isfinite(out.data).all():
        raise ValueError("finite_diff_check: objective is not finite")
    out.backward()
    analytic = {name: t.grad.copy() for name, t in params.items()}

    max_rel = 0.0
    with no_grad():
        for name, t in params.items():
            flat = t.data.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = float(f(params).data)
                flat[i] = orig - step
                f_minus = float(f(params).data)
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise ValueError(f"finite_diff_check: non-finite objective near {name}[{i}]")
                numeric = (f_plus - f_minus) / (2.0 * step)
                rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8)
                if rel > max_rel:
                    max_rel = rel
    return max_rel

