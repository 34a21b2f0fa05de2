"""Dense float64 tensor engine with taped reverse-mode gradients.

Every operation evaluates eagerly with numpy and, when gradients are
enabled and at least one input requires them, records a backward closure.
Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates ``grad`` buffers on every
reachable leaf (a tensor that requires gradients but records no backward
closure, such as a parameter).  The walk consumes the tape: once a node
has passed its gradient on, its gradient, closure and parent links are
dropped, so activations are freed as the walk passes them and a second
``backward()`` through the same graph raises ``RuntimeError``.

Tensors are value-semantic (no operation mutates an input array), so a
frozen parameter set can be read from multiple threads; gradient buffers
belong to a single training loop at a time.
"""

import struct
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable backward-closure recording inside the context."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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
        topo = []
        visited = set()
        stack = [(self, False)]
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
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        _accum(self, np.ones_like(self.data))
        # Popping drops the list's reference, so each node's activations die
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

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_coerce(other), -1.0))

    def __rsub__(self, other):
        return add(_coerce(other), mul(self, -1.0))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            return gather_rows(self, key)
        return _getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    @property
    def T(self):
        return transpose(self)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


_CONSUMED = ("backward() through a consumed tape: an earlier backward() already "
             "freed this graph; recompute the forward pass")


def _consumed(g):
    """Backward closure of a node whose tape a ``backward()`` already walked."""
    raise RuntimeError(_CONSUMED)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # A private copy: ``g`` may be shared with another parent (add) or be
        # a view of a buffer the caller still uses (concat, _getitem).
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise ------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bw)


def power(a, p) -> Tensor:
    a = _coerce(a)
    p = float(p)
    out = a.data**p

    def bw(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return _make(out, (a,), bw)


def relu(a) -> Tensor:
    a = _coerce(a)
    out = np.maximum(a.data, 0.0)

    def bw(g):
        _accum(a, g * (a.data > 0.0))

    return _make(out, (a,), bw)


def elu(a) -> Tensor:
    a = _coerce(a)
    pos = a.data > 0.0
    out = np.where(pos, a.data, np.expm1(a.data))

    def bw(g):
        _accum(a, g * np.where(pos, 1.0, out + 1.0))

    return _make(out, (a,), bw)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the mask is a constant drawn from ``rng``."""
    if p <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(keep))


# -- linear algebra ---------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product of 2-D tensors, or of stacks of them whose leading
    axes match exactly (no broadcasting), e.g. (H, L, d) @ (H, d, m)."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ValueError("matmul expects 2-D tensors (or stacks of them with matching "
                         f"leading axes), got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2] or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make(out, (a, b), bw)


def linear(x, w, b=None) -> Tensor:
    """``x @ w + b`` as one node: ``x`` is (L, d_in), ``w`` (d_in, d_out) and
    the optional bias ``b`` (d_out,)."""
    x, w = _coerce(x), _coerce(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data
    if b is None:
        parents = (x, w)
    else:
        b = _coerce(b)
        out += b.data
        parents = (x, w, b)

    def bw(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _make(out, parents, bw)


def transpose(a) -> Tensor:
    a = _coerce(a)
    out = a.data.T

    def bw(g):
        _accum(a, g.T)

    return _make(out, (a,), bw)


# -- reductions and rearrangement -------------------------------------


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    return _make(out, (a,), bw)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def bw(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg / count, a.data.shape).copy())

    return _make(out, (a,), bw)


def cumsum_time(a) -> Tensor:
    """Inclusive cumulative sum along the time axis: axis 0 of an (L, C)
    tensor, axis 1 of an (H, L, C) stack of heads."""
    a = _coerce(a)
    out = np.cumsum(a.data, axis=-2)

    def bw(g):
        _accum(a, np.flip(np.cumsum(np.flip(g, axis=-2), axis=-2), axis=-2))

    return _make(out, (a,), bw)


def concat(tensors, axis=0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def bw(g):
        off = 0
        for t, s in zip(ts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(off, off + s)
            _accum(t, g[tuple(sl)])
            off += s

    return _make(out, tuple(ts), bw)


def _getitem(a: Tensor, key) -> Tensor:
    out = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        _accum(a, full)

    return _make(out, (a,), bw)


def _rows_key(index: np.ndarray):
    """Index for rows of axis -2: an (n,) index picks the same rows of every
    leading slice, an (H, n) index picks rows of the (H, L, C) slice h from
    index[h]."""
    if index.ndim == 1:
        return index
    return (np.arange(index.shape[0])[:, None], index)


def gather_rows(a, index) -> Tensor:
    """Select rows ``index`` (int array) along axis 0 of an (L, C) tensor, or
    per head along axis 1 of an (H, L, C) tensor with an (H, n) index.

    An (n,) index may repeat rows; an (H, n) index names distinct rows
    within each head, as ``scatter_rows`` requires, so its gradient is
    placed by assignment."""
    a = _coerce(a)
    idx = np.asarray(index, dtype=np.intp)
    key = _rows_key(idx)
    out = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        if idx.ndim == 1:
            np.add.at(full, key, g)
        else:
            full[key] = g
        _accum(a, full)

    return _make(out, (a,), bw)


def scatter_rows(index, rows, length: int) -> Tensor:
    """Place ``rows`` at positions ``index`` of a zero tensor with ``length``
    rows; an (H, n) index places the rows of head h at index[h]."""
    rows = _coerce(rows)
    idx = np.asarray(index, dtype=np.intp)
    key = _rows_key(idx)
    lead = rows.data.shape[:-2] if idx.ndim > 1 else ()
    out = np.zeros(lead + (length,) + rows.data.shape[idx.ndim:], dtype=np.float64)
    out[key] = rows.data

    def bw(g):
        _accum(rows, g[key])

    return _make(out, (rows,), bw)


def split_heads(a, n_heads: int) -> Tensor:
    """(L, H*d) -> (H, L, d): head h is columns h*d..(h+1)*d-1 (a view)."""
    a = _coerce(a)
    L, width = a.data.shape
    if width % n_heads:
        raise ValueError(f"width {width} not divisible by {n_heads} heads")
    out = a.data.reshape(L, n_heads, width // n_heads).transpose(1, 0, 2)

    def bw(g):
        _accum(a, g.transpose(1, 0, 2).reshape(L, width))

    return _make(out, (a,), bw)


def merge_heads(a) -> Tensor:
    """(H, L, d) -> (L, H*d), the inverse of ``split_heads``."""
    a = _coerce(a)
    H, L, d = a.data.shape
    out = a.data.transpose(1, 0, 2).reshape(L, H * d)

    def bw(g):
        _accum(a, g.reshape(L, H, d).transpose(1, 0, 2))

    return _make(out, (a,), bw)


# -- neural-network primitives -----------------------------------------


def softmax_lastdim(x, mask=None) -> Tensor:
    """Softmax over the last axis.

    ``mask`` (boolean, True = forbidden) zeroes entries exactly and
    renormalizes the rest; a fully forbidden row is an error.  The shift
    by the row maximum keeps the exponentials bounded.
    """
    x = _coerce(x)
    if mask is not None:
        forbidden = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
        if np.any(forbidden.all(axis=-1)):
            raise ValueError("empty attention row: every entry is masked")
        scores = np.where(forbidden, -np.inf, x.data)
    else:
        scores = x.data
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - inner))

    return _make(y, (x,), bw)


def attention_weights(q, k, scale: float, mask=None) -> Tensor:
    """Fused ``softmax(q k^T * scale)`` over the last axis.

    ``q`` is (..., n, d) and ``k`` (..., m, d) with matching leading axes;
    ``mask`` (boolean, broadcastable to (..., n, m), True = forbidden)
    zeroes entries exactly; a fully forbidden row is an error.  The scale
    is folded into ``q`` and the softmax runs in place, so the scores take
    one buffer and the tape keeps only the weights; the backward pass
    returns dq and dk directly.
    """
    q, k = _coerce(q), _coerce(k)
    w = (q.data * scale) @ np.swapaxes(k.data, -1, -2)
    if mask is not None:
        forbidden = np.broadcast_to(np.asarray(mask, dtype=bool), w.shape)
        if forbidden.all(axis=-1).any():
            raise ValueError("empty attention row: every entry is masked")
        np.copyto(w, -np.inf, where=forbidden)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def bw(g):
        ds = g * w
        inner = ds.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=ds)
        ds *= w
        ds *= scale
        if q.requires_grad:
            _accum(q, ds @ k.data)
        if k.requires_grad:  # dk = (q^T ds)^T, the gradient of k^T transposed
            _accum(k, np.swapaxes(np.swapaxes(q.data, -1, -2) @ ds, -1, -2))

    return _make(w, (q, k), bw)


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by ``gain`` and shift by
    ``bias`` (both (d,)), as one node.

    The forward is the chain mean, centre, variance, (var + eps)^-1/2,
    scale, shift, in that order.  The backward pass returns dx, dgain and
    dbias in closed form, summed in the order the reverse walk of that
    chain sums them, so both passes give the chain's bits.  The tape keeps
    the centred input and the per-row variance terms.
    """
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.data.shape[-1]
    # sum / d is how ndarray.mean computes, without its Python wrapper
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var_eps = (centered * centered).sum(axis=-1, keepdims=True) / d + eps
    inv = var_eps ** -0.5
    out = centered * inv * gain.data + bias.data

    def bw(g):
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * (centered * inv), gain.data.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            d_var = (dxhat * centered).sum(axis=-1, keepdims=True) * -0.5 * var_eps ** -1.5
            d_sq = d_var / d
            dx = dxhat * inv
            dx += d_sq * centered  # the square's two operands, one at a time
            dx += d_sq * centered
            d_mean = dx.sum(axis=-1, keepdims=True) * -1.0 / d
            _accum(x, dx)  # through the centring, then through the mean
            _accum(x, np.broadcast_to(d_mean, dx.shape))

    return _make(out, (x, gain, bias), bw)


def conv1d_time(x, kernel, padding: int) -> Tensor:
    """Cross-correlation along the time axis with zero padding.

    ``x`` is (L, C_in), ``kernel`` is (C_out, C_in, k) with odd k; the
    result is (L + 2*padding - k + 1, C_out).
    """
    x, kernel = _coerce(x), _coerce(kernel)
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise ValueError("conv1d_time expects x (L, C_in) and kernel (C_out, C_in, k)")
    L, c_in = x.data.shape
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
        xp = np.zeros((L + 2 * padding, c_in))
        xp[padding : padding + L] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    step, item = xp.strides
    windows = np.ndarray((l_out, c_in, k), dtype=np.float64, buffer=xp,
                         strides=(step, item, step))  # windows[t, c, i] = xp[t + i, c]
    flat_kernel = kernel.data.reshape(c_out, c_in * k)
    out = windows.reshape(l_out, c_in * k) @ flat_kernel.T

    def bw(g):
        if kernel.requires_grad:
            _accum(kernel, (g.T @ windows.reshape(l_out, c_in * k)).reshape(c_out, c_in, k))
        if x.requires_grad:
            g_windows = (g @ flat_kernel).reshape(l_out, c_in, k)
            gxp = np.zeros_like(xp)
            for i in range(k):
                gxp[i : i + l_out] += g_windows[:, :, i]
            _accum(x, gxp[padding : padding + L] if padding else gxp)

    return _make(out, (x, kernel), bw)


@lru_cache(maxsize=64)
def _pool_plan(L: int, kernel: int, stride: int, padding: int):
    """Read-only index plan shared by every ``pool1d`` call of one shape.

    ``mask`` (l_out, kernel, 1) marks the in-range taps of each window,
    ``safe`` (l_out, kernel) is each tap's input row clipped into range and
    ``counts`` the in-range taps per window; ``tap_window``/``tap_row``
    list the window and input row of every in-range tap, row-major.
    """
    l_out = (L + 2 * padding - kernel) // stride + 1
    if l_out < 1:
        raise ValueError("sequence too short to pool")
    idx = -padding + stride * np.arange(l_out)[:, None] + np.arange(kernel)[None, :]
    valid = (idx >= 0) & (idx < L)
    if not valid.any(axis=1).all():
        raise ValueError("pooling window contains no in-range elements")
    safe = np.clip(idx, 0, L - 1)
    tap_window, tap_col = np.nonzero(valid)
    plan = (valid[:, :, None], safe, valid.sum(axis=1), tap_window, safe[tap_window, tap_col])
    for a in plan:
        a.setflags(write=False)
    return plan


def pool1d(x, kind: str, kernel: int, stride: int, padding: int) -> Tensor:
    """Per-channel max or average pooling along the time axis.

    Average pooling divides by the number of in-range elements in each
    window, so padding never dilutes the result.
    """
    x = _coerce(x)
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown pooling kind: {kind!r}")
    if kernel < 1 or stride < 1:
        raise ValueError("kernel and stride must be >= 1")
    L, C = x.data.shape
    mask, safe, counts, tap_window, tap_row = _pool_plan(L, kernel, stride, padding)
    win = x.data[safe]  # (l_out, kernel, C)

    if kind == "max":
        masked = np.where(mask, win, -np.inf)
        out = masked.max(axis=1)
        arg = masked.argmax(axis=1)  # (l_out, C)

        def bw(g):
            flat = np.take_along_axis(safe, arg, axis=1) * C + np.arange(C)
            _accum(x, np.bincount(flat.ravel(), weights=g.ravel(),
                                  minlength=L * C).reshape(L, C))

    else:
        out = (win * mask).sum(axis=1) / counts[:, None]

        def bw(g):
            flat = tap_row[:, None] * C + np.arange(C)
            share = (g / counts[:, None])[tap_window]
            _accum(x, np.bincount(flat.ravel(), weights=share.ravel(),
                                  minlength=L * C).reshape(L, C))

    return _make(out, (x,), bw)


def embedding_lookup(table, index) -> Tensor:
    """Rows of ``table`` (V, d) selected by integer ``index`` (L,)."""
    table = _coerce(table)
    idx = np.asarray(index, dtype=np.intp)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding index out of range [0, {table.data.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    out = table.data[idx]

    def bw(g):
        V, d = table.data.shape
        flat = idx[:, None] * d + np.arange(d)
        _accum(table, np.bincount(flat.ravel(), weights=g.ravel(),
                                  minlength=V * d).reshape(V, d))

    return _make(out, (table,), bw)


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

    def __contains__(self, name: str) -> bool:
        return name in self._params

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
        """Copy values in place; names and shapes must match exactly."""
        if self.names() != other.names():
            raise ValueError("parameter stores have different names")
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


def fnv1a64(payload: bytes, h: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a hash of a byte string.  Passing the hash of the bytes
    before ``payload`` as ``h`` continues it, so a stream hashes in chunks."""
    for b in payload:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def unpack_u64(buf: bytes, offset: int) -> tuple[int, int]:
    return struct.unpack_from("<Q", buf, offset)[0], offset + 8
