"""Tensor-core tests: op semantics, hand-computed examples, and the reverse-gradient contract."""

import inspect
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from sparsecast.tensor import (
    ParamStore,
    Tensor,
    add,
    attention,
    conv1d_time,
    dropout,
    elu,
    embedding_sum,
    finite_diff_check,
    head_view,
    layer_norm,
    linear,
    mean_,
    mul,
    no_grad,
    pool1d,
    relu,
    sum_,
)
import sparsecast.tensor as tensor_module
from sparsecast.tensor import _accum, _coerce, _inputs, _make


# Ops that back no model path, kept as the building blocks of the oracles.


def power(a, p) -> Tensor:
    a = _coerce(a)
    p = float(p)
    out = a.data**p
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes
    a_data = a.data

    def bw(g):
        _accum(na, g * p * a_data ** (p - 1.0), fresh=True)

    return _make(out, nodes, bw)


def transpose(a) -> Tensor:
    a = _coerce(a)
    out = a.data.T
    nodes = _inputs(a)
    if nodes is None:
        return Tensor(out)
    na, = nodes

    def bw(g):
        _accum(na, g.T)

    return _make(out, nodes, bw)


def concat(tensors, axis=0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    nodes = _inputs(*ts)
    if nodes is None:
        return Tensor(out)
    sizes = [t.data.shape[axis] for t in ts]

    def bw(g):
        off = 0
        for node, s in zip(nodes, sizes):
            if node is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(off, off + s)
                _accum(node, g[tuple(sl)])
            off += s

    return _make(out, nodes, bw)


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
    nodes = _inputs(a, b)
    if nodes is None:
        return Tensor(out)
    na, nb = nodes
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def bw(g):
        if na is not None:
            _accum(na, g @ np.swapaxes(b_data, -1, -2), fresh=True)
        if nb is not None:
            _accum(nb, np.swapaxes(a_data, -1, -2) @ g, fresh=True)

    return _make(out, nodes, bw)


def attention_weights(q, k, scale: float, mask=None) -> Tensor:
    """Fused ``softmax(q k^T * scale)`` over the last axis as one node that
    keeps the weights: with ``matmul(weights, v)`` the oracle of
    ``attention``.

    ``mask`` (boolean, broadcastable to (..., n, m), True = forbidden)
    zeroes entries exactly; a fully forbidden row is an error.
    """
    q, k = _coerce(q), _coerce(k)
    w = (q.data * scale) @ np.swapaxes(k.data, -1, -2)
    if mask is not None:
        forbidden = np.broadcast_to(np.asarray(mask, dtype=bool), w.shape)
        if forbidden.all(axis=-1).any():
            raise ValueError("empty attention row: every entry is masked")
        np.copyto(w, -np.inf, where=forbidden)
    w -= w.max(axis=-1, keepdims=True)
    if mask is None:
        np.exp(w, out=w)
    else:
        np.exp(w, out=w, where=~forbidden)
        np.copyto(w, 0.0, where=forbidden)
    w /= w.sum(axis=-1, keepdims=True)
    nodes = _inputs(q, k)
    if nodes is None:
        return Tensor(w)
    nq, nk = nodes
    q_data, k_data = q.data, k.data

    def bw(g):
        g -= (g * w).sum(axis=-1, keepdims=True)
        g *= w
        g *= scale
        if nq is not None:
            _accum(nq, g @ k_data, fresh=True)
        if nk is not None:
            _accum(nk, np.swapaxes(np.swapaxes(q_data, -1, -2) @ g, -1, -2))

    return _make(w, nodes, bw)


def softmax_lastdim(x, mask=None) -> Tensor:
    """Softmax over the last axis as one tape node: the oracle of
    ``attention_weights``.

    ``mask`` (boolean, True = forbidden) zeroes entries exactly and
    renormalizes the rest; a fully forbidden row is an error.  The shift
    by the row maximum keeps the exponentials bounded.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
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
    nodes = _inputs(x)
    if nodes is None:
        return Tensor(y)

    def bw(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(nodes[0], y * (g - inner))

    return _make(y, nodes, bw)


class TestConv1d:
    def test_ones_kernel_hand_convolution(self):
        out = conv1d_time(Tensor(np.ones((5, 1))), Tensor(np.ones((1, 1, 3))), padding=1)
        npt.assert_array_equal(out.data.ravel(), [2, 3, 3, 3, 2])

    def test_identity_tap_preserves_input(self):
        x = np.random.default_rng(0).standard_normal((7, 1))
        kernel = np.array([[[0.0, 1.0, 0.0]]])
        out = conv1d_time(Tensor(x), Tensor(kernel), padding=1)
        npt.assert_array_equal(out.data, x)

    def test_zero_input(self):
        kernel = np.random.default_rng(1).standard_normal((3, 2, 3))
        out = conv1d_time(Tensor(np.zeros((4, 2))), Tensor(kernel), padding=1)
        npt.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(4, 2\).*\(3, 5, 3\)"):
            conv1d_time(Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 5, 3))), padding=1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv1d_time(Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2, 4))), padding=1)

    def test_linear_in_input(self):
        rng = np.random.default_rng(2)
        x1, x2 = rng.standard_normal((2, 9, 3))
        kernel = Tensor(rng.standard_normal((4, 3, 3)))
        a, b = 1.7, -0.4
        lhs = conv1d_time(Tensor(a * x1 + b * x2), kernel, padding=1).data
        rhs = (a * conv1d_time(Tensor(x1), kernel, padding=1).data
               + b * conv1d_time(Tensor(x2), kernel, padding=1).data)
        npt.assert_allclose(lhs, rhs, atol=1e-12)


def _per_tap_conv_grads(x, kernel, g, padding):
    """Kernel and input gradients of ``conv1d_time``, one einsum and one
    GEMM per tap: the oracle for the single-GEMM backward."""
    L = x.shape[0]
    k = kernel.shape[2]
    xp = np.pad(x, ((padding, padding), (0, 0)))
    l_out = g.shape[0]
    gk = np.empty_like(kernel)
    gxp = np.zeros_like(xp)
    for i in range(k):
        gk[:, :, i] = np.einsum("to,tc->oc", g, xp[i : i + l_out])
        gxp[i : i + l_out] += g @ kernel[:, :, i]
    return gk, gxp[padding : padding + L]


class TestConvBackward:
    @pytest.mark.parametrize("L,c_in,c_out,k,padding",
                             [(9, 3, 4, 3, 1), (12, 5, 2, 3, 0), (7, 2, 3, 5, 2),
                              (96, 16, 16, 3, 1), (1, 2, 2, 1, 0)])
    def test_matches_per_tap_oracle(self, L, c_in, c_out, k, padding):
        rng = np.random.default_rng(L * 100 + k)
        x = Tensor(rng.standard_normal((L, c_in)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((c_out, c_in, k)), requires_grad=True)
        out = conv1d_time(x, kernel, padding=padding)
        g = rng.standard_normal(out.shape)
        sum_(out * Tensor(g)).backward()
        gk, gx = _per_tap_conv_grads(x.data, kernel.data, g, padding)
        npt.assert_allclose(kernel.grad, gk, rtol=1e-12, atol=1e-12 * np.abs(gk).max())
        npt.assert_allclose(x.grad, gx, rtol=1e-12, atol=1e-12 * np.abs(gx).max())


def _pad_window_conv(x, kernel, padding, g):
    """``conv1d_time`` as it was built on ``np.pad`` and
    ``sliding_window_view``: output, kernel gradient and input gradient for
    the output gradient ``g``.  The oracle for the strided-view version."""
    L, c_in = x.shape
    c_out, _, k = kernel.shape
    l_out = L + 2 * padding - k + 1
    xp = np.pad(x, ((padding, padding), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)
    flat_kernel = kernel.reshape(c_out, c_in * k)
    out = windows.reshape(l_out, c_in * k) @ flat_kernel.T
    gk = (g.T @ windows.reshape(l_out, c_in * k)).reshape(c_out, c_in, k)
    g_windows = (g @ flat_kernel).reshape(l_out, c_in, k)
    gxp = np.zeros_like(xp)
    for i in range(k):
        gxp[i : i + l_out] += g_windows[:, :, i]
    return out, gk, gxp[padding : padding + L]


class TestConvAgainstPadOracle:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("L", [1, 2, 5, 48])
    def test_bit_identical_outputs_and_gradients(self, L, k, padding):
        rng = np.random.default_rng(1000 * L + 10 * k + padding)
        x = Tensor(rng.standard_normal((L, 3)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((4, 3, k)), requires_grad=True)
        if L + 2 * padding - k + 1 < 1:
            with pytest.raises(ValueError, match=f"length {L} too short for kernel {k}"):
                conv1d_time(x, kernel, padding=padding)
            return
        out = conv1d_time(x, kernel, padding=padding)
        g = rng.standard_normal(out.shape)
        sum_(out * Tensor(g)).backward()
        want_out, want_gk, want_gx = _pad_window_conv(x.data, kernel.data, padding, g)
        npt.assert_array_equal(out.data, want_out)
        npt.assert_array_equal(kernel.grad, want_gk)
        npt.assert_array_equal(x.grad, want_gx)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_strided_and_read_only_inputs(self, padding):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((3, 10))
        base.setflags(write=False)
        kernel = rng.standard_normal((2, 3, 3))
        x = base.T  # (10, 3), not C-contiguous, read-only
        out = conv1d_time(Tensor(x), Tensor(kernel), padding=padding)
        want, _, _ = _pad_window_conv(x, kernel, padding, np.zeros(out.shape))
        npt.assert_array_equal(out.data, want)

    def test_closure_holds_the_padded_input_once(self):
        x = Tensor(np.ones((6, 2)), requires_grad=True)
        out = conv1d_time(x, Tensor(np.ones((3, 2, 3)), requires_grad=True), padding=1)
        arrays = [c.cell_contents for c in out._backward.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        owned = [a for a in arrays if a.base is None]
        assert [a.shape for a in owned] == [(8, 2)]  # the padded input


class TestConstantOperands:
    """A constant operand gets no gradient buffer; the other one's gradient
    still matches central differences."""

    OPS = {
        "matmul": (lambda a, b: matmul(a, b), (4, 3), (3, 5)),
        "linear": (lambda a, b: linear(a, b), (4, 3), (3, 5)),
        "embedding_sum": (lambda a, b: embedding_sum([a, b], [[3, 0], [0, 4], [3, 4]]),
                          (4, 3), (5, 3)),
        "mul": (mul, (4, 3), (4, 3)),
        "mul_scalar": (mul, (4, 3), ()),
        "add": (add, (4, 3), (3,)),
        "conv1d": (lambda a, b: conv1d_time(a, b, padding=1), (6, 3), (2, 3, 3)),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_gets_no_gradient(self, name, constant):
        op, shape_a, shape_b = self.OPS[name]
        rng = np.random.default_rng(len(name) + 10 * constant)
        values = [rng.standard_normal(shape_a), rng.standard_normal(shape_b)]
        const = Tensor(values[constant])
        store = ParamStore()
        store.add("p", values[1 - constant])
        w = {}

        def f(p):
            args = [const, p["p"]] if constant == 0 else [p["p"], const]
            out = op(*args)
            w.setdefault("w", np.random.default_rng(3).standard_normal(out.shape))
            return sum_(out * Tensor(w["w"]))

        assert finite_diff_check(f, store) < 1e-6
        assert const.grad is None


class TestHeads:
    def test_split_rejects_uneven_width(self):
        """``head_view`` gives head h as columns h*d..(h+1)*d-1, a view, for
        one window or a stack of them, and names the shape it cannot split."""
        x = np.random.default_rng(0).standard_normal((5, 12))
        heads = head_view(x, 3)
        assert heads.shape == (3, 5, 4) and np.shares_memory(heads, x)
        npt.assert_array_equal(heads[1], x[:, 4:8])
        with pytest.raises(ValueError, match=r"divisible by 2 heads, got shape \(5, 7\)"):
            head_view(np.zeros((5, 7)), 2)
        with pytest.raises(ValueError, match=r"divisible by 2 heads, got shape \(4,\)"):
            head_view(np.zeros(4), 2)
        stacked = np.random.default_rng(1).standard_normal((2, 5, 12))
        npt.assert_array_equal(head_view(stacked, 3)[1], head_view(stacked[1], 3))

    def test_batched_matmul_is_per_slice(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 5, 2))
        out = matmul(Tensor(a), Tensor(b)).data
        for h in range(3):
            npt.assert_array_equal(out[h], a[h] @ b[h])

    def test_matmul_rejects_mismatched_stacks(self):
        with pytest.raises(ValueError, match="2-D"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ValueError, match="shape mismatch"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ValueError, match="shape mismatch"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_weights_equal_softmax_of_scaled_scores(self, masked):
        rng = np.random.default_rng(2)
        q, k = rng.standard_normal((2, 3, 6, 4))
        mask = np.triu(np.ones((6, 6), dtype=bool), k=1) if masked else None
        fused = attention_weights(Tensor(q), Tensor(k), 0.5, mask).data
        for h in range(3):
            chain = softmax_lastdim(matmul(Tensor(q[h]), transpose(Tensor(k[h]))) * 0.5, mask)
            npt.assert_array_equal(fused[h], chain.data)

    @pytest.mark.parametrize("causal", [None, "rows", "heads"])
    def test_attention_equals_weights_then_matmul(self, causal):
        """The forward is bytewise the oracle chain ``attention_weights`` then
        ``matmul``: unmasked, causal with the same rows for every head, and
        with each head's own selected rows, whose lazy rows are bytewise
        the prefix sum of v."""
        q, k, v, causal, selected = _attention_case(causal)
        out = attention(Tensor(q), Tensor(k), Tensor(v), 2, 0.5, causal, selected).data
        got = head_view(out, 2)
        chain = _attention_oracle(*(Tensor(head_view(a, 2)) for a in (q, k, v)), 0.5,
                                  causal, selected).data
        if selected is None:
            assert got.tobytes() == chain.tobytes()
        else:
            assert got[selected].tobytes() == chain[selected].tobytes()
            prefix = np.cumsum(head_view(v, 2), axis=1)
            assert got[~selected].tobytes() == prefix[~selected].tobytes()
            npt.assert_allclose(got, chain, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("causal", [None, "rows", "heads"])
    def test_attention_gradients_in_one_block_equal_the_oracle(self, causal):
        """When one block covers every attended row, dq, dk and dv are
        bytewise the oracle chain's; with lazy rows, whose prefix sum the
        chain takes as a matmul, dv is within 1e-12 of it."""
        q, k, v, causal, selected = _attention_case(causal)
        assert 2 * q.shape[0] * k.shape[0] <= tensor_module._ATTENTION_BLOCK
        got = _attention_grads(attention, q, k, v, causal, selected)
        want = _attention_grads(_attention_oracle, q, k, v, causal, selected)
        for a, b in zip(got[:2], want[:2]):
            assert a.tobytes() == b.tobytes()
        if selected is None:
            assert got[2].tobytes() == want[2].tobytes()
        else:
            npt.assert_allclose(got[2], want[2], rtol=1e-12, atol=0.0)
            assert not got[0][~selected].any()  # lazy rows and padding get no dq

    @pytest.mark.parametrize("causal", [None, "rows", "heads"])
    def test_attention_gradients_across_blocks(self, monkeypatch, causal):
        """Blocks of at most 2 attended rows (4 blocks here) sum dk and dv
        block by block, within 1e-12 of the one-block gradients; dq is per row."""
        q, k, v, causal, selected = _attention_case(causal)
        want = _attention_grads(attention, q, k, v, causal, selected)
        monkeypatch.setattr(tensor_module, "_ATTENTION_BLOCK", 2 * 2 * k.shape[0])
        got = _attention_grads(attention, q, k, v, causal, selected)
        for a, b in zip(got, want):
            npt.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    def test_attention_tape_holds_no_score_sized_array(self):
        """The node keeps the heads of k and v (views), the attended rows of
        q, their positions and the (H, n, 1) row max and row sum: no array
        of score size, and no input tensor."""
        q, k, v, causal, selected = _attention_case("heads")
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = attention(*leaves, 2, 0.5, causal, selected)
        assert out._parents == tuple(leaves)
        cells = [c.cell_contents for c in out._backward.__closure__]
        arrays = [c for c in cells if isinstance(c, np.ndarray)]
        assert all(np.shares_memory(a, k) or np.shares_memory(a, v) or a.size <= q.size
                   for a in arrays)
        assert sum(a.shape == (2, 7, 1) for a in arrays) == 2  # the row max and row sum
        assert not [c for c in cells if isinstance(c, Tensor) and c not in leaves]

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_selecting_every_row_is_dense(self, causal):
        """A mask that selects every row attends them all, bytewise as no
        mask does, and adds no fill to dv."""
        q, k, v = np.random.default_rng(8).standard_normal((3, 6, 8))
        every = np.ones((2, 6), dtype=bool)
        dense = _attention_grads(attention, q, k, v, causal, None)
        for a, b in zip(_attention_grads(attention, q, k, v, causal, every), dense):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["int_mask", "mask_shape", "qk_width", "kv_rows"])
    def test_attention_names_mismatched_inputs(self, case):
        """A selection mask that is not a boolean (H, L) array, q and k of
        different widths, and k and v of different row counts each raise
        a ValueError that names the shapes."""
        x, wide = np.zeros((6, 4)), np.zeros((6, 6))
        args, match = {
            "int_mask": ((x, x, x, _SELECTED.astype(np.int64)),
                         r"boolean \(2, 6\) mask .* q \(6, 4\), got int64 of shape \(2, 6\)"),
            "mask_shape": ((x, x, x, _SELECTED[:, :5]),
                           r"boolean \(2, 6\) mask .* q \(6, 4\), got bool of shape \(2, 5\)"),
            "qk_width": ((x, wide, wide, None),
                         r"one query and key dim .*got q \(6, 4\), k \(6, 6\), v \(6, 6\)"),
            "kv_rows": ((x, x, x[:5], None),
                        r"key and value row count, got q \(6, 4\), k \(6, 4\), v \(5, 4\)"),
        }[case]
        q, k, v, selected = args
        with pytest.raises(ValueError, match=match):
            attention(Tensor(q), Tensor(k), Tensor(v), 2, 0.5, selected=selected)

    def test_attention_weights_fully_masked_row_errors(self):
        with pytest.raises(ValueError, match="empty attention row"):
            attention_weights(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 3, 3))), 1.0,
                              mask=np.array([[True, True, True], [False, True, True]]))


def _attention_case(case):
    """Two heads of width 4 over 9 keys, as full-width arrays: (q, k, v,
    causal, selected).  ``case`` None is 7 unmasked query rows, "rows" 7
    causal rows that every head attends, "heads" 9 causal rows of which
    head 0 selects 7 and head 1 selects 4, so head 1 attends its first 3
    lazy rows as padding."""
    rng = np.random.default_rng(6)
    k, v = rng.standard_normal((2, 9, 8))
    if case != "heads":
        return rng.standard_normal((7, 8)), k, v, case == "rows", None
    selected = np.zeros((2, 9), dtype=bool)
    selected[0, [0, 1, 3, 4, 5, 7, 8]] = True
    selected[1, [0, 2, 5, 6]] = True
    return rng.standard_normal((9, 8)), k, v, True, selected


def _attention_oracle(q, k, v, scale, causal, selected):
    """``attention`` as a chain on (H, L, d) head tensors: ``attention_weights``
    then ``matmul`` on the attended rows, gathered by ``Tensor.__getitem__``
    (each head's selected rows, then its first lazy rows as padding); a
    constant placement matrix puts the selected rows in place, and a
    constant matrix times v, lower triangular or averaging, fills the lazy
    rows."""
    m = k.shape[-2]
    if selected is None:
        mask = np.arange(m) > np.arange(q.shape[-2])[:, None] if causal else None
        return matmul(attention_weights(q, k, scale, mask), v)
    H, L = selected.shape
    counts = selected.sum(axis=1)
    pos = np.array([np.concatenate([np.flatnonzero(s), np.flatnonzero(~s)])[:counts.max()]
                    for s in selected])
    mask = np.arange(m) > pos[..., None] if causal else None
    rows = matmul(attention_weights(q[np.arange(H)[:, None], pos], k, scale, mask), v)
    place = np.zeros((H, L, pos.shape[1]))
    for h, n in enumerate(counts):
        place[h, pos[h, :n], np.arange(n)] = 1.0
    fill = np.tri(L, m) if causal else np.full((L, m), 1.0 / m)
    fill = np.broadcast_to(fill, (H, L, m)) * ~selected[..., None]
    return matmul(Tensor(place), rows) + matmul(Tensor(fill), v)


def _attention_grads(op, q, k, v, causal, selected):
    """dq, dk and dv, viewed as (H, L, d) heads, of a fixed weighted sum of
    the output: ``attention`` gets the full-width arrays as leaves, and
    ``_attention_oracle`` gets their two heads."""
    oracle = op is _attention_oracle
    leaves = [Tensor(head_view(a, 2) if oracle else a, requires_grad=True) for a in (q, k, v)]
    out = op(*leaves, 0.5, causal, selected) if oracle else op(*leaves, 2, 0.5, causal, selected)
    weights = np.random.default_rng(7).standard_normal((q.shape[0], v.shape[1]))
    sum_(out * Tensor(head_view(weights, 2) if oracle else weights)).backward()
    return [t.grad if oracle else head_view(t.grad, 2) for t in leaves]


def _layer_norm_chain(x, gain, bias, eps):
    """Layer norm as a chain of elementwise nodes: the oracle for ``layer_norm``."""
    mu = mean_(x, axis=-1, keepdims=True)
    centered = x - mu
    var = mean_(centered * centered, axis=-1, keepdims=True)
    inv = power(var + eps, -0.5)
    return centered * inv * gain + bias


def _linear_chain(x, w, b):
    """``matmul`` then bias ``add``: the oracle for ``linear``."""
    out = matmul(x, w)
    return out if b is None else out + b


def _fused_vs_chain(fused, chain, arrays, seed, residual=False):
    """Run both on fresh leaves of ``arrays``; return (outputs, gradients)
    of each.  ``residual`` adds the first input to the output, so that it
    also gets a gradient from outside the node."""
    results = []
    for op in (fused, chain):
        leaves = [None if a is None else Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        if residual:
            out = out + leaves[0]
        weights = np.random.default_rng(seed).standard_normal(out.shape)
        sum_(out * Tensor(weights)).backward()
        results.append((out.data, [t.grad for t in leaves if t is not None]))
    return results


def _assert_same_bits(got, want):
    (out, grads), (want_out, want_grads) = got, want
    npt.assert_array_equal(out, want_out)
    assert len(grads) == len(want_grads)
    for g, w in zip(grads, want_grads):
        npt.assert_array_equal(g, w)


class TestFusedNodes:
    """The one-node forms compute the chains they replace with the same
    bits, forward and backward."""

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("shape", [(7, 6), (1, 4), (2, 5, 6), (24, 32)])
    def test_layer_norm_matches_chain(self, shape, residual):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape) * 3.0 + 1.5
        gain, bias = rng.standard_normal((2, shape[-1]))
        _assert_same_bits(*_fused_vs_chain(
            lambda *t: layer_norm(*t, 1e-5), lambda *t: _layer_norm_chain(*t, 1e-5),
            [x, gain, bias], seed=1, residual=residual))

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shape", [(7, 6, 3), (1, 4, 4), (24, 32, 64)])
    def test_linear_matches_chain(self, shape, bias):
        rng = np.random.default_rng(sum(shape))
        L, d_in, d_out = shape
        arrays = [rng.standard_normal((L, d_in)), rng.standard_normal((d_in, d_out)),
                  rng.standard_normal(d_out) if bias else None]
        _assert_same_bits(*_fused_vs_chain(linear, _linear_chain, arrays, seed=2))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv1d_bias_matches_conv_then_add(self, padding):
        """``conv1d_time(..., bias)`` is bytewise ``conv1d_time(...) + bias``,
        forward and backward."""
        rng = np.random.default_rng(11 + padding)
        arrays = [rng.standard_normal((9, 4)), rng.standard_normal((6, 4, 3)),
                  rng.standard_normal(6)]
        _assert_same_bits(*_fused_vs_chain(
            lambda x, k, b: conv1d_time(x, k, padding, b),
            lambda x, k, b: conv1d_time(x, k, padding) + b,
            arrays, seed=4))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("n_tables", [1, 3, 5])
    def test_embedding_sum_matches_lookups_then_adds(self, n_tables, dtype):
        """``embedding_sum`` is bytewise the left-to-right sum of one row
        gather per table, forward and backward, repeated rows included."""
        rng = np.random.default_rng(n_tables)
        sizes = [13, 32, 7, 24, 4][:n_tables]
        tables = [rng.standard_normal((V, 16)) * 10.0 ** j for j, V in enumerate(sizes)]
        idx = np.stack([rng.integers(0, V, 40) for V in sizes], axis=1).astype(dtype)

        def chain(*leaves):
            out = leaves[0][idx[:, 0]]
            for j in range(1, n_tables):
                out = out + leaves[j][idx[:, j]]
            return out

        got, want = _fused_vs_chain(lambda *t: embedding_sum(t, idx), chain, tables, seed=5)
        _assert_same_bits(got, want)
        rows = [t[idx[:, j]] for j, t in enumerate(tables)]
        assert got[0].tobytes() == sum(rows[1:], rows[0]).tobytes()

    @pytest.mark.parametrize("index, match", [
        (np.zeros(4, dtype=int), r"must be an \(L, 3\) integer array, one column per "
                                 r"table, got int64 of shape \(4,\)$"),
        (np.zeros((4, 2), dtype=int), r"got int64 of shape \(4, 2\)$"),
        (np.zeros((4, 3, 1), dtype=int), r"got int64 of shape \(4, 3, 1\)$"),
        (np.full((4, 3), 0.7), r"got float64 of shape \(4, 3\)$"),
        (np.zeros((4, 3), dtype=bool), r"got bool of shape \(4, 3\)$"),
        ([[0, 0, 0], [5, 0, 0]], r"column 0 out of range \[0, 5\): min=0, max=5$"),
        ([[0, 0, 0], [0, -1, 0]], r"column 1 out of range \[0, 2\): min=-1, max=0$"),
        ([[0, 0, 9], [0, 2, 0]], r"column 1 out of range \[0, 2\): min=0, max=2$"),
        ([[0, 0, 9], [0, 0, 0]], r"column 2 out of range \[0, 9\): min=0, max=9$"),
    ], ids=["1-D", "too few columns", "3-D", "float", "bool", "col0 high", "col1 negative",
            "first bad column", "col2 high"])
    def test_embedding_sum_index_errors_name_the_column(self, index, match):
        tables = [Tensor(np.zeros((V, 2)), requires_grad=True) for V in (5, 2, 9)]
        with pytest.raises(IndexError, match=match):
            embedding_sum(tables, index)

    def test_linear_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"linear shape mismatch: \(3, 4\) @ \(5, 2\)"):
            linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))

    def test_layer_norm_tape_keeps_centred_input_and_row_terms(self):
        """Of the (L, d) arrays the node keeps only the centred input; beside
        it, the two per-row terms and the gain's values."""
        x = Tensor(np.random.default_rng(3).standard_normal((5, 4)), requires_grad=True)
        gain = Tensor(np.ones(4))
        out = layer_norm(x, gain, Tensor(np.zeros(4)), 1e-5)
        arrays = [c.cell_contents for c in out._backward.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        assert sorted(a.shape for a in arrays) == [(4,), (5, 1), (5, 1), (5, 4)]
        assert [a for a in arrays if a.shape == (4,)][0] is gain.data


def _dropout_chain(a, p, rng):
    """Dropout as a float64 mask, (draw >= p) / (1 - p), multiplied in as a
    constant operand: the oracle for ``dropout``."""
    keep = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(keep))


class TestDropout:
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.5])
    def test_matches_float_mask_chain_bit_for_bit(self, p, residual):
        x = np.random.default_rng(8).standard_normal((40, 16))
        got, want = _fused_vs_chain(lambda t: dropout(t, p, np.random.default_rng(5).random(
                                        t.shape) >= p),
                                    lambda t: _dropout_chain(t, p, np.random.default_rng(5)),
                                    [x], seed=3, residual=residual)
        _assert_same_bits(got, want)
        assert got[0].tobytes() == want[0].tobytes()  # signed zeros included
        assert got[1][0].tobytes() == want[1][0].tobytes()

    def test_tape_keeps_a_boolean_mask(self):
        a = Tensor(np.ones((6, 4)), requires_grad=True)
        out = dropout(a, 0.5, np.random.default_rng(0).random((6, 4)) >= 0.5)
        arrays = [c.cell_contents for c in out._backward.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        assert [(x.shape, x.dtype) for x in arrays] == [((6, 4), np.dtype(bool))]


class TestElu:
    # tiny, small, large and infinite values of both signs, subnormals and NaN
    GRID = np.array([1e-300, -1e-300, 5e-324, -5e-324, 1e-10, -1e-10, 0.0, 0.5, -0.5,
                     3.0, -3.0, 40.0, -40.0, 709.0, -745.0, 1e300, -1e300,
                     np.inf, -np.inf, np.nan])

    def test_matches_where_oracle_bit_for_bit(self):
        """Output and gradient equal the three-temporary formulas
        ``where(a > 0, a, expm1(a))`` and ``g * where(out > 0, 1, out + 1)``."""
        a = np.concatenate([self.GRID, np.random.default_rng(6).standard_normal(60) * 4.0])
        g = np.random.default_rng(7).standard_normal(a.shape)
        with np.errstate(over="ignore"):
            want = np.where(a > 0.0, a, np.expm1(a))
        want_grad = g * np.where(want > 0.0, 1.0, want + 1.0)
        x = Tensor(a.copy(), requires_grad=True)
        out = elu(x)
        sum_(mul(out, Tensor(g))).backward()
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()

    def test_negative_zero_gives_positive_zero(self):
        out = elu(Tensor(np.array([-0.0]))).data
        assert out[0] == 0.0 and not np.signbit(out[0])


def _add_at(shape, index, values):
    full = np.zeros(shape)
    np.add.at(full, index, values)
    return full


class TestScatterBackward:
    """Backward passes that scatter by ``np.bincount`` or by assignment give
    the bits ``np.add.at`` gives."""

    def _grad(self, op, x, seed):
        x = Tensor(x, requires_grad=True)
        out = op(x)
        g = np.random.default_rng(seed).standard_normal(out.shape)
        sum_(out * Tensor(g)).backward()
        return x.grad, g, out

    def test_embedding(self):
        idx = np.array([2, 0, 5, 2, 2, 31, 0])
        grad, g, _ = self._grad(lambda t: embedding_sum([t], idx[:, None]),
                                np.random.default_rng(0).standard_normal((32, 8)), 1)
        npt.assert_array_equal(grad, _add_at((32, 8), idx, g))

    @pytest.mark.parametrize("L", [1, 2, 5, 6, 48])
    def test_pools(self, L):
        x = np.random.default_rng(L).standard_normal((L, 4))
        grad, g, _ = self._grad(lambda t: pool1d(t, "avg"), x, 2)
        idx = -1 + 2 * np.arange(g.shape[0])[:, None] + np.arange(3)[None, :]
        valid = (idx >= 0) & (idx < L)
        jj, ii = np.nonzero(valid)
        counts = valid.sum(axis=1)
        npt.assert_array_equal(grad, _add_at(x.shape, idx[jj, ii], g[jj] / counts[jj, None]))

        grad, g, out = self._grad(lambda t: pool1d(t, "max"), x, 3)
        masked = np.where(valid[:, :, None], x[np.clip(idx, 0, L - 1)], -np.inf)
        rows = np.clip(idx, 0, L - 1)[np.arange(g.shape[0])[:, None], masked.argmax(axis=1)]
        cols = np.broadcast_to(np.arange(4), rows.shape)
        npt.assert_array_equal(grad, _add_at(x.shape, (rows, cols), g))

    def test_per_head_gather(self):
        x = np.random.default_rng(4).standard_normal((3, 9, 4))
        rows = np.array([[8, 0, 3], [1, 2, 7], [4, 6, 5]])
        key = (np.arange(3)[:, None], rows)
        grad, g, _ = self._grad(lambda t: t[key], x, 5)
        npt.assert_array_equal(grad, _add_at(x.shape, key, g))

    def test_repeated_rows_add_up(self):
        x = np.random.default_rng(9).standard_normal((5, 3))
        rows = np.array([3, 1, 1, 0, 3, 3])
        grad, g, _ = self._grad(lambda t: t[rows], x, 6)
        npt.assert_array_equal(grad, _add_at(x.shape, rows, g))


class TestPool1d:
    def test_max_hand_pooling(self):
        x = Tensor(np.array([[1.0], [3.0], [2.0], [4.0]]))
        out = pool1d(x, "max")
        npt.assert_array_equal(out.data.ravel(), [3, 4])

    def test_avg_hand_pooling(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        out = pool1d(x, "avg")
        npt.assert_array_equal(out.data.ravel(), [1.5, 3.0, 4.5])

    # ids name the one pool shape: kernel 3, stride 2, padding 1
    @pytest.mark.parametrize("kind", ["max", "avg"], ids=["3-2-1-max", "3-2-1-avg"])
    def test_constant_input_average_stays_constant(self, kind):
        x = Tensor(np.full((9, 2), 2.5))
        out = pool1d(x, kind)
        assert out.shape == (5, 2)
        npt.assert_array_equal(out.data, np.full(out.shape, 2.5))

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="too short to pool"):
            pool1d(Tensor(np.zeros((0, 1))), "avg")

    def test_max_dominates_avg(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = Tensor(rng.standard_normal((11, 3)))
            mx = pool1d(x, "max").data
            av = pool1d(x, "avg").data
            assert (mx >= av).all()


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_lastdim(Tensor(np.zeros(3)))
        npt.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    def test_closed_form(self):
        out = softmax_lastdim(Tensor(np.array([np.log(2.0), 0.0])))
        npt.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)

    def test_single_allowed_entry(self):
        out = softmax_lastdim(Tensor(np.array([5.0, 7.0])), mask=np.array([False, True]))
        npt.assert_array_equal(out.data, [1.0, 0.0])

    def test_rows_sum_to_one_and_masked_exact_zero(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 9)) * 30)
        mask = rng.random((6, 9)) < 0.4
        mask[:, 0] = False  # keep every row feasible
        out = softmax_lastdim(x, mask=mask).data
        npt.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)
        assert (out[mask] == 0.0).all()

    def test_fully_masked_row_errors(self):
        with pytest.raises(ValueError, match="empty attention row"):
            softmax_lastdim(Tensor(np.zeros((2, 3))),
                            mask=np.array([[True, True, True], [False, True, True]]))


class TestFiniteDiff:
    def test_quadratic(self):
        store = ParamStore()
        store.add("x", np.array(3.0))
        err = finite_diff_check(lambda p: p["x"] * p["x"], store)
        assert err < 1e-8

    def test_constant(self):
        store = ParamStore()
        store.add("x", np.array([1.0, 2.0]))
        err = finite_diff_check(lambda p: sum_(p["x"] * 0.0), store)
        assert err == 0.0

    def test_conv_mse(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        store.add("x", rng.standard_normal((8, 1)))
        store.add("k", rng.standard_normal((2, 1, 3)))
        target = rng.standard_normal((8, 2))

        def f(p):
            diff = conv1d_time(p["x"], p["k"], padding=1) - Tensor(target)
            return mean_(diff * diff)

        assert finite_diff_check(f, store) < 1e-6

    def test_bad_step_rejected(self):
        store = ParamStore()
        store.add("x", np.array(1.0))
        with pytest.raises(ValueError, match="step"):
            finite_diff_check(lambda p: p["x"] * p["x"], store, step=0.0)


def _scalarize(out: Tensor, rng) -> Tensor:
    weights = Tensor(rng.standard_normal(out.shape))
    return sum_(out * weights)


# Two heads of 6 rows: head 0 selects 3 rows, head 1 selects 1 and attends
# its first 2 lazy rows as padding.
_SELECTED = np.array([[True, False, True, False, False, True],
                      [False, False, False, True, False, False]])

PRIMITIVES = {
    "matmul": lambda p, rng: matmul(p["a"], transpose(p["b"])),
    "conv1d": lambda p, rng: conv1d_time(p["a"], p["conv_k"], padding=1),
    "conv1d_bias": lambda p, rng: conv1d_time(p["a"], p["conv_k"], 1, p["b"][0, :4]),
    "pool_max": lambda p, rng: pool1d(p["a"], "max"),
    "pool_avg": lambda p, rng: pool1d(p["a"], "avg"),
    "softmax": lambda p, rng: softmax_lastdim(p["a"]),
    "softmax_masked": lambda p, rng: softmax_lastdim(
        p["a"], mask=np.triu(np.ones((p["a"].shape[0], p["a"].shape[1]), bool), k=1)),
    "elu": lambda p, rng: elu(p["a"]),
    "relu": lambda p, rng: relu(p["a"]),
    "embedding": lambda p, rng: embedding_sum([p["a"]], np.array([[2], [0], [1], [2]])),
    # three tables, the middle one constant, with repeated rows in each
    "embedding_sum": lambda p, rng: embedding_sum(
        [p["a"], Tensor(np.arange(20.0).reshape(4, 5)), p["b"]],
        np.array([[5, 3, 0], [1, 0, 0], [5, 3, 2], [0, 1, 5], [1, 2, 0]])),
    "add": lambda p, rng: p["a"] + p["b"],
    "mul": lambda p, rng: p["a"] * p["b"],
    "mean_time": lambda p, rng: mean_(p["a"], axis=0, keepdims=True),
    "concat": lambda p, rng: concat([p["a"], p["b"]], axis=0),
    "slice": lambda p, rng: p["a"][2:5],
    "gather": lambda p, rng: p["a"][np.array([3, 1, 1, 0])],
    "matmul_heads": lambda p, rng: matmul(p["heads"][..., :2], p["heads"][:, :2, 2:]),
    "gather_heads": lambda p, rng: p["heads"][
        np.arange(2)[:, None], np.array([[3, 1, 4], [0, 5, 2]])],
    "attention_weights": lambda p, rng: attention_weights(
        p["heads"][..., :2], p["heads"][..., 2:], 0.7),
    "attention_weights_masked": lambda p, rng: attention_weights(
        p["heads"][..., :2], p["heads"][..., 2:], 0.7,
        mask=np.triu(np.ones((6, 6), bool), k=1)),
    "attention": lambda p, rng: attention(
        p["a"][:, :4], p["b"][:, :4], p["b"][:, 1:], 2, 0.7),
    "attention_causal": lambda p, rng: attention(
        p["a"][:, :4], p["b"][:, :4], p["b"][:, 1:], 2, 0.7, causal=True),
    "attention_selected": lambda p, rng: attention(
        p["a"][:, :4], p["b"][:, :4], p["b"][:, 1:], 2, 0.7, selected=_SELECTED),
    "attention_selected_causal": lambda p, rng: attention(
        p["a"][:, :4], p["b"][:, :4], p["b"][:, 1:], 2, 0.7, causal=True,
        selected=_SELECTED),
    # v twice as wide as q and k: dq and dk merge heads of width 1, dv of width 2
    "attention_wide_v": lambda p, rng: attention(
        p["a"][:, :2], p["b"][:, :2], p["b"][:, 1:], 2, 0.7, causal=True,
        selected=_SELECTED),
    "layer_norm": lambda p, rng: layer_norm(p["a"], p["b"][0], p["b"][1], 1e-5),
    "linear": lambda p, rng: linear(p["a"], p["b"][:5], p["b"][5]),
    "linear_no_bias": lambda p, rng: linear(p["a"], transpose(p["b"][:3])),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_reverse_gradient_contract(name):
    """Every primitive's tape gradient matches central differences (dims <= 12)."""
    rng = np.random.default_rng(sum(map(ord, name)))
    store = ParamStore()
    store.add("a", rng.standard_normal((6, 5)))
    store.add("b", rng.standard_normal((6, 5)))
    store.add("conv_k", rng.standard_normal((4, 5, 3)))
    store.add("heads", rng.standard_normal((2, 6, 4)))  # (H, L, d) stacks
    op = PRIMITIVES[name]
    check_rng = np.random.default_rng(99)
    weights_cache = {}

    def f(p):
        out = op(p, check_rng)
        if out.shape not in weights_cache:
            weights_cache[out.shape] = np.random.default_rng(1).standard_normal(out.shape)
        return sum_(out * Tensor(weights_cache[out.shape]))

    assert finite_diff_check(f, store) < 1e-4


def _op_leaves(requires_grad: bool) -> dict:
    rng = np.random.default_rng(12)
    shapes = {"a": (6, 4), "b": (6, 4), "w": (4, 3), "bias": (3,), "vec": (4,),
              "kernel": (2, 4, 3), "table": (7, 4), "table2": (3, 4), "conv_bias": (2,)}
    return {name: Tensor(rng.standard_normal(shape), requires_grad=requires_grad)
            for name, shape in shapes.items()}


# Every public op, keyed by function name ("[...]" marks a second form).
PUBLIC_OPS = {
    "add": lambda t: add(t["a"], t["b"]),
    "mul": lambda t: mul(t["a"], t["b"]),
    "relu": lambda t: relu(t["a"]),
    "elu": lambda t: elu(t["a"]),
    "dropout": lambda t: dropout(t["a"], 0.5, np.random.default_rng(0).random((6, 4)) >= 0.5),
    "linear": lambda t: linear(t["a"], t["w"], t["bias"]),
    "linear[no bias]": lambda t: linear(t["a"], t["w"]),
    "sum_": lambda t: sum_(t["a"], axis=0),
    "mean_": lambda t: mean_(t["a"]),
    "_getitem": lambda t: t["a"][1:4],
    "_getitem[rows]": lambda t: t["a"][np.array([3, 0, 3])],
    "attention": lambda t: attention(t["a"], t["b"], t["b"], 2, 0.5),
    "attention[causal]": lambda t: attention(t["a"], t["b"], t["b"], 2, 0.5, causal=True),
    "attention[selected]": lambda t: attention(t["a"], t["b"], t["b"], 2, 0.5,
                                               selected=_SELECTED),
    "attention[selected+causal]": lambda t: attention(t["a"], t["b"], t["b"], 2, 0.5,
                                                      causal=True, selected=_SELECTED),
    "layer_norm": lambda t: layer_norm(t["a"], t["vec"], t["vec"], 1e-5),
    "conv1d_time": lambda t: conv1d_time(t["a"], t["kernel"], padding=1),
    "conv1d_time[bias]": lambda t: conv1d_time(t["a"], t["kernel"], 1, t["conv_bias"]),
    "pool1d": lambda t: pool1d(t["a"], "max"),
    "pool1d[avg]": lambda t: pool1d(t["a"], "avg"),
    "embedding_sum": lambda t: embedding_sum([t["table"]], np.array([[6], [0], [2]])),
    "embedding_sum[k=3, one constant]": lambda t: embedding_sum(
        [t["table"], Tensor(np.ones((2, 4))), t["table2"]],
        np.array([[6, 1, 2], [0, 0, 2], [6, 1, 0]])),
}


class TestTensorBasics:
    def test_backward_needs_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (t * 2.0).backward()

    def test_no_grad_blocks_tape(self):
        """Under ``no_grad`` no public op records a node, whatever its inputs."""
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = sum_(t * 2.0)
        assert out._backward is None and not out.requires_grad
        with no_grad():
            outputs = {name: op(_op_leaves(True)) for name, op in PUBLIC_OPS.items()}
        for name, out in outputs.items():
            assert out._node is None and not out.requires_grad, name
            assert out._backward is None and out._parents == (), name

    def test_no_grad_is_per_thread(self):
        """Two threads' ``no_grad`` blocks that overlap as A enters, B
        enters, A exits, B exits leave recording on in both threads and in
        this one, where a backward afterwards fills the gradient."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def records():
            return sum_(Tensor(np.ones(2), requires_grad=True) * 2.0)._node is not None

        def thread_a():
            with no_grad():
                a_in.set()
                seen["a waited"] = b_in.wait(10)
                seen["a inside"] = records()
            seen["a after"] = records()
            a_out.set()

        def thread_b():
            seen["b waited"] = a_in.wait(10)
            with no_grad():
                b_in.set()
                seen["b waited again"] = a_out.wait(10)
            seen["b after"] = records()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a waited": True, "b waited": True, "b waited again": True,
                        "a inside": False, "a after": True, "b after": True}
        w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        sum_(w * w).backward()
        npt.assert_array_equal(w.grad, [3.0, -4.0])

    def test_constant_inputs_record_nothing(self):
        for name, op in PUBLIC_OPS.items():
            out = op(_op_leaves(False))
            assert out._node is None and not out.requires_grad, name

    def test_every_public_op_records_a_node(self):
        """The op table covers every public op, and each one records a node
        when an input requires gradients."""
        public = {name for name, f in vars(tensor_module).items()
                  if inspect.isfunction(f) and f.__module__ == tensor_module.__name__
                  and not name.startswith("_")}
        public -= {"no_grad", "finite_diff_check", "head_view"}
        assert public | {"_getitem"} == {name.split("[")[0] for name in PUBLIC_OPS}
        for name, op in PUBLIC_OPS.items():
            out = op(_op_leaves(True))
            assert out._node is not None and out.requires_grad, name
            assert out._node.shape == out.shape, name

    def test_broadcast_add_grad(self):
        store = ParamStore()
        store.add("m", np.random.default_rng(0).standard_normal((4, 3)))
        store.add("row", np.random.default_rng(1).standard_normal(3))
        w = np.random.default_rng(2).standard_normal((4, 3))
        err = finite_diff_check(lambda p: sum_((p["m"] + p["row"]) * Tensor(w)), store)
        assert err < 1e-6

    def test_paramstore_rejects_duplicates_and_keeps_order(self):
        store = ParamStore()
        store.add("b", np.zeros(2))
        store.add("a", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("a", np.zeros(2))
        assert store.names() == ["b", "a"]

    @pytest.mark.parametrize("names, message", [
        (["a", "b"], "parameter 'c' is missing from the source store"),
        (["a", "b", "c", "d"], "parameter 'd' is extra in the source store"),
        (["a", "c", "b"], "parameter 'b' is out of order: the source store has 'c' "
                          "at position 1"),
    ])
    def test_paramstore_copy_names_first_mismatch(self, names, message):
        store, other = ParamStore(), ParamStore()
        for name in ("a", "b", "c"):
            store.add(name, np.zeros(2))
        for name in names:
            other.add(name, np.ones(2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            store.copy_from(other)
        assert all((t.data == 0.0).all() for _, t in store.items())

    def test_paramstore_clone_is_independent(self):
        store = ParamStore()
        t = store.add("x", np.ones(2))
        other = store.clone()
        t.data[0] = 5.0
        assert other["x"].data[0] == 1.0

    def test_non_finite_parameter_rejected(self):
        store = ParamStore()
        with pytest.raises(ValueError, match="non-finite"):
            store.add("x", np.array([np.nan]))

    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            embedding_sum([Tensor(np.zeros((3, 2)))], np.array([[0], [3]]))


def _residual_stack(store: ParamStore, x: np.ndarray):
    """relu(linear(h, W_i) + h) over every weight in ``store``, reduced to a scalar;
    returns the loss and the activations it was built from."""
    h = Tensor(x)
    acts = []
    for name in store:
        h = relu(linear(h, store[name]) + h)
        acts.append(h)
    return sum_(h * h), acts


class TestTapeLifetime:
    def _store(self, layers=16, width=64):
        rng = np.random.default_rng(3)
        store = ParamStore()
        for i in range(layers):
            store.add(f"w{i}", rng.standard_normal((width, width)) / width)
        return store

    def test_leaves_keep_gradients_intermediates_drop_them(self):
        store = self._store(layers=4, width=8)
        loss, acts = _residual_stack(store, np.random.default_rng(4).standard_normal((5, 8)))
        loss.backward()
        for name, t in store.items():
            assert t.grad is not None and t.grad.shape == t.data.shape, name
        for t in acts + [loss]:
            assert t.grad is None and t._parents == ()

    def test_gradients_match_a_second_fresh_forward(self):
        """Freeing the tape changes no gradient: two forwards, two backwards,
        each leaf gradient exactly doubles."""
        store = self._store(layers=3, width=6)
        x = np.random.default_rng(5).standard_normal((4, 6))
        store.zero_grad()
        _residual_stack(store, x)[0].backward()
        first = {name: t.grad.copy() for name, t in store.items()}
        _residual_stack(store, x)[0].backward()
        for name, t in store.items():
            npt.assert_array_equal(t.grad, 2.0 * first[name])

    def test_consumed_tape_raises(self):
        store = self._store(layers=2, width=4)
        loss, acts = _residual_stack(store, np.ones((3, 4)))
        loss.backward()
        grads = {name: t.grad.copy() for name, t in store.items()}
        with pytest.raises(RuntimeError, match="consumed tape"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed tape"):
            sum_(acts[0] * 3.0).backward()
        for name, t in store.items():
            npt.assert_array_equal(t.grad, grads[name])

    def test_zero_grad_reuses_buffers(self):
        store = self._store(layers=2, width=4)
        store.zero_grad()
        buffers = {name: t.grad for name, t in store.items()}
        _residual_stack(store, np.ones((3, 4)))[0].backward()
        store.zero_grad()
        for name, t in store.items():
            assert t.grad is buffers[name]
            npt.assert_array_equal(t.grad, 0.0)
        store["w0"].data = np.zeros((2, 2))
        store.zero_grad()
        assert store["w0"].grad.shape == (2, 2)

    def test_tape_keeps_matmul_inputs_and_relu_masks(self):
        """Per layer the tape keeps the linear map's input and the ReLU's
        boolean mask: neither the linear output nor the add output outlives
        the forward."""
        store = self._store()
        x = np.random.default_rng(7).standard_normal((256, 64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss, acts = _residual_stack(store, x)
            del acts
            tape = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        inputs, masks = len(store) * x.nbytes, len(store) * x.size
        assert tape <= inputs + masks + 64 * 1024

    def test_backward_peak_stays_near_forward_tape(self):
        """Gradients of activations are freed as the walk passes them, so
        backward needs little beyond the tape it consumes, and almost
        nothing outlives it but the parameter gradients."""
        store = self._store()
        x = np.random.default_rng(6).standard_normal((1024, 64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss, acts = _residual_stack(store, x)
            del acts
            tape = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        param_grads = sum(t.grad.nbytes for _, t in store.items())
        assert tape > 10 * param_grads
        assert peak <= 1.2 * tape
        assert held <= param_grads + 64 * 1024



def _stacked_ops(rng, B, L, C):
    """The parameters of the ops the batched forward runs, and each op by
    name: (``f(x, extra, p)`` over one (L, C) window or a (B, L, C) stack
    with the parameters ``p``, the stack's ``extra``)."""
    params = {"w": rng.standard_normal((C, 5)), "b": rng.standard_normal(5),
              "kernel": rng.standard_normal((4, C, 3)), "conv_b": rng.standard_normal(4),
              "gain": rng.standard_normal(C), "shift": rng.standard_normal(C),
              "gamma": rng.standard_normal(()), "t0": rng.standard_normal((7, 3)),
              "t1": rng.standard_normal((4, 3))}
    heads = 2 if C % 2 == 0 else 1
    index = np.stack([rng.integers(0, 7, (B, L)), rng.integers(0, 4, (B, L))], -1)
    selected = rng.random((B, heads, L)) < 0.4
    selected[:, :, 0] = True  # a head of every window attends at least one row
    top_n = np.zeros((B, heads, L), dtype=bool)  # n rows in every head, as top-n gives
    np.put_along_axis(top_n, np.argsort(rng.random((B, heads, L)), axis=-1)[..., :3], True,
                      axis=-1)
    return params, {
        "linear": (lambda x, e, p: linear(x, p["w"], p["b"]), None),
        "conv pad 1": (lambda x, e, p: conv1d_time(x, p["kernel"], 1, p["conv_b"]), None),
        "conv pad 0": (lambda x, e, p: conv1d_time(x, p["kernel"], 0), None),
        "max pool": (lambda x, e, p: pool1d(x, "max"), None),
        "avg pool": (lambda x, e, p: pool1d(x, "avg"), None),
        "layer norm": (lambda x, e, p: layer_norm(x, p["gain"], p["shift"], 1e-5), None),
        "scalar times window": (lambda x, e, p: mul(p["gamma"], x), None),
        "window plus row": (lambda x, e, p: add(x, p["gain"]), None),
        "embedding": (lambda x, e, p: embedding_sum([p["t0"], p["t1"]], e), index),
        "attention": (lambda x, e, p: attention(x, x, x, heads, 0.3), None),
        "causal attention": (lambda x, e, p: attention(x, x, x, heads, 0.3, True), None),
        "sparse attention": (lambda x, e, p: attention(x, x, x, heads, 0.3, False, e),
                             selected),
        "causal sparse attention": (lambda x, e, p: attention(x, x, x, heads, 0.3, True, e),
                                    selected),
        "top-n attention": (lambda x, e, p: attention(x, x, x, heads, 0.3, False, e), top_n),
        "causal top-n attention": (lambda x, e, p: attention(x, x, x, heads, 0.3, True, e),
                                   top_n),
    }


class TestWindowStacks:
    """A leading window axis runs each window through the arithmetic of its
    own (L, C) call, forward and backward, so a stack gives each window its
    bits."""

    @pytest.mark.parametrize("B,L,C", [(3, 9, 4), (2, 8, 6), (1, 5, 3)])
    def test_stack_equals_each_window_bitwise(self, B, L, C):
        rng = np.random.default_rng(B * 100 + L)
        x = rng.standard_normal((B, L, C))
        params, ops = _stacked_ops(rng, B, L, C)
        for name, (op, extra) in ops.items():
            with no_grad():
                stacked = op(x, extra, params).data
                for i in range(B):
                    one = op(x[i], None if extra is None else extra[i], params).data
                    assert stacked[i].tobytes() == one.tobytes(), (name, i)

    @pytest.mark.parametrize("block", ["whole", "2 rows"])
    @pytest.mark.parametrize("name", list(_stacked_ops(np.random.default_rng(0), 2, 6, 4)[1]))
    def test_backward_equals_each_window(self, name, block, monkeypatch):
        """One backward through a stack of windows gives each window's input
        the gradient of its own one-window backward, and each parameter the
        B one-window backwards' terms added in window order onto the
        gradient it already had, bit for bit: no term is summed over the
        window axis first.  Sparse heads select different row counts per
        window, or n rows each as the top-n selection does; the attention
        backward walks its rows in one block, or two rows at a time."""
        if block == "2 rows":
            monkeypatch.setattr(tensor_module, "_ATTENTION_BLOCK", 2 * 2 * 6)
        rng = np.random.default_rng(1)
        params, ops = _stacked_ops(rng, 3, 6, 4)
        op, extra = ops[name]
        x = rng.standard_normal((3, 6, 4))
        prior = {key: rng.standard_normal(np.shape(value)) for key, value in params.items()}
        weights = None
        runs = []
        for stacked in (True, False):
            p = {key: Tensor(value, requires_grad=True) for key, value in params.items()}
            for key, t in p.items():
                t.grad = prior[key].copy()
            if stacked:
                leaf = Tensor(x, requires_grad=True)
                out = op(leaf, extra, p)
                weights = np.random.default_rng(2).standard_normal(out.shape)
                sum_(out * Tensor(weights)).backward()
                x_grads = [leaf.grad]
            else:
                x_grads = []
                for i in range(3):
                    leaf = Tensor(x[i], requires_grad=True)
                    out = op(leaf, None if extra is None else extra[i], p)
                    sum_(out * Tensor(weights[i])).backward()
                    x_grads.append(leaf.grad)
            runs.append((x_grads, {key: t.grad for key, t in p.items()}))
        (stacked_x, stacked_p), (window_x, window_p) = runs
        if window_x[0] is not None:
            for i, grad in enumerate(window_x):
                assert stacked_x[0][i].tobytes() == grad.tobytes(), i
        for key, grad in window_p.items():
            assert stacked_p[key].tobytes() == grad.tobytes(), key
