"""The autodiff engine: rank-4 tensors, op gradients, graph traversal."""

import numpy as np
import pytest

import gdclab.tensor as T
from gdclab.errors import ContractError, NumericError, ShapeError


def randt(rng, shape, scale=1.0):
    return T.Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


def scalar(value, requires_grad=False):
    return T.Tensor(np.full((1, 1, 1, 1), value, dtype=np.float64), requires_grad=requires_grad)


class TestTensorBasics:
    def test_rank_enforced(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_scalar_helpers(self):
        s = scalar(2.5)
        assert s.shape == (1, 1, 1, 1)
        assert s.item() == 2.5
        total = T.sum_all(T.Tensor(np.ones((2, 3, 4, 5))))
        assert total.shape == (1, 1, 1, 1) and total.item() == 120.0

    def test_item_rejects_nonscalar(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((1, 2, 1, 1))).item()

    def test_default_dtype_context(self):
        # non-float data is cast to float32
        ints = np.zeros((1, 1, 1, 1), dtype=np.int64)
        assert T.Tensor(ints).dtype == np.float32


class TestForwardValues:
    def test_arithmetic(self):
        a = T.Tensor(np.full((1, 2, 2, 2), 6.0))
        b = T.Tensor(np.full((1, 2, 2, 2), 3.0))
        assert np.all(T.add(a, b).data == 9.0)
        assert np.all(T.sub(a, b).data == 3.0)
        assert np.all(T.mul(a, b).data == 18.0)
        assert np.all(T.scale(a, 0.5).data == 3.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor(np.zeros((1, 1, 2, 2))), T.Tensor(np.zeros((1, 1, 2, 3))))

    def test_concat_slice_crop(self):
        rng = np.random.default_rng(0)
        a = T.Tensor(rng.normal(size=(1, 2, 3, 3)))
        b = T.Tensor(rng.normal(size=(1, 3, 3, 3)))
        cat = T.concat_channels([a, b])
        assert cat.shape == (1, 5, 3, 3)
        assert np.array_equal(T.slice_channels(cat, 0, 2).data, a.data)
        assert np.array_equal(T.slice_channels(cat, 2, 5).data, b.data)
        crop = T.crop_spatial(b, 0, 2, 1, 3)
        assert np.array_equal(crop.data, b.data[:, :, 0:2, 1:3])

    def test_reductions(self):
        a = T.Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        assert T.sum_all(a).item() == 28.0
        assert T.mean_all(a).item() == 3.5


class TestBackward:
    def test_requires_scalar_loss(self):
        a = T.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.add(a, a))

    def test_rejects_nonfinite_loss(self):
        a = scalar(np.inf, requires_grad=True)
        with pytest.raises(NumericError):
            T.backward(T.sum_all(a))

    def test_rejects_grad_free_loss(self):
        with pytest.raises(ContractError):
            T.backward(scalar(1.0))

    def test_simple_chain(self):
        a = scalar(3.0, requires_grad=True)
        loss = T.sum_all(T.mul(a, a))
        T.backward(loss)
        assert a.grad[0, 0, 0, 0] == pytest.approx(6.0)

    def test_grad_accumulates_across_uses(self):
        a = scalar(2.0, requires_grad=True)
        loss = T.sum_all(T.add(T.mul(a, a), a))   # a^2 + a -> 2a + 1 = 5
        T.backward(loss)
        assert a.grad[0, 0, 0, 0] == pytest.approx(5.0)

    def test_no_grad_builds_no_graph(self):
        a = scalar(2.0, requires_grad=True)
        with T.no_grad():
            out = T.mul(a, a)
        assert not out.requires_grad
        # a graph built on it stays grad-free, so there is nothing to sweep
        with pytest.raises(ContractError):
            T.backward(T.sum_all(out))
        assert a.grad is None

    def test_diamond_graph(self):
        # loss = (a+a) * (a+a) = 4 a^2 -> grad 8a
        a = scalar(1.5, requires_grad=True)
        s = T.add(a, a)
        T.backward(T.sum_all(T.mul(s, s)))
        assert a.grad[0, 0, 0, 0] == pytest.approx(12.0)

    def test_joint_edges_share_one_pass(self):
        # a node whose shares come from one grads() call runs it once per
        # backward, and an input that needs no gradient gets no edge
        a, b = scalar(2.0, requires_grad=True), scalar(3.0, requires_grad=True)
        calls = []

        def grads(g):
            calls.append(g)
            return g * b.data, g * a.data, g

        out = T._node(a.data * b.data, "joint", *T._joint_edges(grads, a, b, scalar(1.0)))
        assert len(out._edges) == 2
        T.backward(T.sum_all(out))
        assert len(calls) == 1 and a.grad.item() == 3.0 and b.grad.item() == 2.0

    def test_deep_chain_iterative(self):
        # deep graphs must not hit the recursion limit
        a = scalar(1.0, requires_grad=True)
        cur = a
        for _ in range(3000):
            cur = T.scale(cur, 1.0)
        T.backward(T.sum_all(cur))
        assert a.grad[0, 0, 0, 0] == 1.0


class TestGradCheck:
    """Central-difference verification of every op's backward rule."""

    @pytest.mark.parametrize("seed", range(3))
    def test_arithmetic_ops(self, seed):
        # operands bounded away from zero keep every coordinate's gradient
        # large relative to finite-difference noise
        rng = np.random.default_rng(seed)
        a = T.Tensor(rng.uniform(0.5, 1.5, size=(2, 3, 4, 4)), requires_grad=True)
        b = T.Tensor(rng.uniform(1.0, 2.0, size=(2, 3, 4, 4)), requires_grad=True)

        def f(x, y):
            s = T.add(T.sub(T.mul(x, y), T.scale(y, 0.3)), x)
            return T.sum_all(T.mul(s, s))

        assert T.grad_check(f, [a, b]) < 1e-7

    @pytest.mark.parametrize("seed", range(3))
    def test_structure_ops(self, seed):
        rng = np.random.default_rng(10 + seed)
        a = randt(rng, (1, 2, 4, 4))
        b = randt(rng, (1, 3, 4, 4))

        def f(x, y):
            cat = T.concat_channels([x, y])
            sl = T.slice_channels(cat, 1, 4)
            cr = T.crop_spatial(sl, 1, 4, 0, 3)
            return T.sum_all(T.mul(cr, cr))

        assert T.grad_check(f, [a, b]) < 1e-7

    def test_mean_and_broadcast(self):
        # the gradient of a mean is broadcast back over every element;
        # operands bounded away from zero keep each coordinate's gradient
        # large relative to finite-difference noise
        rng = np.random.default_rng(5)
        a = T.Tensor(rng.uniform(0.5, 1.5, size=(2, 3, 4, 4)), requires_grad=True)

        def f(x):
            return T.mean_all(T.mul(x, x))

        assert T.grad_check(f, [a]) < 1e-8

    def test_grad_check_rejects_float32(self):
        a = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            T.grad_check(lambda x: T.sum_all(x), [a])
