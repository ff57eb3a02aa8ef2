import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avsep import tensor as T
from avsep.errors import GeometryError
from avsep.tensor import Tensor, finite_difference_grad


def _leaf(data, **kw):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True, **kw)


class TestConstruction:
    def test_non_float_coerced_to_f32(self):
        t = Tensor([1, 2])
        assert t.dtype == np.float32

    def test_f64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, math.nan])
        with pytest.raises(ValueError):
            Tensor([math.inf])

    def test_op_results_not_scanned(self):
        # finiteness is checked where data enters and leaves, not per op,
        # whether or not the op is on the tape
        for requires_grad in (False, True):
            with np.errstate(divide="ignore"):
                y = T.log(Tensor([0.0, 1.0], requires_grad=requires_grad))
            np.testing.assert_array_equal(y.data, [-np.inf, 0.0])

    def test_item_requires_scalar(self):
        with pytest.raises(GeometryError):
            Tensor([1.0, 2.0]).item()
        assert Tensor([[3.0]]).item() == 3.0


class TestBroadcastRules:
    """Operands of an element-wise op have equal shapes, or one is 0-d."""

    @pytest.mark.parametrize("sa, sb", [
        ((2, 3), (3,)),  # rank mismatch
        ((2, 3), (3, 2)),  # general numpy broadcast
        ((2, 3), (2, 1)),  # a size-1 axis
        ((2, 3), (1, 1, 1)),  # size 1, but of higher rank: it would reshape the result
        ((2, 3), (1,)),
    ], ids=["rank", "numpy_broadcast", "axis_of_one", "size_one_higher_rank", "size_one"])
    @pytest.mark.parametrize("op", [T.ew_add, T.ew_sub, T.ew_mul])
    def test_other_shape_pairs_are_rejected(self, op, sa, sb):
        a, b = _leaf(np.ones(sa)), _leaf(np.ones(sb))
        with pytest.raises(GeometryError):
            op(a, b)
        with pytest.raises(GeometryError):
            op(b, a)

    def test_scalar_broadcasts_freely(self):
        a = _leaf(np.ones((2, 3)))
        s = _leaf(np.array(2.0))
        assert T.ew_mul(a, s).shape == (2, 3)
        assert T.ew_sub(s, a).shape == (2, 3)

    @pytest.mark.parametrize("shape", [(1, 1000), (3, 50)])
    @pytest.mark.parametrize("op", [T.ew_add, T.ew_sub, T.ew_mul])
    @pytest.mark.parametrize("scalar_first", [True, False])
    def test_scalar_gradient_is_the_per_axis_rules_sum(self, op, shape, scalar_first, rng):
        # bit for bit what the earlier per-axis rule gave a 0-d operand: a sum
        # over the leading axes it padded, then a reshape to ()
        a = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        s = Tensor(np.float32(0.7), requires_grad=True)
        w = rng.standard_normal(shape).astype(np.float32)
        y = op(s, a) if scalar_first else op(a, s)
        T.sum_all(T.ew_mul(y, Tensor(w))).backward()
        g = np.ones(shape, np.float32) * w  # the upstream gradient of y
        if op is T.ew_mul:
            g = g * a.data
        elif op is T.ew_sub and scalar_first is False:
            g = -g
        want = g.sum(axis=tuple(range(g.ndim))).reshape(())
        assert s.grad.shape == () and s.grad.dtype == np.float32
        np.testing.assert_array_equal(s.grad, want)


class TestBackward:
    def test_requires_scalar_root(self):
        a = _leaf(np.ones(3))
        with pytest.raises(GeometryError):
            T.ew_add(a, a).backward()

    def test_fanout_accumulates(self):
        # y = x*x + x  =>  dy/dx = 2x + 1
        x = _leaf([1.5, -2.0, 0.25])
        T.sum_all(T.ew_add(T.ew_mul(x, x), x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)

    def test_shared_subgraph_visited_once(self):
        x = _leaf([2.0])
        h = T.ew_mul(x, x)
        y = T.ew_add(h, h)  # y = 2x^2, dy/dx = 4x
        T.sum_all(y).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_no_grad_without_requires(self):
        a = Tensor(np.ones(3, dtype=np.float64))
        b = _leaf(np.ones(3))
        T.sum_all(T.ew_mul(a, b)).backward()
        assert a.grad is None
        np.testing.assert_allclose(b.grad, np.ones(3))


class TestTapeMemory:
    def _graph(self):
        x = _leaf([1.0, 2.0])
        w = _leaf([3.0, 5.0])
        h = T.ew_mul(x, w)
        y = T.sigmoid(h)
        loss = T.sum_all(T.ew_add(T.ew_mul(y, h), x))
        return x, w, (h, y, loss), loss

    def test_requires_grad_is_true_exactly_on_the_tape(self):
        plain, marked = Tensor([1.0]), _leaf([1.0])
        assert not T.scale(plain, 2.0).requires_grad
        assert not T.ew_mul(plain, plain).requires_grad
        assert T.scale(marked, 2.0).requires_grad
        assert T.ew_mul(plain, T.scale(marked, 2.0)).requires_grad
        x, w, nodes, loss = self._graph()
        assert all(n.requires_grad for n in nodes)
        loss.backward()
        assert not any(n.requires_grad for n in nodes)  # every walked node
        assert x.requires_grad and w.requires_grad and marked.requires_grad

    def test_second_backward_doubles_the_leaf_grads(self):
        x, w = _leaf([1.0, 2.0]), _leaf([3.0, 5.0])
        T.sum_all(T.ew_mul(x, w)).backward()
        np.testing.assert_array_equal(x.grad, [3.0, 5.0])
        first = x.grad
        # the same graph built again: stale intermediate grads would make this [9, 15]
        T.sum_all(T.ew_mul(x, w)).backward()
        assert x.grad is first  # added into the buffer the leaf owns
        np.testing.assert_array_equal(x.grad, [6.0, 10.0])
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_a_node_is_freed_before_its_parents_backward_runs(self, refcount_only):
        # x -> a -> b -> loss. Tensor has no __weakref__, so b is watched
        # through its data, which sigmoid's backward also saves
        x = _leaf([0.5, -1.0])
        a = T.scale(x, 2.0)
        b = T.sigmoid(a)
        b_alive, loss = weakref.ref(b.data), T.sum_all(b)
        del b
        alive_in_a = []
        back_a = a._backward

        def spy(g):
            alive_in_a.append(b_alive() is not None)
            back_a(g)

        a._backward = spy
        assert b_alive() is not None
        loss.backward()
        assert alive_in_a == [False]
        assert not a.requires_grad and a.grad is None
        y = 1.0 / (1.0 + np.exp(-2.0 * x.data))
        np.testing.assert_allclose(x.grad, 2.0 * y * (1.0 - y), rtol=1e-15)

    def test_a_walked_root_is_plain_data(self):
        x, w, nodes, loss = self._graph()
        loss.backward()
        for n in nodes:
            assert not n.requires_grad and n.grad is None
        assert x.requires_grad and w.requires_grad  # marked leaves stay marked

    def test_a_second_backward_raises_and_changes_no_grad(self):
        x, w, _, loss = self._graph()
        loss.backward()
        before = [x.grad.tobytes(), w.grad.tobytes()]
        grads = [x.grad, w.grad]
        with pytest.raises(GeometryError, match="off the tape"):
            loss.backward()
        assert x.grad is grads[0] and w.grad is grads[1]
        assert [x.grad.tobytes(), w.grad.tobytes()] == before

    def test_a_loss_that_shares_a_walked_node_raises_and_changes_no_grad(self):
        x = _leaf([1.0, 2.0])
        h = T.scale(x, 3.0)
        first, second = T.sum_all(h), T.sum_all(T.ew_mul(h, h))
        first.backward()
        before = x.grad.tobytes()
        with pytest.raises(GeometryError, match="walked already"):
            second.backward()  # through h, whose backward first.backward() consumed
        assert x.grad.tobytes() == before and second.requires_grad

    def test_a_loss_no_marked_leaf_reaches_raises_and_changes_no_grad(self):
        x = _leaf([1.0, 2.0])
        x.grad = np.array([4.0, 8.0])
        before = x.grad.tobytes()
        loss = T.sum_all(T.ew_mul(Tensor([3.0, 5.0], dtype=np.float64),
                                  Tensor([1.0, 1.0], dtype=np.float64)))
        with pytest.raises(GeometryError, match="off the tape"):
            loss.backward()
        assert loss.grad is None and x.grad.tobytes() == before

    def test_non_leaf_grads_are_freed_and_leaf_grads_kept(self):
        x, w, nodes, loss = self._graph()
        loss.backward()
        assert all(n.grad is None for n in nodes)
        h = x.data * w.data
        y = 1.0 / (1.0 + np.exp(-h))
        dh = h * y * (1.0 - y) + y  # d(y*h)/dh
        np.testing.assert_allclose(x.grad, dh * w.data + 1.0, rtol=1e-15)
        np.testing.assert_allclose(w.grad, dh * x.data, rtol=1e-15)


class TestTape:
    def _diamond(self):
        # x -> a, b -> a*b -> loss, with a plain leaf c beside x under b
        x, c = _leaf([0.5, -1.5]), Tensor([3.0, 2.0], dtype=np.float64)
        a, b = T.scale(x, 2.0), T.ew_mul(x, c)
        ab = T.ew_mul(a, b)
        return x, (a, b, ab), T.sum_all(ab)

    def test_lists_each_op_node_once_after_its_parents_and_no_leaf(self):
        _, (a, b, ab), loss = self._diamond()
        tape = loss.tape()
        # parents are entered last to first, so b's branch is listed before a's
        assert [id(n) for n in tape] == [id(b), id(a), id(ab), id(loss)]
        listed = {id(n): i for i, n in enumerate(tape)}
        for i, node in enumerate(tape):
            assert all(listed[id(p)] < i for p in node._parents if p._parents)
        assert all(node._parents for node in tape)

    def test_backward_runs_the_tape_from_its_end(self):
        x, _, loss = self._diamond()
        tape, ran = loss.tape(), []
        for node in tape:
            def spy(g, node=node, back=node._backward):
                ran.append(id(node))
                back(g)
            node._backward = spy
        loss.backward()
        assert ran == [id(n) for n in reversed(tape)]
        np.testing.assert_array_equal(x.grad, 2.0 * 2.0 * x.data * np.array([3.0, 2.0]))

    def test_a_leaf_root_and_a_walked_root_have_an_empty_tape(self):
        assert Tensor([1.0]).tape() == [] and _leaf([1.0]).tape() == []
        _, _, loss = self._diamond()
        loss.backward()
        assert loss.tape() == []

    def test_a_loss_that_shares_a_walked_node_raises(self):
        _, (_, b, _), loss = self._diamond()
        second = T.sum_all(b)
        loss.backward()
        with pytest.raises(GeometryError, match="walked already"):
            second.tape()


class TestOpGradients:
    @pytest.mark.parametrize("op", [T.ew_add, T.ew_sub, T.ew_mul])
    def test_binary_ops_match_finite_difference(self, op, rng):
        a = _leaf(rng.uniform(0.5, 2.0, (3, 4)))
        b = _leaf(rng.uniform(0.5, 2.0, (3, 4)))
        w = rng.uniform(-1, 1, (3, 4))
        T.sum_all(T.ew_mul(op(a, b), Tensor(w, dtype=np.float64))).backward()

        def f_a(x):
            return float((op(Tensor(x), Tensor(b.data)).data * w).sum())

        def f_b(x):
            return float((op(Tensor(a.data), Tensor(x)).data * w).sum())

        np.testing.assert_allclose(a.grad, finite_difference_grad(f_a, a.data), rtol=1e-6)
        np.testing.assert_allclose(b.grad, finite_difference_grad(f_b, b.data), rtol=1e-6)

    @pytest.mark.parametrize("op,dom", [
        (T.sigmoid, (-3, 3)), (T.log, (0.5, 4.0)),
    ])
    def test_unary_ops_match_finite_difference(self, op, dom, rng):
        x = _leaf(rng.uniform(*dom, (2, 5)))
        w = rng.uniform(-1, 1, (2, 5))
        T.sum_all(T.ew_mul(op(x), Tensor(w, dtype=np.float64))).backward()

        def f(v):
            return float((op(Tensor(v)).data * w).sum())

        np.testing.assert_allclose(x.grad, finite_difference_grad(f, x.data),
                                   rtol=1e-6, atol=1e-9)

    def test_relu_subgradient_away_from_zero(self, rng):
        x = _leaf([-1.0, -0.3, 0.4, 2.0])
        T.sum_all(T.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])

    def test_scale_grad(self):
        x = _leaf([1.0, 2.0])
        T.sum_all(T.scale(x, -2.5)).backward()
        np.testing.assert_allclose(x.grad, [-2.5, -2.5])


class TestNumerics:
    def test_sigmoid_stable_at_extremes(self):
        y = T.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0], atol=1e-7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_edges_match_float64_formula_without_warnings(self, dtype):
        x = np.array([-1000, -100, -88.8, 0, 88.8, 100, 1000], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = T.sigmoid(Tensor(x)).data
        assert y.dtype == dtype
        assert np.all(np.isfinite(y)) and np.all((y >= 0) & (y <= 1))
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        # below the smallest normal (x < -88 at float32) the result may be 0
        fi = np.finfo(dtype)
        np.testing.assert_allclose(y, want, rtol=fi.eps, atol=fi.tiny)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_sum_all_matches_numpy(self, values):
        arr = np.array(values, dtype=np.float64)
        assert T.sum_all(Tensor(arr)).item() == pytest.approx(arr.sum(), rel=1e-12, abs=1e-9)


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        g = finite_difference_grad(lambda v: float((v ** 2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, atol=1e-8)

    def test_steps_each_entry_by_fd_eps_and_restores_it(self):
        x = np.array([0.5, -1.5])
        seen = []
        finite_difference_grad(lambda v: seen.append(v.copy()) or 0.0, x)
        want = [x + s * T.FD_EPS * np.eye(2)[i] for i in range(2) for s in (1, -1)]
        np.testing.assert_array_equal(seen, want)
        np.testing.assert_array_equal(x, [0.5, -1.5])
