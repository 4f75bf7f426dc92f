import numpy as np
import pytest
from numpy.testing import assert_allclose

from sievesim.network import ReluNetwork


def finite_difference_gradient(net, x, y, index, h=1e-5):
    """Central difference of the loss along one parameter coordinate."""
    theta = net.param_vector()
    bumped = theta.copy()
    bumped[index] = theta[index] + h
    net.set_param_vector(bumped)
    up = net.loss(x, y)
    bumped[index] = theta[index] - h
    net.set_param_vector(bumped)
    down = net.loss(x, y)
    net.set_param_vector(theta)
    return (up - down) / (2.0 * h)


class TestForward:
    def test_shapes(self):
        net = ReluNetwork([3, 8, 4, 1], seed=0)
        rng = np.random.default_rng(1)
        x = rng.random((10, 3))
        assert net.forward(x).shape == (10,)

    def test_layer_dims_validation(self):
        with pytest.raises(ValueError):
            ReluNetwork([3], seed=0)
        with pytest.raises(ValueError):
            ReluNetwork([3, 8, 2], seed=0)

    def test_deterministic_init(self):
        a = ReluNetwork([2, 5, 1], seed=7)
        b = ReluNetwork([2, 5, 1], seed=7)
        assert_allclose(a.param_vector(), b.param_vector(), rtol=0, atol=0)

    def test_relu_kills_negative_preactivations(self):
        # With all weights forced negative and nonnegative inputs, the single
        # hidden layer outputs only its bias path.
        net = ReluNetwork([1, 4, 1], seed=3)
        (w1, w2), (b1, b2) = net.weights, net.biases
        w1[:] = -1.0
        b1[:] = -0.5
        rng = np.random.default_rng(4)
        x = rng.random((6, 1))
        assert_allclose(net.forward(x), np.full(6, float(b2[0])), rtol=1e-14)


class TestParamVector:
    def test_round_trip(self):
        net = ReluNetwork([4, 6, 3, 1], seed=5)
        theta = net.param_vector()
        assert theta.size == net.num_params
        other = ReluNetwork([4, 6, 3, 1], seed=99)
        other.set_param_vector(theta)
        assert_allclose(other.param_vector(), theta, rtol=0, atol=0)

    def test_gradient_is_one_vector_and_layers_are_views(self):
        net = ReluNetwork([3, 5, 4, 1], seed=16)
        rng = np.random.default_rng(17)
        x = rng.random((7, 3))
        y = rng.standard_normal(7)
        _, grad = net.loss_and_grad(x, y)
        assert grad.shape == (net.num_params,)
        # param_vector() order ends with the output bias, whose gradient is
        # the mean of twice the residual.
        assert_allclose(grad[-1], 2.0 * np.mean(net.forward(x) - y), rtol=1e-12)
        assert not np.shares_memory(grad, net.vector)
        assert not np.shares_memory(net.param_vector(), net.vector)
        for p in (*net.weights, *net.biases):
            assert np.shares_memory(p, net.vector)
        before = net.forward(x)
        stepped = net.param_vector() - 0.1 * grad
        net.set_param_vector(stepped)
        assert net.weights[0][0, 0] == stepped[0] and net.biases[-1][0] == stepped[-1]
        assert not np.array_equal(net.forward(x), before)

    def test_gradient_survives_a_later_call(self):
        # Without a workspace each call returns a gradient of its own, so a
        # later call, here on a different row count, leaves it as it was.
        net = ReluNetwork([3, 6, 4, 1], seed=18)
        rng = np.random.default_rng(19)
        x, y = rng.random((9, 3)), rng.standard_normal(9)
        _, grad = net.loss_and_grad(x, y)
        kept = grad.copy()
        _, other = net.loss_and_grad(x[:5], y[:5])
        assert np.array_equal(grad, kept)
        assert not np.shares_memory(grad, other)

    def test_workspace_gives_the_fresh_bits(self):
        # One workspace across row counts that shrink and grow: each call's
        # loss and gradient equal a fresh call's bit for bit, and the
        # gradient lives in the workspace, so the next call overwrites it.
        net = ReluNetwork([3, 6, 4, 1], seed=20)
        rng = np.random.default_rng(21)
        x, y = rng.random((12, 3)), rng.standard_normal(12)
        work, grads = {}, []
        for rows in (9, 5, 12, 9):
            loss, grad = net.loss_and_grad(x[:rows], y[:rows], work=work)
            fresh_loss, fresh_grad = net.loss_and_grad(x[:rows], y[:rows])
            assert loss == fresh_loss
            assert np.array_equal(grad.view(np.uint64), fresh_grad.view(np.uint64))
            grads.append(grad)
        # 5 rows reuse the 9-row buffers; 12 rows outgrow them.
        assert np.shares_memory(grads[0], grads[1]) and np.shares_memory(grads[2], grads[3])
        assert not np.shares_memory(grads[1], grads[2])

    def test_wrong_length_rejected(self):
        net = ReluNetwork([2, 3, 1], seed=6)
        with pytest.raises(ValueError):
            net.set_param_vector(np.zeros(net.num_params + 1))


class TestGradient:
    def test_matches_finite_differences(self):
        """Backprop agrees with central differences on 20 random coordinates.

        Perturbation 1e-5 in double precision; relative error under 1e-4
        (the acceptance threshold) and typically far smaller.
        """
        net = ReluNetwork([3, 16, 8, 1], seed=8)
        rng = np.random.default_rng(9)
        x = rng.random((40, 3))
        y = rng.standard_normal(40)
        _, flat = net.loss_and_grad(x, y)
        picks = rng.choice(net.num_params, size=20, replace=False)
        for index in picks:
            fd = finite_difference_gradient(net, x, y, int(index))
            scale = max(abs(fd), 1e-8)
            assert abs(flat[index] - fd) / scale < 1e-4

    def test_loss_value_matches_mse(self):
        net = ReluNetwork([2, 4, 1], seed=10)
        rng = np.random.default_rng(11)
        x = rng.random((15, 2))
        y = rng.standard_normal(15)
        resid = net.forward(x) - y
        assert_allclose(net.loss(x, y), np.mean(resid ** 2), rtol=1e-14)

    def test_loss_and_grad_loss_consistent(self):
        net = ReluNetwork([2, 4, 1], seed=12)
        rng = np.random.default_rng(13)
        x = rng.random((9, 2))
        y = rng.standard_normal(9)
        loss, _ = net.loss_and_grad(x, y)
        assert_allclose(loss, net.loss(x, y), rtol=1e-14)

    def test_gradient_descends(self):
        net = ReluNetwork([1, 8, 1], seed=14)
        rng = np.random.default_rng(15)
        x = rng.random((30, 1))
        y = 2.0 * x[:, 0] - 1.0
        loss0, flat = net.loss_and_grad(x, y)
        theta = net.param_vector()
        net.set_param_vector(theta - 1e-3 * flat)
        assert net.loss(x, y) < loss0
