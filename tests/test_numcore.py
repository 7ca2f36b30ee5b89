"""Unit checks for the dense-network numerics against loop/FD oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metashop.errors import EmptyBatchError, NumericError, ShapeError
from metashop.numcore import (
    Activation,
    DenseLayerParams,
    LossKind,
    MlpParams,
    ModelParameters,
    ModelVariant,
    adam_init,
    init_joint,
    init_mlp,
    init_two_tower,
    loss_and_pred_grad,
    loss_gradient,
    mlp_backward,
    mlp_forward_trace,
    model_forward_trace,
    sgd_step,
    sigmoid,
    tree_allclose,
    tree_check_finite,
    tree_leaves,
    tree_map,
)
from metashop.models import build_categorical_encoder

from oracles import (
    adam_step,
    adam_trace_scalar,
    bce_loss_loop,
    central_fd_grad,
    grads_close,
    mlp_backward_with_derivs,
    mlp_forward_loop,
    sigmoid_masked,
    squared_loss_loop,
    tree_add,
)


def one_param_model(theta: float) -> ModelParameters:
    """y_hat = theta * x as a bias-free joint MLP (user dim 1, item dim 0)."""
    layer = DenseLayerParams(np.array([[theta]]), None)
    return ModelParameters(
        ModelVariant.JOINT,
        joint=MlpParams((layer,), (Activation.IDENTITY,)),
    )


def forward_one(mlp: MlpParams, x) -> np.ndarray:
    """One input vector through the batched forward pass."""
    out, _ = mlp_forward_trace(mlp, np.asarray(x, dtype=np.float64)[None, :])
    return out[0]


def score(params: ModelParameters, u, v) -> float:
    """The raw score of one (user, item) pair."""
    raw, _ = model_forward_trace(params, np.atleast_2d(u), np.atleast_2d(v))
    return float(raw[0])


class TestForward:
    def test_single_linear_layer_example(self):
        layer = DenseLayerParams(np.array([[2.0]]), np.array([1.0]))
        mlp = MlpParams((layer,), (Activation.IDENTITY,))
        out = forward_one(mlp, np.array([3.0]))
        np.testing.assert_allclose(out, [7.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            dims = [int(d) for d in rng.integers(1, 6, size=rng.integers(2, 5))]
            final = rng.choice([Activation.IDENTITY, Activation.SIGMOID])
            mlp = init_mlp(dims, np.random.default_rng(trial), final_activation=final)
            x = rng.normal(size=dims[0])
            got = forward_one(mlp, x)
            want = mlp_forward_loop(mlp, x)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(3)
        mlp = init_mlp([4, 5, 2], rng)
        xs = rng.normal(size=(6, 4))
        batch, _ = mlp_forward_trace(mlp, xs)
        for i in range(6):
            np.testing.assert_allclose(batch[i], forward_one(mlp, xs[i]))

    def test_two_tower_is_dot_of_towers(self):
        rng = np.random.default_rng(5)
        params = init_two_tower([3, 4, 2], [2, 4, 2], rng)
        u = rng.normal(size=3)
        v = rng.normal(size=2)
        hu = mlp_forward_loop(params.user_tower, u)
        hi = mlp_forward_loop(params.item_tower, v)
        want = sum(a * b for a, b in zip(hu, hi))
        assert math.isclose(score(params, u, v), want, rel_tol=1e-12)

    def test_joint_is_mlp_on_concat(self):
        rng = np.random.default_rng(7)
        params = init_joint([5, 4, 1], rng)
        u = rng.normal(size=3)
        v = rng.normal(size=2)
        want = mlp_forward_loop(params.joint, list(u) + list(v))[0]
        assert math.isclose(score(params, u, v), want, rel_tol=1e-12)

    def test_zero_width_item_side(self):
        model = one_param_model(2.0)
        assert score(model, np.array([[3.0]]), np.zeros((1, 0))) == 6.0

    def test_shape_errors(self):
        rng = np.random.default_rng(0)
        joint = init_joint([3, 1], rng)
        with pytest.raises(ShapeError):
            model_forward_trace(joint, np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            model_forward_trace(joint, np.zeros((2, 2)), np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            MlpParams((), ())
        with pytest.raises(ShapeError):
            init_joint([3, 2], rng)  # joint must end in one unit
        with pytest.raises(ShapeError):
            ModelParameters(
                ModelVariant.TWO_TOWER,
                user_tower=init_mlp([3, 2], rng),
                item_tower=init_mlp([3, 4], rng),
            )

    def test_nonfinite_params_rejected(self):
        with pytest.raises(NumericError):
            DenseLayerParams(np.array([[np.nan]]))


class TestLosses:
    """The loss value is the first element of ``loss_and_pred_grad``."""

    SQ, BCE = LossKind.SQUARED, LossKind.BCE

    def test_squared_example(self):
        assert loss_and_pred_grad(np.array([0.5]), np.array([1.0]), self.SQ)[0] == 0.25

    def test_bce_example(self):
        loss, _ = loss_and_pred_grad(np.array([0.5]), np.array([1.0]), self.BCE)
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)

    def test_against_loop_oracles(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            preds = rng.uniform(0.01, 0.99, size=n)
            labels = rng.integers(0, 2, size=n).astype(float)
            assert math.isclose(
                loss_and_pred_grad(preds, labels, self.SQ)[0],
                squared_loss_loop(preds, labels),
                rel_tol=1e-12,
            )
            assert math.isclose(
                loss_and_pred_grad(preds, labels, self.BCE)[0],
                bce_loss_loop(preds, labels),
                rel_tol=1e-12,
            )

    def test_bce_clamps_extreme_predictions(self):
        ends = np.array([0.0, 1.0])
        val, _ = loss_and_pred_grad(ends, ends, self.BCE)
        assert math.isfinite(val)
        assert math.isclose(val, bce_loss_loop([0.0, 1.0], [0.0, 1.0]), rel_tol=1e-9)

    def test_empty_batch_raises(self):
        with pytest.raises(EmptyBatchError):
            loss_and_pred_grad(np.zeros(0), np.zeros(0), self.SQ)
        with pytest.raises(EmptyBatchError):
            empty = (np.zeros((0, 1)), np.zeros((0, 0)), np.zeros(0))
            loss_gradient(one_param_model(1.0), empty, LossKind.SQUARED)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            loss_and_pred_grad(np.array([0.1, 0.2]), np.array([1.0]), self.SQ)

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)


class TestGradients:
    def test_one_param_closed_form(self):
        # y_hat = theta x, squared loss; d/dtheta = 2(theta x - y) x
        batch = (np.array([[1.0]]), np.zeros((1, 0)), np.array([1.0]))
        loss, grads = loss_gradient(one_param_model(0.0), batch, LossKind.SQUARED)
        assert loss == 1.0
        assert grads.joint.layers[0].weights[0, 0] == -2.0

    @pytest.mark.parametrize("loss_kind", [LossKind.SQUARED, LossKind.BCE])
    @pytest.mark.parametrize("use_sigmoid", [False, True])
    def test_matches_central_differences(self, loss_kind, use_sigmoid):
        rng = np.random.default_rng(42)
        for trial in range(8):
            n = int(rng.integers(1, 6))
            if trial % 2 == 0:
                du, di = int(rng.integers(1, 5)), int(rng.integers(1, 5))
                params = init_two_tower(
                    [du, 4, 3], [di, 3], np.random.default_rng(trial + 100)
                )
            else:
                du, di = int(rng.integers(1, 5)), int(rng.integers(0, 4))
                params = init_joint(
                    [du + di, 5, 1], np.random.default_rng(trial + 200)
                )
            u = rng.normal(size=(n, du))
            v = rng.normal(size=(n, di))
            y = rng.integers(0, 2, size=n).astype(float)
            batch = (u, v, y)
            sig = use_sigmoid or loss_kind is LossKind.BCE
            _, grads = loss_gradient(params, batch, loss_kind, sigmoid_output=sig)

            def fd_loss(tree):
                l, _ = loss_gradient(tree, batch, loss_kind, sigmoid_output=sig)
                return l

            fd = central_fd_grad(fd_loss, params)
            assert grads_close(grads, fd), f"trial {trial}"


# signed zeros, infinities, subnormals, the edges of exp's range and NaN
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
           -1e-310, 36.8, -36.8, 709.79, -709.79, 745.2, -745.2, 1e308, -1e308]


class TestOnePassElementwise:
    """sigmoid and mlp_backward against the two-mask sigmoid and the
    derivative-array backprop they replace: the same bits everywhere."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=8),
            elements=st.one_of(st.sampled_from(SPECIAL), st.floats()),
        )
    )
    def test_sigmoid_matches_masked_oracle(self, z):
        got, want = sigmoid(z), sigmoid_masked(z)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=2, max_size=4),
        st.booleans(),
        st.integers(1, 4),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_backward_matches_derivative_array_oracle(self, dims, bias, n, seed, data):
        acts = data.draw(
            st.lists(
                st.sampled_from(list(Activation)),
                min_size=len(dims) - 1,
                max_size=len(dims) - 1,
            )
        )
        mlp = MlpParams(init_mlp(dims, seed, bias=bias).layers, tuple(acts))
        # a row of zeros gives pre-activations of exactly 0 (biases start at 0)
        x = data.draw(
            hnp.arrays(
                np.float64,
                (n, dims[0]),
                elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3)),
            )
        )
        _, caches = mlp_forward_trace(mlp, x)
        d_out = data.draw(
            hnp.arrays(
                np.float64,
                (n, dims[-1]),
                elements=st.one_of(
                    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                    st.floats(-5, 5),
                ),
            )
        )
        # negative or non-finite slopes where the last layer's z <= 0: there a
        # ReLU written as np.where(z > 0, d, 0.0) gives 0 where d * 0.0 is NaN
        z = caches[-1][1]
        d_out = np.where(z <= 0.0, -np.abs(d_out), d_out)
        got, want = mlp.layout.zeros(), mlp.layout.zeros()
        with np.errstate(all="ignore"):  # inf * 0 is NaN on both sides
            d_got = mlp_backward(mlp, caches, d_out, tree_leaves(got))
            d_want = mlp_backward_with_derivs(mlp, caches, d_out, want)
        assert got.vector.tobytes() == want.vector.tobytes()
        assert (d_got.shape, d_got.tobytes()) == (d_want.shape, d_want.tobytes())


class TestOptimisers:
    def test_sgd_zero_step_is_bitwise_identity(self):
        params = init_two_tower([3, 2], [3, 2], np.random.default_rng(1))
        grads = tree_map(lambda a: np.ones_like(a), params)
        stepped = sgd_step(params, grads, 0.0)
        for a, b in zip(tree_leaves(params), tree_leaves(stepped)):
            assert a.tobytes() == b.tobytes()

    def test_sgd_matches_manual_update(self):
        params = init_mlp([2, 2], np.random.default_rng(2))
        grads = tree_map(lambda a: 0.5 * np.ones_like(a), params)
        stepped = sgd_step(params, grads, 0.1)
        np.testing.assert_allclose(
            stepped.layers[0].weights, params.layers[0].weights - 0.05
        )

    def test_sgd_rejects_bad_stepsize(self):
        params = init_mlp([2, 2], np.random.default_rng(2))
        with pytest.raises(NumericError):
            sgd_step(params, params, float("nan"))

    def test_trees_of_another_shape_are_rejected(self):
        params = init_mlp([2, 2], np.random.default_rng(2))
        other = init_mlp([2, 3], np.random.default_rng(3))
        updates = [
            lambda: sgd_step(params, other, 0.1),
            lambda: tree_map(lambda a, b: a, params, other),
        ]
        for update in updates:
            with pytest.raises(ShapeError, match="parameter trees differ in shape"):
                update()

    def test_adam_first_step_magnitude(self):
        params = init_mlp([2, 3], np.random.default_rng(4))
        grads = tree_map(
            lambda a: np.random.default_rng(5).normal(size=a.shape), params
        )
        stepped, state = adam_step(adam_init(params), params, grads, 0.01)
        assert state.step_count == 1
        for p, g, s in zip(
            tree_leaves(params), tree_leaves(grads), tree_leaves(stepped)
        ):
            move = s - p
            nonzero = np.abs(g) > 1e-12
            np.testing.assert_allclose(
                np.sign(move[nonzero]), -np.sign(g[nonzero])
            )
            np.testing.assert_allclose(np.abs(move[nonzero]), 0.01, rtol=1e-5)

    def test_adam_trace_matches_scalar_oracle(self):
        layer = DenseLayerParams(np.array([[0.3]]), None)
        params = MlpParams((layer,), (Activation.IDENTITY,))
        grad_seq = [0.7, -0.2, 1.3, 0.05, -0.9]
        state = adam_init(params)
        got = []
        for g in grad_seq:
            grads = MlpParams(
                (DenseLayerParams(np.array([[g]]), None),), (Activation.IDENTITY,)
            )
            params, state = adam_step(state, params, grads, 0.05)
            got.append(params.layers[0].weights[0, 0])
        want = adam_trace_scalar(0.3, grad_seq, 0.05)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestTreeUtilities:
    def test_map_preserves_structure_and_passthrough(self):
        params = init_two_tower([2, 3], [2, 3], np.random.default_rng(6))
        doubled = tree_map(lambda a: 2.0 * a, params)
        assert doubled.variant is ModelVariant.TWO_TOWER
        np.testing.assert_allclose(
            doubled.user_tower.layers[0].weights,
            2.0 * params.user_tower.layers[0].weights,
        )

    def test_add_scale_zeros(self):
        params = init_mlp([2, 2, 1], np.random.default_rng(7))
        total = tree_add(params, tree_map(lambda x: -1.0 * x, params))
        assert tree_allclose(total, tree_map(np.zeros_like, params), atol=0.0)

    def test_map_over_dicts(self):
        # an encoder's tables are a dict of leaves, mapped in field order
        enc = build_categorical_encoder([("b", ["x", "y"]), ("a", ["z"])], 2, 3)
        seen = []
        out = tree_map(lambda t: seen.append(t.shape) or t + 1.0, enc)
        assert seen == [(2, 2), (1, 2)]
        assert list(out.tables) == ["b", "a"]
        np.testing.assert_array_equal(out.tables["a"], enc.tables["a"] + 1.0)

    def test_adam_state_holds_two_moment_vectors(self):
        params = init_mlp([2, 2], np.random.default_rng(8))
        state = adam_init(params)
        assert state.step_count == 0
        for moment in (state.first_moment, state.second_moment):
            assert moment.shape == params.vector.shape
            assert not moment.any()

    def test_init_is_seed_deterministic(self):
        a = init_two_tower([3, 4, 2], [2, 2], 123)
        b = init_two_tower([3, 4, 2], [2, 2], 123)
        c = init_two_tower([3, 4, 2], [2, 2], 124)
        for x, y in zip(tree_leaves(a), tree_leaves(b)):
            assert x.tobytes() == y.tobytes()
        assert not tree_allclose(a, c)

    def test_rebuilt_node_is_validated_by_its_constructor(self):
        # a mapped tree is checked once, over its whole vector
        params = init_mlp([2, 3, 1], np.random.default_rng(9))
        message = r"^non-finite values in tree_map at layers\[0\]\.weights$"
        with pytest.raises(NumericError, match=message):
            tree_map(lambda a: np.full_like(a, np.nan) if a.ndim == 2 else a, params)
        with pytest.raises(ShapeError, match="tree_map turned layers"):
            tree_map(lambda a: a.ravel(), params)

    def test_static_field_is_carried_over_and_not_mapped(self):
        # fields without parameters (activations, variant, vocabularies)
        # are shared with the first tree and never handed to fn
        params = init_two_tower([2, 3], [2, 3], np.random.default_rng(10))
        enc = build_categorical_encoder([("f", ["a", "b"])], 2, 4)
        for tree in (params, enc):
            seen = []

            def double(a):
                seen.append(a)
                return 2.0 * a

            out = tree_map(double, tree)
            assert [x.shape for x in seen] == [x.shape for x in tree_leaves(tree)]
            np.testing.assert_array_equal(out.vector, 2.0 * tree.vector)
        assert out.fields is enc.fields
        doubled = tree_map(lambda a: 2.0 * a, params)
        assert doubled.user_tower.activations is params.user_tower.activations

    def test_leaves_follow_construction_order(self):
        params = init_two_tower([2, 3, 2], [4, 2], np.random.default_rng(10))
        expected = []
        for tower in (params.user_tower, params.item_tower):
            for layer in tower.layers:
                expected += [layer.weights, layer.biases]
        leaves = tree_leaves(params)
        assert len(leaves) == len(expected)
        start = params.vector.__array_interface__["data"][0]
        offset = 0
        for leaf, attr in zip(leaves, expected):
            assert leaf.shape == attr.shape
            assert attr.__array_interface__["data"][0] == start + 8 * offset
            assert leaf.__array_interface__["data"][0] == start + 8 * offset
            offset += attr.size
        assert offset == params.vector.size


class TestNonFiniteNamesTheLeaf:
    def model(self) -> ModelParameters:
        return init_two_tower([2, 3, 2], [3, 2], np.random.default_rng(12))

    @pytest.mark.parametrize("entry", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("leaf", range(6))
    def test_gradient_check_names_the_leaf(self, leaf, entry):
        params = self.model()
        grads = tree_map(np.zeros_like, params)
        tree_leaves(grads)[leaf].flat[entry] = np.nan
        path = params.layout.paths[leaf]
        assert path.startswith(("user_tower.layers[", "item_tower.layers["))
        with pytest.raises(NumericError) as err:
            tree_check_finite(grads, "model_loss_and_grad")
        assert str(err.value) == f"non-finite values in model_loss_and_grad at {path}"

    def test_update_checks_name_the_leaf(self):
        params = self.model()
        grads = tree_map(np.zeros_like, params)
        tree_leaves(grads)[3][0] = 1e308
        path = params.layout.paths[3]
        assert path == "user_tower.layers[1].biases"
        with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
            sgd_step(params, grads, 1e10)
        assert str(err.value) == f"non-finite values in sgd_step at {path}"
        big = tree_map(lambda a: a + 1e308, params)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
            tree_map(np.add, big, grads)
        assert str(err.value) == f"non-finite values in tree_map at {path}"
