import math
import warnings

import numpy as np
import pytest
from scipy import sparse

from weaselts import (
    InsufficientClassesError,
    LinearModel,
    ShapeError,
    decision_scores,
    predict_labels,
    train_linear,
)
from weaselts.linear import _solve_binary, loss_gradient


def loss_by_loop(w, xa, y, c):
    """Regularized logistic loss, one sample at a time."""
    total = 0.5 * float(np.dot(w, w))
    for i in range(xa.shape[0]):
        margin = y[i] * float(xa[i] @ w)
        total += c * math.log1p(math.exp(-margin))
    return total


def separable_counts(rng, n_per=12, gap=6.0):
    a = np.clip(rng.normal([gap, 0.0, 1.0], 0.5, (n_per, 3)), 0.0, None)
    b = np.clip(rng.normal([0.0, gap, 1.0], 0.5, (n_per, 3)), 0.0, None)
    x = np.vstack([a, b])
    labels = ["a"] * n_per + ["b"] * n_per
    return x, labels


def test_separable_data_fits_perfectly():
    rng = np.random.default_rng(70)
    x, labels = separable_counts(rng)
    model = train_linear(x, labels)
    assert predict_labels(model, x) == labels
    assert model.classes == ["a", "b"]
    assert model.weights.shape == (2, 3)
    assert model.bias_weights.shape == (2,)


def test_three_class_one_vs_rest():
    rng = np.random.default_rng(71)
    centers = np.eye(3) * 7.0
    rows, labels = [], []
    for i, name in enumerate(["a", "b", "c"]):
        rows.append(np.clip(rng.normal(centers[i], 0.4, (10, 3)), 0.0, None))
        labels += [name] * 10
    x = np.vstack(rows)
    model = train_linear(x, labels)
    assert model.classes == ["a", "b", "c"]
    assert predict_labels(model, x) == labels


def test_sparse_and_dense_inputs_agree():
    rng = np.random.default_rng(72)
    x, labels = separable_counts(rng)
    dense = train_linear(x, labels)
    sp = train_linear(sparse.csr_matrix(x), labels)
    np.testing.assert_array_equal(dense.weights, sp.weights)
    np.testing.assert_array_equal(dense.bias_weights, sp.bias_weights)


def test_training_is_deterministic():
    rng = np.random.default_rng(73)
    x, labels = separable_counts(rng)
    m1 = train_linear(x, labels)
    m2 = train_linear(x, labels)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.bias_weights, m2.bias_weights)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(74)
    xa = rng.standard_normal((8, 4))
    y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
    w = 0.5 * rng.standard_normal(4)
    c = 0.7
    grad = loss_gradient(w, sparse.csr_matrix(xa), y, c)
    h = 1e-6
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        fd = (loss_by_loop(w + step, xa, y, c) - loss_by_loop(w - step, xa, y, c)) / (2 * h)
        assert abs(grad[j] - fd) < 1e-5


def test_solution_satisfies_gradient_tolerance():
    rng = np.random.default_rng(75)
    x, labels = separable_counts(rng)
    tol = 0.1
    model = train_linear(x, labels, reg_tradeoff=1.0, tolerance=tol, bias=1.0)
    xa = sparse.hstack(
        [sparse.csr_matrix(x), sparse.csr_matrix(np.ones((x.shape[0], 1)))],
        format="csr",
    )
    for i, cls in enumerate(model.classes):
        y = np.where(np.asarray(labels) == cls, 1.0, -1.0)
        w = np.concatenate([model.weights[i], [model.bias_weights[i]]])
        assert np.linalg.norm(loss_gradient(w, xa, y, 1.0)) <= tol


@pytest.mark.filterwarnings("ignore:logistic solve stopped:RuntimeWarning")
def test_binary_classes_learn_mirrored_weights():
    rng = np.random.default_rng(76)
    x, labels = separable_counts(rng)
    xa = sparse.hstack(
        [sparse.csr_matrix(x), sparse.csr_matrix(np.ones((x.shape[0], 1)))],
        format="csr",
    )
    y = np.where(np.asarray(labels) == "a", 1.0, -1.0)
    for tol in (0.1, 1e-9):
        model = train_linear(x, labels, tolerance=tol)
        assert model.weights[1].tobytes() == (-model.weights[0]).tobytes()
        assert model.bias_weights[1].tobytes() == (-model.bias_weights[0]).tobytes()
        # the mirrored row is what a second solve would return, bit for bit
        second = _solve_binary(xa, -y, 1.0, tol)
        assert second.tobytes() == (-_solve_binary(xa, y, 1.0, tol)).tobytes()
    # both rows meet the stationarity contract
    model = train_linear(x, labels, tolerance=0.1)
    for row, sign in ((0, 1.0), (1, -1.0)):
        w = np.concatenate([model.weights[row], [model.bias_weights[row]]])
        assert np.linalg.norm(loss_gradient(w, xa, sign * y, 1.0)) <= 0.1


def test_solve_short_of_tolerance_warns():
    rng = np.random.default_rng(76)
    x, labels = separable_counts(rng)
    # trust-ncg gives up on these data before the gradient norm gets to 1e-9
    message = r"gradient norm 7\.4\de-09 above the tolerance 1e-09: A bad approximation"
    with pytest.warns(RuntimeWarning, match=message):
        train_linear(x, labels, tolerance=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_linear(x, labels, tolerance=0.1)


def test_score_layout_and_zero_vector():
    model = LinearModel(
        classes=["a", "b"],
        weights=np.array([[1.0, 0.0], [0.0, 2.0]]),
        bias_weights=np.array([0.5, -0.25]),
        bias=2.0,
    )
    scores = decision_scores(model, np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(scores, [[3.0 + 1.0, 8.0 - 0.5]])
    # an all-zero row reduces to the scaled bias weights
    np.testing.assert_allclose(
        decision_scores(model, np.zeros((1, 2))), [[1.0, -0.5]]
    )


def test_tied_scores_pick_first_class():
    model = LinearModel(
        classes=["a", "b", "c"],
        weights=np.zeros((3, 2)),
        bias_weights=np.zeros(3),
        bias=1.0,
    )
    assert predict_labels(model, np.array([[1.0, 2.0], [0.0, 0.0]])) == ["a", "a"]
    partial = LinearModel(
        classes=["a", "b", "c"],
        weights=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
        bias_weights=np.zeros(3),
        bias=1.0,
    )
    assert predict_labels(partial, np.array([[2.0, 5.0]])) == ["a"]


def test_input_validation():
    with pytest.raises(InsufficientClassesError):
        train_linear(np.ones((4, 2)), ["a", "a", "a", "a"])
    with pytest.raises(ShapeError):
        train_linear(np.ones((3, 2)), ["a", "b"])
    model = train_linear(np.array([[1.0, 0.0], [0.0, 1.0]]), ["a", "b"])
    with pytest.raises(ShapeError):
        decision_scores(model, np.ones((1, 5)))
