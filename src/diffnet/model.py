"""Classification stack: standardization, L2 logistic regression, metrics,
stratified shuffle-split cross-validation.

Every cross-validated number (the CV reports, the bias-restricted runs and
the chi-square ranking) draws its folds from :func:`fold_test_indices`, the
one place that spawns the fold seeds and draws the stratified test rows.
The fold count and test fraction are checked by :func:`check_folds` and C
by :func:`check_C`; the fold policy and the trainer call them, and so do
callers that must reject bad settings before costly work.

Labels are the strings ``D`` (treated as the positive class throughout) and
``M``. The trainer minimizes

    0.5 ||w||^2 + C * sum_i omega_i * log(1 + exp(-y_i (w.x_i + b)))

with y in {-1,+1} and the intercept unpenalized, by damped Newton steps
with Armijo backtracking, so the objective never increases. Convergence is
declared at gradient max-norm <= 1e-6, capped at 1000 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from .features import ArticleFeatures
from .ingest import CLASS_DISINFORMATION, CLASS_MAINSTREAM, ArticleLabel

POSITIVE_CLASS = CLASS_DISINFORMATION

GRADIENT_TOL = 1e-6
MAX_ITERATIONS = 1000

SIZE_CLASS_SMALL = "0-100"
SIZE_CLASS_MEDIUM = "100-1000"
SIZE_CLASS_LARGE = "1000+"
SIZE_CLASSES = (SIZE_CLASS_SMALL, SIZE_CLASS_MEDIUM, SIZE_CLASS_LARGE)


def size_class_of(n_users: int) -> str:
    """Bin by total unique sharing users: [0,100), [100,1000), [1000,inf)."""
    if n_users < 0:
        raise ValueError("n_users must be nonnegative")
    if n_users < 100:
        return SIZE_CLASS_SMALL
    if n_users < 1000:
        return SIZE_CLASS_MEDIUM
    return SIZE_CLASS_LARGE


def LabeledSample(
    article_id: str, vector: np.ndarray, label: str, bias: str, n_users: int,
    source: str = "",
) -> ArticleFeatures:
    """The :class:`ArticleFeatures` row of one article, from flat fields;
    raises CorpusFormatError for a label or bias outside the vocabulary."""
    return ArticleFeatures(
        article_id, ArticleLabel(article_id, label, source, bias), n_users, vector
    )


def samples_to_xy(
    samples: Sequence[ArticleFeatures],
    feature_indices: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack vectors into (X, y) with y in {-1,+1}; +1 is class D."""
    if not samples:
        raise ValueError("no samples")
    X = np.stack([s.vector for s in samples]).astype(np.float64)
    if feature_indices is not None:
        X = X[:, list(feature_indices)]
    y = np.array(
        [1.0 if s.label.class_label == POSITIVE_CLASS else -1.0 for s in samples]
    )
    return X, y


@dataclass(frozen=True)
class StandardizerParams:
    mean: np.ndarray
    std: np.ndarray


def fit_standardizer(X: np.ndarray) -> StandardizerParams:
    """Per-feature mean and population standard deviation."""
    if X.shape[0] == 0:
        raise ValueError("cannot standardize an empty matrix")
    return StandardizerParams(mean=X.mean(axis=0), std=X.std(axis=0))


def transform(params: StandardizerParams, X: np.ndarray) -> np.ndarray:
    """(x - mean) / std, with constant features (std = 0) mapped to 0."""
    safe = np.where(params.std == 0.0, 1.0, params.std)
    Z = (X - params.mean) / safe
    return np.where(params.std == 0.0, 0.0, Z)


def resolve_sample_weights(
    y: np.ndarray, class_weights: Optional[str] = None
) -> np.ndarray:
    """Per-sample omega: 1, or balanced N/(2*N_class)."""
    if class_weights is None:
        return np.ones_like(y)
    if class_weights != "balanced":
        raise ValueError(f"unsupported class_weights: {class_weights!r}")
    n = len(y)
    n_pos = int(np.sum(y > 0))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("balanced weights need both classes")
    return np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    C: float
    converged: bool
    n_iterations: int
    objective_history: list[float]


def logistic_objective(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, C: float, omega: np.ndarray
) -> float:
    w, b = theta[:-1], theta[-1]
    margins = y * (X @ w + b)
    losses = np.logaddexp(0.0, -margins)
    return 0.5 * float(w @ w) + C * float(omega @ losses)


def logistic_gradient(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, C: float, omega: np.ndarray
) -> np.ndarray:
    w, b = theta[:-1], theta[-1]
    margins = y * (X @ w + b)
    # d/dz log(1+exp(-yz)) = -y * sigma(-yz)
    coef = C * omega * (-y) * expit(-margins)
    grad_w = w + X.T @ coef
    grad_b = float(np.sum(coef))
    return np.concatenate([grad_w, [grad_b]])


def _hessian(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, C: float, omega: np.ndarray
) -> np.ndarray:
    w, b = theta[:-1], theta[-1]
    p = expit(X @ w + b)
    s = C * omega * p * (1.0 - p)
    d = X.shape[1]
    H = np.empty((d + 1, d + 1))
    Xs = X * s[:, None]
    H[:d, :d] = X.T @ Xs + np.eye(d)
    H[:d, d] = Xs.sum(axis=0)
    H[d, :d] = H[:d, d]
    H[d, d] = float(s.sum())
    return H


def check_C(C: float) -> None:
    """Raise ValueError unless the inverse penalty C is finite and positive."""
    if not 0.0 < C < np.inf:
        raise ValueError(f"C must be finite and > 0, got {C!r}")


def train_logistic(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    class_weights: Optional[str] = None,
) -> LogisticModel:
    """Fit the L2 logistic model; raises on single-class input and unless C
    is finite and positive."""
    check_C(C)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X and y shapes do not match")
    if np.all(y > 0) or np.all(y < 0):
        raise ValueError("training data contains a single class")
    omega = resolve_sample_weights(y, class_weights)

    d = X.shape[1]
    theta = np.zeros(d + 1)
    obj = logistic_objective(theta, X, y, C, omega)
    history = [obj]
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        grad = logistic_gradient(theta, X, y, C, omega)
        if np.max(np.abs(grad)) <= GRADIENT_TOL:
            converged = True
            iterations -= 1
            break
        H = _hessian(theta, X, y, C, omega)
        # tiny ridge keeps the solve well-posed when p*(1-p) underflows
        H[np.diag_indices_from(H)] += 1e-10
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -grad
            slope = float(grad @ step)
        # Armijo backtracking keeps the objective monotone
        t = 1.0
        accepted = False
        for _ in range(60):
            candidate = theta + t * step
            cand_obj = logistic_objective(candidate, X, y, C, omega)
            if cand_obj <= obj + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no float-representable improvement left in this direction
            break
        theta = candidate
        obj = cand_obj
        history.append(obj)
        grad_next = logistic_gradient(theta, X, y, C, omega)
        if np.max(np.abs(grad_next)) <= GRADIENT_TOL:
            converged = True
            break
    return LogisticModel(
        weights=theta[:-1],
        intercept=float(theta[-1]),
        C=C,
        converged=converged,
        n_iterations=iterations,
        objective_history=history,
    )


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """P(class D) for each row."""
    return expit(np.asarray(X, dtype=np.float64) @ model.weights + model.intercept)


def rank_auroc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Probability a random positive outranks a random negative; ties 1/2.

    Computed from midranks (Mann-Whitney form); identical to the area under
    the ROC curve.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes in the truth")
    # midranks: a run of tied scores shares the mean of the ranks it spans
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    pos_rank_sum = float(ranks[positive].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


METRIC_KEYS = ("AUROC", "macro_precision", "macro_recall", "macro_f1")


@dataclass(frozen=True)
class FoldMetrics:
    auroc: float
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def by_key(self, key: str) -> float:
        return {
            "AUROC": self.auroc,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
        }[key]


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(
    true_labels: Sequence[str],
    predicted_labels: Sequence[str],
    scores: Sequence[float],
) -> FoldMetrics:
    """AUROC plus macro precision/recall/F1 over the two classes.

    Per-class ratios with zero denominators are 0. Single-class truth is an
    error because AUROC is undefined there.
    """
    if not (len(true_labels) == len(predicted_labels) == len(scores)):
        raise ValueError("metric inputs must be parallel")
    true = np.asarray(true_labels)
    pred = np.asarray(predicted_labels)
    auroc = rank_auroc(np.asarray(scores), true == POSITIVE_CLASS)
    precisions, recalls, f1s = [], [], []
    for cls in (CLASS_DISINFORMATION, CLASS_MAINSTREAM):
        tp = int(np.sum((pred == cls) & (true == cls)))
        fp = int(np.sum((pred == cls) & (true != cls)))
        fn = int(np.sum((pred != cls) & (true == cls)))
        p = _safe_div(tp, tp + fp)
        r = _safe_div(tp, tp + fn)
        precisions.append(p)
        recalls.append(r)
        f1s.append(_safe_div(2.0 * p * r, p + r))
    return FoldMetrics(
        auroc=auroc,
        macro_precision=sum(precisions) / 2.0,
        macro_recall=sum(recalls) / 2.0,
        macro_f1=sum(f1s) / 2.0,
    )


@dataclass(frozen=True)
class EvaluationReport:
    folds: tuple[FoldMetrics, ...]

    def values(self, key: str) -> np.ndarray:
        return np.array([f.by_key(key) for f in self.folds])

    def mean(self, key: str) -> float:
        return float(self.values(key).mean())

    def std(self, key: str) -> float:
        return float(self.values(key).std())

    def to_text(self) -> str:
        lines = ["fold  AUROC     macroP    macroR    macroF1"]
        for fold, f in enumerate(self.folds, start=1):
            lines.append(
                f"{fold:<5d} {f.auroc:.6f}  {f.macro_precision:.6f}  "
                f"{f.macro_recall:.6f}  {f.macro_f1:.6f}"
            )
        lines.append("")
        lines.append("metric           mean      std")
        for key in METRIC_KEYS:
            lines.append(f"{key:<16s} {self.mean(key):.6f}  {self.std(key):.6f}")
        lines.append("")
        return "\n".join(lines)

    def to_metric_rows(self) -> list[list[str]]:
        """Machine-readable table, one row per metric, full precision."""
        header = ["metric", "mean", "std"] + [
            f"fold_{fold}" for fold in range(1, len(self.folds) + 1)
        ]
        rows = [header]
        for key in METRIC_KEYS:
            rows.append(
                [key, repr(self.mean(key)), repr(self.std(key))]
                + [repr(f.by_key(key)) for f in self.folds]
            )
        return rows

    def summary_line(self) -> str:
        return (
            f"AUROC {self.mean('AUROC'):.6f} +/- {self.std('AUROC'):.6f} "
            f"macroF1 {self.mean('macro_f1'):.6f} +/- {self.std('macro_f1'):.6f} "
            f"folds {len(self.folds)}"
        )


def evaluate_split(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    C: float = 1.0,
    class_weights: Optional[str] = None,
) -> FoldMetrics:
    """Train on one split and score the held-out side; the standardizer is
    fit on the training portion only.
    """
    params = fit_standardizer(X_train)
    model = train_logistic(
        transform(params, X_train), y_train, C=C, class_weights=class_weights
    )
    scores = predict_proba(model, transform(params, X_test))
    true = [CLASS_DISINFORMATION if v > 0 else CLASS_MAINSTREAM for v in y_test]
    pred = [
        CLASS_DISINFORMATION if s >= 0.5 else CLASS_MAINSTREAM for s in scores
    ]
    return metrics(true, pred, scores)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_test_indices(
    labels: Sequence[str], test_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Random class-stratified test subset; every class keeps at least one
    sample on each side of the split.
    """
    labels = np.asarray(labels)
    picked = []
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        n = len(idx)
        if n < 2:
            raise ValueError(f"class {cls!r} has {n} samples; cannot stratify")
        n_test = _round_half_up(test_fraction * n)
        n_test = max(1, min(n - 1, n_test))
        perm = rng.permutation(n)
        picked.append(idx[perm[:n_test]])
    return np.sort(np.concatenate(picked))


def check_folds(folds: int, test_fraction: float) -> None:
    """Raise ValueError unless there is at least one fold and the test
    fraction lies in (0, 1)."""
    if folds < 1:
        raise ValueError(f"folds must be >= 1, got {folds!r}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction!r}")


def fold_test_indices(
    labels: Sequence[str], folds: int, test_fraction: float, seed: int
) -> list[np.ndarray]:
    """The fold policy: one stratified test subset of ``labels`` per fold,
    each drawn with its own child of ``SeedSequence(seed)``.
    """
    check_folds(folds, test_fraction)
    return [
        stratified_test_indices(labels, test_fraction, np.random.default_rng(ss))
        for ss in np.random.SeedSequence(seed).spawn(folds)
    ]


def stratified_shuffle_cv(
    samples: Sequence[ArticleFeatures],
    folds: int = 10,
    test_fraction: float = 0.2,
    seed: int = 0,
    C: float = 1.0,
    feature_indices: Optional[Sequence[int]] = None,
) -> EvaluationReport:
    """Repeated stratified random splits, one FoldMetrics per fold; the
    standardizer is fit on each fold's training portion.
    """
    X, y = samples_to_xy(samples, feature_indices)
    labels = [s.label.class_label for s in samples]
    results = []
    for idx in fold_test_indices(labels, folds, test_fraction, seed):
        test = np.zeros(len(y), dtype=bool)
        test[idx] = True
        results.append(evaluate_split(X[~test], y[~test], X[test], y[test], C=C))
    return EvaluationReport(folds=tuple(results))
