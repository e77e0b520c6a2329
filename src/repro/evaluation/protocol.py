"""The paper's evaluation protocol for single methods.

Two protocols are implemented:

* **Batch protocol** (used for LTM and all baselines): fit the method on the
  full claim matrix, then grade its scores on the labelled facts.
* **Incremental protocol** (used for LTMinc, Section 6.2): fit standard LTM
  on all data *except* the labelled entities, read off the learned source
  quality, and use Equation (3) to predict the labelled entities' facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.base import TruthMethod, TruthResult
from repro.core.incremental import IncrementalLTM
from repro.core.model import LatentTruthModel
from repro.core.priors import LTMPriors
from repro.data.dataset import TruthDataset
from repro.evaluation.metrics import EvaluationMetrics, evaluate_scores
from repro.evaluation.roc import roc_auc_for_result
from repro.exceptions import EvaluationError

__all__ = [
    "MethodEvaluation",
    "EvaluationProtocol",
    "evaluate_method_on_dataset",
    "evaluate_incremental_ltm",
]


@dataclass
class MethodEvaluation:
    """Everything measured for one method on one dataset.

    Attributes
    ----------
    method_name:
        Name of the evaluated method.
    dataset_name:
        Name of the dataset.
    metrics:
        Threshold-0.5 metrics (the Table 7 row).
    auc:
        Area under the ROC curve over the labelled facts (Figure 3).
    runtime_seconds:
        Fit time of the method.
    result:
        The underlying fitted :class:`~repro.core.base.TruthResult`.
    """

    method_name: str
    dataset_name: str
    metrics: EvaluationMetrics
    auc: float
    runtime_seconds: float
    result: TruthResult = field(repr=False, default=None)

    def as_row(self) -> dict[str, float | str]:
        """Flatten into a table row (method, precision, recall, fpr, accuracy, f1, auc)."""
        row: dict[str, float | str] = {"method": self.method_name, "dataset": self.dataset_name}
        row.update(self.metrics.as_dict())
        row["auc"] = self.auc
        row["runtime_seconds"] = self.runtime_seconds
        return row


@dataclass(frozen=True)
class EvaluationProtocol:
    """Settings shared across method evaluations.

    Attributes
    ----------
    threshold:
        Decision threshold (0.5 as in the paper's headline results).
    compute_auc:
        Whether to compute the ROC AUC as well.
    """

    threshold: float = 0.5
    compute_auc: bool = True


def evaluate_method_on_dataset(
    method: TruthMethod,
    dataset: TruthDataset,
    protocol: EvaluationProtocol | None = None,
) -> MethodEvaluation:
    """Fit ``method`` on the dataset's claims and grade it on the labelled facts."""
    protocol = protocol or EvaluationProtocol()
    dataset.require_labels()
    result = method.fit(dataset.claims)
    metrics = evaluate_scores(result, dataset.labels, threshold=protocol.threshold)
    auc = float("nan")
    if protocol.compute_auc:
        try:
            auc = roc_auc_for_result(result, dataset.labels)
        except EvaluationError:
            auc = float("nan")
    return MethodEvaluation(
        method_name=method.name,
        dataset_name=dataset.name,
        metrics=metrics,
        auc=auc,
        runtime_seconds=result.runtime_seconds,
        result=result,
    )


def evaluate_incremental_ltm(
    dataset: TruthDataset,
    priors: LTMPriors | None = None,
    iterations: int = 100,
    seed: int | None = 7,
    protocol: EvaluationProtocol | None = None,
) -> MethodEvaluation:
    """The paper's LTMinc protocol (Section 6.2).

    Standard LTM is fitted on every entity *except* the labelled ones; the
    learned per-source sensitivity/specificity is then plugged into
    Equation (3) to predict the labelled entities' facts, which are graded
    against ground truth.
    """
    protocol = protocol or EvaluationProtocol()
    dataset.require_labels()

    training_claims, _ = dataset.split_labelled_entities()
    if training_claims.num_facts == 0:
        raise EvaluationError(
            "the LTMinc protocol requires unlabelled entities to learn source quality from"
        )
    model = LatentTruthModel(priors=priors, iterations=iterations, seed=seed)
    training_result = model.fit(training_claims)

    predictor = IncrementalLTM(training_result.source_quality)
    labelled_matrix, labels, fact_ids = dataset.label_subset_matrix()
    incremental_result = predictor.fit(labelled_matrix)

    # Grade against the labels of the restricted matrix (densely re-indexed).
    metrics = evaluate_scores(
        incremental_result.scores,
        labels,
        threshold=protocol.threshold,
    )
    auc = float("nan")
    if protocol.compute_auc:
        try:
            labelled_ids = {i: bool(v) for i, v in enumerate(labels)}
            auc = roc_auc_for_result(incremental_result, labelled_ids)
        except EvaluationError:
            auc = float("nan")

    # LTMinc's reported runtime is prediction only (Table 9): no sampling.
    return MethodEvaluation(
        method_name="LTMinc",
        dataset_name=dataset.name,
        metrics=metrics,
        auc=auc,
        runtime_seconds=incremental_result.runtime_seconds,
        result=incremental_result,
    )

