"""Institution-level aggregation and ranking comparison.

Institution scores are unweighted means over member users (a user with 100
posts and a user with 1 post count equally); institutions under the min_users
threshold are dropped and reported. Comparison against reference scores emits
both Pearson and Spearman reports plus the matched table for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import UserPrediction
from .stats import CorrelationReport, pearson, spearman

__all__ = [
    "InstitutionScore",
    "AggregateResult",
    "ComparisonResult",
    "build_mapping",
    "aggregate",
    "compare",
]


@dataclass(frozen=True)
class InstitutionScore:
    institution_id: str
    n_users: int
    n_posts: int
    predicted_mean: float
    reference: float | None = None


@dataclass(frozen=True)
class AggregateResult:
    scores: list[InstitutionScore]
    excluded: list[tuple[str, int]]  # (institution_id, n_users) below threshold


@dataclass(frozen=True)
class ComparisonResult:
    pearson: CorrelationReport
    spearman: CorrelationReport
    matched: list[InstitutionScore]


def build_mapping(pairs) -> dict[str, str]:
    """user -> institution map from (user_id, institution_id) pairs.

    Users listed under more than one distinct institution are excluded
    entirely; duplicate identical pairs are tolerated.
    """
    mapping: dict[str, str] = {}
    ambiguous: set[str] = set()
    for user_id, institution_id in pairs:
        seen = mapping.get(user_id)
        if seen is not None and seen != institution_id:
            ambiguous.add(user_id)
        else:
            mapping[user_id] = institution_id
    for user_id in ambiguous:
        del mapping[user_id]
    return mapping


def aggregate(
    user_predictions: list[UserPrediction],
    mapping: dict[str, str],
    min_users: int = 5,
    exclude_users=frozenset(),
) -> AggregateResult:
    """Unweighted per-institution means of member users' predictions.

    ``exclude_users`` removes training-set members before aggregation
    (leakage control). Institutions with fewer than min_users members are
    dropped and listed in the exclusion report.
    """
    members: dict[str, list[UserPrediction]] = {}
    for up in user_predictions:
        if up.user_id in exclude_users:
            continue
        inst = mapping.get(up.user_id)
        if inst is None:
            continue
        members.setdefault(inst, []).append(up)
    if not members:
        raise ValueError("no predicted user maps to any institution")
    scores: list[InstitutionScore] = []
    excluded: list[tuple[str, int]] = []
    for inst in sorted(members):
        ups = members[inst]
        if len(ups) < min_users:
            excluded.append((inst, len(ups)))
            continue
        scores.append(
            InstitutionScore(
                institution_id=inst,
                n_users=len(ups),
                n_posts=sum(u.n_posts_used for u in ups),
                predicted_mean=sum(u.predicted for u in ups) / len(ups),
            )
        )
    return AggregateResult(scores=scores, excluded=excluded)


def compare(scores: list[InstitutionScore], reference: dict[str, float]) -> ComparisonResult:
    """Correlate predicted institution means against reference scores."""
    matched = [
        InstitutionScore(
            institution_id=s.institution_id,
            n_users=s.n_users,
            n_posts=s.n_posts,
            predicted_mean=s.predicted_mean,
            reference=reference[s.institution_id],
        )
        for s in scores
        if s.institution_id in reference
    ]
    if len(matched) < 3:
        raise ValueError(f"need at least 3 institutions with both values, have {len(matched)}")
    predicted = [s.predicted_mean for s in matched]
    actual = [s.reference for s in matched]
    return ComparisonResult(
        pearson=pearson(predicted, actual),
        spearman=spearman(predicted, actual),
        matched=matched,
    )
