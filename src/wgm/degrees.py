"""Degree distributions, the four-quadrant authority taxonomy, and
power-law exponent fitting on log-log histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraph, InsufficientPoints, InvalidPercentile, DomainError
from .graph import ArticleGraph

__all__ = [
    "DegreeHistogram",
    "AuthorityQuadrants",
    "PowerLawFit",
    "degree_histogram",
    "classify_authorities",
    "fit_power_law",
    "fit_power_law_mle",
    "top_k_by_degree",
]

SELECTORS = ("in", "out", "total")


@dataclass(frozen=True)
class DegreeHistogram:
    """Node counts per degree value; zero-count bins are omitted."""

    entries: dict[int, int]
    which: str

    @property
    def zero_count(self) -> int:
        """Nodes whose selected degree is zero (excluded from any fit)."""
        return self.entries.get(0, 0)

    def node_count(self) -> int:
        return sum(self.entries.values())


@dataclass(frozen=True)
class AuthorityQuadrants:
    all_round: int
    referring: int
    guru: int
    regular: int
    in_threshold: int
    out_threshold: int


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    log_prefactor: float
    x_min: int
    r_squared: float
    points_used: int


def _degree_vector(graph: ArticleGraph, which: str) -> np.ndarray:
    if which == "in":
        return graph.indegrees()
    if which == "out":
        return graph.outdegrees()
    if which == "total":
        return graph.indegrees() + graph.outdegrees()
    raise DomainError(f"unknown degree selector {which!r}; expected one of {SELECTORS}")


def degree_histogram(graph: ArticleGraph, which: str = "total") -> DegreeHistogram:
    """Tally nodes per degree value for the chosen selector."""
    if graph.node_count == 0:
        raise EmptyGraph("cannot build a degree histogram of an empty graph")
    degs = _degree_vector(graph, which)
    values, counts = np.unique(degs, return_counts=True)
    return DegreeHistogram(
        entries={int(v): int(c) for v, c in zip(values, counts)},
        which=which,
    )


def _nearest_rank_threshold(values: np.ndarray, percentile: float) -> int:
    """Nearest-rank empirical quantile: the ceil(p*n)-th smallest value."""
    ordered = np.sort(values)
    rank = math.ceil(percentile * ordered.size)
    return int(ordered[max(rank, 1) - 1])


def classify_authorities(graph: ArticleGraph, percentile: float = 0.90) -> AuthorityQuadrants:
    """Split nodes into the four authority quadrants.

    A node counts as high on an axis iff its degree strictly exceeds the
    nearest-rank quantile of that axis's own distribution; per-axis
    thresholds are computed independently.
    """
    if not 0.0 < percentile < 1.0:
        raise InvalidPercentile(f"percentile must be in (0, 1), got {percentile}")
    if graph.node_count == 0:
        raise EmptyGraph("cannot classify nodes of an empty graph")
    indeg = graph.indegrees()
    outdeg = graph.outdegrees()
    thr_in = _nearest_rank_threshold(indeg, percentile)
    thr_out = _nearest_rank_threshold(outdeg, percentile)
    high_in = indeg > thr_in
    high_out = outdeg > thr_out
    all_round = int(np.sum(high_in & high_out))
    guru = int(np.sum(high_in & ~high_out))
    referring = int(np.sum(~high_in & high_out))
    regular = graph.node_count - all_round - guru - referring
    return AuthorityQuadrants(
        all_round=all_round,
        referring=referring,
        guru=guru,
        regular=regular,
        in_threshold=thr_in,
        out_threshold=thr_out,
    )


def _fit_points(hist: DegreeHistogram, x_min: int) -> tuple[np.ndarray, np.ndarray]:
    if x_min < 1:
        raise DomainError(f"x_min must be >= 1, got {x_min}")
    ks = sorted(k for k, n in hist.entries.items() if k >= x_min and n > 0)
    if len(ks) < 2:
        raise InsufficientPoints(
            f"need at least 2 distinct degree values >= {x_min}, found {len(ks)}"
        )
    k = np.array(ks, dtype=float)
    n = np.array([hist.entries[int(v)] for v in ks], dtype=float)
    return k, n


def _log(values: np.ndarray) -> np.ndarray:
    """The natural log of each value by `math.log`: numpy's SIMD log rounds
    differently from libm on some CPUs (AVX-512 on x86, first at 9,170)."""
    return np.array([math.log(v) for v in values.tolist()])


def _fit(x: np.ndarray, y: np.ndarray, w: np.ndarray, x_min: int, alpha: float, intercept: float) -> PowerLawFit:
    """The line y = intercept - alpha*x with its r_squared weighted by w, for
    x = log(k), y = log(n_k) and the node counts w = n_k."""
    ybar = (w * y).sum() / w.sum()
    ss_res = float((w * (y + alpha * x - intercept) ** 2).sum())
    ss_tot = float((w * (y - ybar) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return PowerLawFit(
        alpha=float(alpha),
        log_prefactor=float(intercept),
        x_min=int(x_min),
        r_squared=max(0.0, min(1.0, r_squared)),
        points_used=int(x.size),
    )


def fit_power_law(hist: DegreeHistogram, x_min: int = 1) -> PowerLawFit:
    """Fit log(n_k) = log(C) - alpha*log(k) over k >= x_min.

    The least squares is weighted by the node count n_k, so the line is
    fit per node rather than per degree bin; otherwise the long tail of
    one-node bins swamps the slope.
    """
    k, n = _fit_points(hist, x_min)
    x, y, w = _log(k), _log(n), n
    wsum = w.sum()
    xbar = (w * x).sum() / wsum
    ybar = (w * y).sum() / wsum
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx == 0.0:
        raise InsufficientPoints("degree values are not distinct on the log axis")
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    return _fit(x, y, w, x_min, -slope, ybar - slope * xbar)


def _hurwitz_zeta(s: float, a: float, head: int = 32) -> float:
    """Euler-Maclaurin evaluation of zeta(s, a) for s > 1, a >= 1."""
    tail = a + head
    total = sum((a + k) ** -s for k in range(head))
    total += tail ** (1.0 - s) / (s - 1.0)
    total += 0.5 * tail**-s
    total += s * tail ** (-s - 1.0) / 12.0
    total -= s * (s + 1.0) * (s + 2.0) * tail ** (-s - 3.0) / 720.0
    return total


def fit_power_law_mle(hist: DegreeHistogram, x_min: int = 1) -> PowerLawFit:
    """Discrete maximum-likelihood exponent.

    Maximizes -alpha*sum(n_k ln k) - N*ln zeta(alpha, x_min) by golden
    section (the log-likelihood is concave in alpha). r_squared reports
    how well the implied line explains the log-log points, with the
    intercept refit by count-weighted least squares.
    """
    k, n = _fit_points(hist, x_min)
    x, y = _log(k), _log(n)
    total = float(n.sum())
    sum_log = float((n * x).sum())

    def neg_loglik(alpha: float) -> float:
        return alpha * sum_log + total * math.log(_hurwitz_zeta(alpha, float(x_min)))

    lo, hi = 1.0 + 1e-9, 25.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = neg_loglik(c), neg_loglik(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = neg_loglik(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = neg_loglik(d)
    alpha = (a + b) / 2.0

    intercept = float(((n * y).sum() + alpha * sum_log) / total)
    return _fit(x, y, n, x_min, alpha, intercept)


def top_k_by_degree(graph: ArticleGraph, which: str = "total", k: int = 10) -> list[tuple[int, int]]:
    """Nodes with the k highest degrees, ties broken by ascending id."""
    if graph.node_count == 0:
        raise EmptyGraph("cannot rank nodes of an empty graph")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    degs = _degree_vector(graph, which)
    ids = np.arange(graph.node_count)
    order = np.lexsort((ids, -degs))[: min(k, graph.node_count)]
    return [(int(i), int(degs[i])) for i in order]
