"""Machine-learning workloads of Table I: Naive Bayes, K-means, PageRank.

Each algorithm is implemented for real on both stacks — the Hadoop
versions as (chains of) MapReduce jobs with driver-side model state, the
Spark versions over cached RDDs — and self-checks convergence /
accuracy before returning its trace.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.datagen import Bdgs, LabeledDocument
from repro.stacks.hadoop import HadoopStack
from repro.stacks.hdfs import Hdfs
from repro.stacks.instrument import CharacterHints
from repro.stacks.mapreduce import MapReduceJob
from repro.stacks.spark import SparkEngine
from repro.workloads.base import (
    Category,
    DataType,
    RunContext,
    StackFamily,
    Workload,
    WorkloadRun,
)

__all__ = ["ML_WORKLOADS"]

_BAYES_DOCS = 700
_BAYES_CLASSES = ("sports", "finance", "science", "travel")
_KMEANS_POINTS = 1600
_KMEANS_K = 5
_KMEANS_ITERATIONS = 4
_PAGERANK_VERTICES = 260
_PAGERANK_ITERATIONS = 4
_DAMPING = 0.85


# Each input is a pure function of ``(seed, count)`` (a fresh ``Bdgs``
# draws it first), built once per process as immutable tuples and shared
# by the algorithm's Hadoop and Spark runs.


@lru_cache(maxsize=4)
def _bayes_documents(seed: int, count: int) -> tuple[LabeledDocument, ...]:
    return tuple(
        Bdgs(seed=seed).labeled_documents(count, classes=_BAYES_CLASSES)
    )


@lru_cache(maxsize=4)
def _kmeans_points(seed: int, count: int) -> tuple[tuple[float, ...], ...]:
    cloud = Bdgs(seed=seed).points(count, clusters=_KMEANS_K)
    return tuple(tuple(float(x) for x in row) for row in cloud.points)


@lru_cache(maxsize=4)
def _pagerank_links(seed: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Each vertex's successors, indexed by vertex."""
    graph = Bdgs(seed=seed).graph(count)
    adjacency = graph.adjacency()
    return tuple(
        tuple(adjacency.get(vertex, ())) for vertex in range(graph.num_vertices)
    )


# ---------------------------------------------------------------------------
# Naive Bayes (84 GB semi-structured text)
# ---------------------------------------------------------------------------


def _bayes_model(counts: dict) -> tuple[dict, dict, set]:
    """Split raw ((label, word), n) counts into priors and likelihoods."""
    label_totals: dict[str, int] = {}
    word_counts: dict[tuple[str, str], int] = {}
    vocabulary: set[str] = set()
    for (label, word), count in counts.items():
        if word == "__doc__":
            label_totals[label] = label_totals.get(label, 0) + count
        else:
            word_counts[(label, word)] = count
            vocabulary.add(word)
    return label_totals, word_counts, vocabulary


def _bayes_classify(
    words: tuple[str, ...],
    label_totals: dict,
    label_words: dict,
    word_counts: dict,
    vocabulary: set,
) -> str:
    total_docs = sum(label_totals.values())
    best_label, best_score = "", -math.inf
    for label, doc_count in label_totals.items():
        score = math.log(doc_count / total_docs)
        for word in words:
            count = word_counts.get((label, word), 0)
            score += math.log((count + 1) / (label_words[label] + len(vocabulary)))
        if score > best_score:
            best_label, best_score = label, score
    return best_label


def _bayes_check(counts: dict, test_docs) -> dict[str, float]:
    label_totals, word_counts, vocabulary = _bayes_model(counts)
    label_words = dict.fromkeys(label_totals, 0)
    for (label, _word), count in word_counts.items():
        if label in label_words:
            label_words[label] += count
    correct = sum(
        1
        for doc in test_docs
        if _bayes_classify(
            doc.words, label_totals, label_words, word_counts, vocabulary
        )
        == doc.label
    )
    return {"accuracy": correct / len(test_docs)}


def _bayes_pairs(doc) -> list[tuple]:
    pairs = [((doc.label, word), 1) for word in doc.words]
    pairs.append(((doc.label, "__doc__"), 1))
    return pairs


def _bayes_hadoop(context: RunContext) -> WorkloadRun:
    docs = _bayes_documents(context.seed, context.records(_BAYES_DOCS))
    train, test = docs[: len(docs) * 4 // 5], docs[len(docs) * 4 // 5 :]
    stack = HadoopStack()
    stack.hdfs.put("/input/bayes", train)
    trace = stack.new_trace("H-Bayes")
    job = MapReduceJob(
        name="bayes-train",
        mapper=_bayes_pairs,
        reducer=lambda key, counts: [(key, sum(counts))],
        combiner=lambda key, counts: [(key, sum(counts))],
    )
    output = dict(stack.run(job, "/input/bayes", trace))
    checks = _bayes_check(output, test)
    return WorkloadRun(trace=trace, output_records=len(output), checks=checks)


def _bayes_spark(context: RunContext) -> WorkloadRun:
    docs = _bayes_documents(context.seed, context.records(_BAYES_DOCS))
    train, test = docs[: len(docs) * 4 // 5], docs[len(docs) * 4 // 5 :]
    hdfs = Hdfs()
    hdfs.put("/input/bayes", train)
    engine = SparkEngine()
    trace = engine.new_trace("S-Bayes")
    output = dict(
        engine.from_hdfs(hdfs, "/input/bayes")
        .flat_map(_bayes_pairs)
        .reduce_by_key(lambda a, b: a + b)
        .collect(trace)
    )
    checks = _bayes_check(output, test)
    return WorkloadRun(trace=trace, output_records=len(output), checks=checks)


# ---------------------------------------------------------------------------
# K-means (44 GB vectors)
# ---------------------------------------------------------------------------


def _nearest(point: tuple, centers: list[tuple]) -> int:
    best_index, best_distance = 0, math.inf
    for index, center in enumerate(centers):
        distance = sum((p - c) ** 2 for p, c in zip(point, center))
        if distance < best_distance:
            best_index, best_distance = index, distance
    return best_index


def _inertia(points: tuple[tuple, ...], centers: list[tuple]) -> float:
    return sum(
        min(sum((p - c) ** 2 for p, c in zip(point, center)) for center in centers)
        for point in points
    )


def _vector_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _kmeans_hadoop(context: RunContext) -> WorkloadRun:
    points = _kmeans_points(context.seed, context.records(_KMEANS_POINTS))
    stack = HadoopStack()
    stack.hdfs.put("/input/kmeans", points)
    trace = stack.new_trace("H-Kmeans")

    centers = list(points[:_KMEANS_K])
    initial_inertia = _inertia(points, centers)
    for iteration in range(_KMEANS_ITERATIONS):
        job = MapReduceJob(
            name=f"kmeans-{iteration}",
            mapper=lambda point, cs=tuple(centers): [
                (_nearest(point, list(cs)), (point, 1))
            ],
            combiner=lambda idx, partials: [
                (
                    idx,
                    (
                        tuple(
                            sum(p[0][d] for p in partials)
                            for d in range(len(partials[0][0]))
                        ),
                        sum(p[1] for p in partials),
                    ),
                )
            ],
            reducer=lambda idx, partials: [
                (
                    idx,
                    tuple(
                        sum(p[0][d] for p in partials) / sum(p[1] for p in partials)
                        for d in range(len(partials[0][0]))
                    ),
                )
            ],
        )
        new_centers = dict(stack.run(job, "/input/kmeans", trace))
        centers = [new_centers.get(i, centers[i]) for i in range(_KMEANS_K)]
    final_inertia = _inertia(points, centers)
    return WorkloadRun(
        trace=trace,
        output_records=_KMEANS_K,
        checks={
            "inertia_decreased": float(final_inertia < initial_inertia),
            "final_inertia": final_inertia,
        },
    )


def _kmeans_spark(context: RunContext) -> WorkloadRun:
    points = _kmeans_points(context.seed, context.records(_KMEANS_POINTS))
    hdfs = Hdfs()
    hdfs.put("/input/kmeans", points)
    engine = SparkEngine()
    trace = engine.new_trace("S-Kmeans")
    rdd = engine.from_hdfs(hdfs, "/input/kmeans").cache()

    centers = list(points[:_KMEANS_K])
    initial_inertia = _inertia(points, centers)
    for _iteration in range(_KMEANS_ITERATIONS):
        assigned = rdd.map(
            lambda point, cs=tuple(centers): (_nearest(point, list(cs)), (point, 1))
        )
        sums = assigned.reduce_by_key(
            lambda a, b: (_vector_add(a[0], b[0]), a[1] + b[1])
        ).collect(trace)
        new_centers = {
            idx: tuple(x / count for x in vector_sum)
            for idx, (vector_sum, count) in sums
        }
        centers = [new_centers.get(i, centers[i]) for i in range(_KMEANS_K)]
    final_inertia = _inertia(points, centers)
    return WorkloadRun(
        trace=trace,
        output_records=_KMEANS_K,
        checks={
            "inertia_decreased": float(final_inertia < initial_inertia),
            "final_inertia": final_inertia,
        },
    )


# ---------------------------------------------------------------------------
# PageRank (2^24-vertex unstructured graph)
# ---------------------------------------------------------------------------


def _pagerank_hadoop(context: RunContext) -> WorkloadRun:
    adjacency = _pagerank_links(context.seed, context.records(_PAGERANK_VERTICES))
    n = len(adjacency)
    records = [(vertex, (links, 1.0 / n)) for vertex, links in enumerate(adjacency)]
    stack = HadoopStack()
    stack.hdfs.put("/input/pagerank", records)
    trace = stack.new_trace("H-PageRank")

    def mapper(record):
        vertex, (links, rank) = record
        pairs = [(vertex, ("A", links))]
        if links:
            share = rank / len(links)
            pairs.extend((dst, ("R", share)) for dst in links)
        return pairs

    def reducer(vertex, values, n=n):
        links: tuple = ()
        incoming = 0.0
        for tag, payload in values:
            if tag == "A":
                links = payload
            else:
                incoming += payload
        rank = (1.0 - _DAMPING) / n + _DAMPING * incoming
        return [(vertex, (links, rank))]

    jobs = [
        MapReduceJob(name=f"pagerank-{i}", mapper=mapper, reducer=reducer)
        for i in range(_PAGERANK_ITERATIONS)
    ]
    output = stack.run_chain(jobs, "/input/pagerank", trace, workload="pagerank")
    ranks = {vertex: rank for vertex, (_links, rank) in output}
    total = sum(ranks.values())
    return WorkloadRun(
        trace=trace,
        output_records=len(ranks),
        checks={"rank_mass": total, "all_vertices_ranked": float(len(ranks) == n)},
    )


def _pagerank_spark(context: RunContext) -> WorkloadRun:
    adjacency = _pagerank_links(context.seed, context.records(_PAGERANK_VERTICES))
    n = len(adjacency)
    link_records = list(enumerate(adjacency))
    hdfs = Hdfs()
    hdfs.put("/input/pagerank", link_records)
    engine = SparkEngine()
    trace = engine.new_trace("S-PageRank")
    links = engine.from_hdfs(hdfs, "/input/pagerank").cache()
    ranks = links.map(lambda pair, n=n: (pair[0], 1.0 / n))

    for _iteration in range(_PAGERANK_ITERATIONS):
        contributions = links.join(ranks).flat_map(
            lambda kv: [
                (dst, kv[1][1] / len(kv[1][0])) for dst in kv[1][0]
            ]
            if kv[1][0]
            else []
        )
        # Vertices with no in-links still need a rank row (damping floor).
        zeros = links.map(lambda pair: (pair[0], 0.0))
        ranks = contributions.union(zeros).reduce_by_key(lambda a, b: a + b).map(
            lambda kv, n=n: (kv[0], (1.0 - _DAMPING) / n + _DAMPING * kv[1])
        )
    final = dict(ranks.collect(trace))
    total = sum(final.values())
    return WorkloadRun(
        trace=trace,
        output_records=len(final),
        checks={"rank_mass": total, "all_vertices_ranked": float(len(final) == n)},
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BAYES_HINTS = CharacterHints(fp_x87=0.02, branch_entropy_shift=0.05)
_KMEANS_HINTS = CharacterHints(fp_sse=0.2, working_set_factor=1.6, branch_entropy_shift=-0.05)
_PAGERANK_HINTS = CharacterHints(fp_sse=0.06, working_set_factor=1.4)

ML_WORKLOADS: tuple[Workload, ...] = (
    Workload(
        algorithm="Bayes",
        family=StackFamily.HADOOP,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.SEMI_STRUCTURED,
        declared_size="84 GB",
        declared_bytes=84 * (1 << 30),
        runner=_bayes_hadoop,
        hints=_BAYES_HINTS,
    ),
    Workload(
        algorithm="Bayes",
        family=StackFamily.SPARK,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.SEMI_STRUCTURED,
        declared_size="84 GB",
        declared_bytes=84 * (1 << 30),
        runner=_bayes_spark,
        hints=_BAYES_HINTS,
    ),
    Workload(
        algorithm="Kmeans",
        family=StackFamily.HADOOP,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="44 GB",
        declared_bytes=44 * (1 << 30),
        runner=_kmeans_hadoop,
        hints=_KMEANS_HINTS,
    ),
    Workload(
        algorithm="Kmeans",
        family=StackFamily.SPARK,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="44 GB",
        declared_bytes=44 * (1 << 30),
        runner=_kmeans_spark,
        hints=_KMEANS_HINTS,
    ),
    Workload(
        algorithm="PageRank",
        family=StackFamily.HADOOP,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="2^24 vertices",
        declared_bytes=(1 << 24) * 100,
        runner=_pagerank_hadoop,
        hints=_PAGERANK_HINTS,
    ),
    Workload(
        algorithm="PageRank",
        family=StackFamily.SPARK,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="2^24 vertices",
        declared_bytes=(1 << 24) * 100,
        runner=_pagerank_spark,
        hints=_PAGERANK_HINTS,
    ),
)
