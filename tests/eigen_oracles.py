"""One-region-at-a-time reference code for the stacked eigen lab.

power_iteration_sym finds eigenpairs by deflation, train_patch trains
one region's matcher through it with a modified Gram-Schmidt pass,
nearest_label ranks the gallery with a Python sort, and
reference_recognize votes with a dict. They are slow on purpose: each
region is a separate model, with none of the stacking, the batched eigh
or the label ranks the package uses. reference_disk_noise redraws every
disk over the whole image, and reference_conjecture_experiment matches
one probe at a time through eigenlab.recognize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regionvote.eigenlab import (
    AFFECTED_LEVEL,
    _JITTER_SPAN,
    ConjectureExperiment,
    DegenerateGalleryError,
    ExperimentRow,
    PatternGallery,
    recognize,
    region_layout,
    train_global,
    train_regional,
)


def power_iteration_sym(
    matrix: np.ndarray, k: int, tol: float = 1e-8, max_iter: int = 10_000
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric PSD matrix by deflation.

    Returns (eigenvalues, eigenvectors) with eigenvalues non-increasing
    and eigenvectors as rows. Stops early once the spectrum is exhausted
    (an eigenvalue at most 1e-12 of the first), so fewer than k pairs may
    come back. Start vectors come from a fixed generator, making the
    output a deterministic function of the input matrix.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n and not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    rng = np.random.default_rng(0x5EED)
    values = []
    vectors = []
    scale = None
    for _ in range(min(k, n)):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iter):
            av = a @ v
            lam = float(v @ av)
            resid = np.linalg.norm(av - lam * v)
            ref = scale if scale is not None else max(abs(lam), 1e-30)
            if resid <= tol * ref:
                break
            av_norm = np.linalg.norm(av)
            if av_norm <= 1e-30:
                lam = 0.0
                break
            v = av / av_norm
        if scale is None:
            scale = max(abs(lam), 1e-30)
        if lam <= scale * 1e-12:
            break
        values.append(lam)
        vectors.append(v)
        a -= lam * np.outer(v, v)
    if not values:
        return np.zeros(0), np.zeros((0, n))
    return np.array(values), np.array(vectors)


@dataclass(frozen=True)
class PatchModel:
    """One region's principal subspace, with no padding: basis has one
    row per kept eigenvalue."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    coords: np.ndarray
    labels: tuple[int, ...]


def train_patch(vectors: np.ndarray, labels: tuple[int, ...], k: int) -> PatchModel:
    """PCA of row vectors via the Gram matrix and power iteration."""
    count, dim = vectors.shape
    mean = vectors.mean(axis=0)
    centered = vectors - mean
    gram = centered @ centered.T
    if float(np.trace(gram)) <= 1e-24:
        raise DegenerateGalleryError("gallery patterns are identical; nothing to decompose")
    values, gram_vecs = power_iteration_sym(gram, min(k, dim, count - 1))
    basis = gram_vecs @ centered
    basis /= np.sqrt(values)[:, None]
    for i in range(basis.shape[0]):
        for j in range(i):
            basis[i] -= (basis[j] @ basis[i]) * basis[j]
        basis[i] /= np.linalg.norm(basis[i])
    return PatchModel(mean, basis, values, centered @ basis.T, labels)


def region_boxes(width: int, height: int, region_count: int) -> list[tuple[int, int, int, int]]:
    """(x0, y0, w, h) of every region, row-major."""
    cols, rows = region_layout(width, height, region_count)
    rw, rh = width // cols, height // rows
    return [(col * rw, row * rh, rw, rh) for row in range(rows) for col in range(cols)]


def train_regions(gallery: PatternGallery, region_count: int, k: int) -> list[PatchModel]:
    """One PatchModel per region, each trained on its own sliced patches."""
    models = []
    for x0, y0, w, h in region_boxes(gallery.width, gallery.height, region_count):
        patch = gallery.patterns[:, y0 : y0 + h, x0 : x0 + w].reshape(gallery.count, -1)
        models.append(train_patch(patch, gallery.labels, k))
    return models


def nearest_label(model: PatchModel, patch: np.ndarray) -> tuple[int, bool]:
    """Nearest gallery pattern in eigen coordinates; ties take the lowest
    label and are flagged."""
    coords = model.basis @ (patch - model.mean)
    dists = np.linalg.norm(model.coords - coords, axis=1)
    ordered = sorted(range(dists.shape[0]), key=lambda i: (dists[i], model.labels[i]))
    label = model.labels[ordered[0]]
    tied = dists.shape[0] > 1 and dists[ordered[0]] == dists[ordered[1]]
    return label, tied


def reference_recognize(
    gallery: PatternGallery, region_count: int, k: int, probe: np.ndarray, true_label: int
) -> tuple:
    """The RecognitionOutcome fields, in order, from per-region models
    and a dict of votes."""
    (global_model,) = train_regions(gallery, 1, k)
    global_label, global_tied = nearest_label(global_model, probe.reshape(-1))
    boxes = region_boxes(gallery.width, gallery.height, region_count)
    votes: dict[int, int] = {}
    tied_regions = 0
    for (x0, y0, w, h), model in zip(boxes, train_regions(gallery, region_count, k)):
        label, tied = nearest_label(model, probe[y0 : y0 + h, x0 : x0 + w].reshape(-1))
        votes[label] = votes.get(label, 0) + 1
        tied_regions += tied
    top = max(votes.values())
    leaders = sorted(label for label, v in votes.items() if v == top)
    return (
        global_label,
        global_tied,
        leaders[0],
        len(leaders) > 1,
        tied_regions,
        votes.get(true_label, 0) / len(boxes),
    )


def reference_disk_noise(
    image: np.ndarray, coverage: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """eigenlab.disk_noise with a whole-image distance field per disk and
    the affected mask recounted over the whole image before each one."""
    image = np.asarray(image, dtype=np.float64)
    if coverage <= 0:
        return image.copy(), 0.0
    height, width = image.shape
    noisy = image + rng.uniform(-_JITTER_SPAN, _JITTER_SPAN, image.shape)
    ys, xs = np.mgrid[0:height, 0:width]
    min_edge = min(width, height)
    for _ in range(64):
        affected = np.abs(noisy - image) >= AFFECTED_LEVEL
        if affected.mean() >= coverage:
            break
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        radius = rng.uniform(0.15, 0.35) * min_edge
        fill = rng.uniform(0.85, 1.0) if rng.random() < 0.5 else rng.uniform(0.0, 0.15)
        dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
        alpha = np.clip((radius - dist) / 1.5, 0.0, 1.0)
        noisy = (1 - alpha) * noisy + alpha * fill
    noisy = np.clip(noisy, 0.0, 1.0)
    affected = float((np.abs(noisy - image) >= AFFECTED_LEVEL).mean())
    return noisy, affected


def reference_conjecture_experiment(
    gallery: PatternGallery,
    region_counts: tuple[int, ...],
    noise_levels: tuple[float, ...],
    trials: int,
    seed: int,
    k: int = 8,
) -> ConjectureExperiment:
    """eigenlab.run_conjecture_experiment one probe at a time: a recognize
    call per probe and region count, each redoing the global match."""
    global_model = train_global(gallery, k)
    regional_models = {rc: train_regional(gallery, rc, k) for rc in region_counts}
    rng = np.random.default_rng(seed)
    rows: list[ExperimentRow] = []
    hits = {(rc, lv): 0 for rc in region_counts for lv in noise_levels}
    r1_matches = True
    for level in noise_levels:
        for trial in range(trials):
            true_label = gallery.labels[trial % gallery.count]
            probe, _ = reference_disk_noise(gallery.patterns[trial % gallery.count], level, rng)
            for rc in region_counts:
                outcome = recognize(global_model, regional_models[rc], probe, true_label)
                correct = outcome.regional_label == true_label and not outcome.regional_tied
                if rc == 1 and outcome.regional_label != outcome.global_label:
                    r1_matches = False
                rows.append(
                    ExperimentRow(rc, level, trial, correct, outcome.fraction_regions_won)
                )
                hits[(rc, level)] += correct
    return ConjectureExperiment(
        region_counts=tuple(region_counts),
        noise_levels=tuple(noise_levels),
        trials=trials,
        rows=tuple(rows),
        rates={key: hits[key] / trials for key in hits},
        r1_matches_global=r1_matches,
    )
