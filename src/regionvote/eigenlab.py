"""Eigen-decomposition pattern matching, global and regional.

The same national-versus-regional game as vote grids, played with image
recognition: store a gallery of patterns, project probes into the
gallery's principal subspace, and predict by nearest neighbor (the
eigenface method). The global matcher uses one subspace for the whole
image; the regional matcher splits the image into equal rectangular
regions, matches each region independently, and lets the regions vote,
winner take all. With one region the two are the same computation, bit
for bit.

Every region of a layout has the same patch shape, so one model holds
all of them stacked on a leading region axis. Principal directions come
from the smaller side of a region's n gallery patches of d pixels, all
regions at once through a batched matmul and np.linalg.eigh: the n x n
Gram matrices (the snapshot method), mapped back to pixel space, when
n <= d, and the d x d covariances, whose eigenvectors are the directions
themselves, when d < n. A region keeps its top min(k, d, n - 1)
directions whose eigenvalue exceeds 1e-12 of its largest. Probes are
matched in chunks: one einsum projects a stack of probes in every
region, and the squared coordinate differences are summed slab by slab
in the order np.add.reduce uses, so a chunk's distances equal one
probe's bit for bit. The chunk cap, _PROBE_CHUNK_BYTES, keeps a chunk's
image stack and every (gallery, probes, regions) slab within 1 MiB (or
one probe's, if larger) however many trials run. Probes are noisy copies of gallery
patterns: soft-edged disks overwrite parts of the image, each touching
only its bounding window, and a faint full-field jitter rides along so
that very small regions lose their footing, mirroring how tiny
electoral regions stop being meaningful samples. A pixel counts as
affected when it moved by at least 64/256 in gray value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AFFECTED_LEVEL = 64 / 256
# Strictly below AFFECTED_LEVEL: the jitter on its own can never flag a
# pixel as affected, only the disks can.
_JITTER_SPAN = 0.24


class DegenerateGalleryError(ValueError):
    """The gallery has no variance to decompose."""


@dataclass(frozen=True)
class PatternGallery:
    """P grayscale patterns of identical size, values in [0, 1]."""

    width: int
    height: int
    patterns: np.ndarray  # (P, height, width) float64
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        pats = np.asarray(self.patterns, dtype=np.float64)
        if pats.ndim != 3 or pats.shape[1:] != (self.height, self.width):
            raise ValueError(
                f"patterns must have shape (P, {self.height}, {self.width})"
            )
        if len(self.labels) != pats.shape[0]:
            raise ValueError("one label per pattern required")
        if not ((pats >= 0.0) & (pats <= 1.0)).all():
            raise ValueError("pattern values must be finite and lie in [0, 1]")
        object.__setattr__(self, "patterns", pats)

    @property
    def count(self) -> int:
        return self.patterns.shape[0]

    @classmethod
    def synthetic(cls, count: int, width: int, height: int, seed: int) -> "PatternGallery":
        """Smooth random patterns: sums of four low-frequency waves.

        Large-scale structure separates the patterns well at coarse
        regions while neighboring pixels stay close, so fine regions
        carry little signal, the regime the regional matcher's
        degradation story needs.
        """
        rng = np.random.default_rng(seed)
        ys, xs = np.mgrid[0:height, 0:width]
        pats = np.zeros((count, height, width))
        for p in range(count):
            acc = np.zeros((height, width))
            for _ in range(4):
                u = rng.integers(0, 3)
                v = rng.integers(0, 3)
                if u == 0 and v == 0:
                    u = 1
                amp = rng.uniform(0.5, 1.0)
                phase = rng.uniform(0, 2 * math.pi)
                acc += amp * np.cos(
                    2 * math.pi * (u * xs / width + v * ys / height) + phase
                )
            lo, hi = acc.min(), acc.max()
            # a pattern every wave left constant is flat mid-gray
            pats[p] = 0.5 if hi == lo else 0.05 + 0.9 * (acc - lo) / (hi - lo)
        return cls(width, height, pats, tuple(range(count)))


# ---------------------------------------------------------------------------
# eigen decomposition


def region_layout(width: int, height: int, region_count: int) -> tuple[int, int]:
    """Pick the (columns, rows) split making regions closest to square.

    Both counts must divide their image dimension; a region must keep at
    least 2 pixels. Raises ValueError when region_count fits no layout.
    """
    best = None
    for cols in range(1, region_count + 1):
        if region_count % cols:
            continue
        rows = region_count // cols
        if width % cols or height % rows:
            continue
        rw, rh = width // cols, height // rows
        if rw * rh < 2:
            continue
        badness = abs(rw - rh)
        if best is None or badness < best[0]:
            best = (badness, cols, rows)
    if best is None:
        raise ValueError(
            f"no layout of {region_count} regions of 2+ pixels divides "
            f"{width}x{height}"
        )
    return best[1], best[2]


def _region_patches(images: np.ndarray, cols: int, rows: int) -> np.ndarray:
    """Cut (..., H, W) images into (R, ..., d) region patches.

    Regions run row-major over the cols x rows layout; each patch lists
    its pixels row by row, as image[y0:y0+h, x0:x0+w].reshape(-1) would.
    """
    *lead, height, width = images.shape
    rh, rw = height // rows, width // cols
    m = len(lead)
    split = images.reshape(*lead, rows, rh, cols, rw)
    stacked = split.transpose(m, m + 2, *range(m), m + 1, m + 3)
    return stacked.reshape(rows * cols, *lead, rh * rw)


@dataclass(frozen=True)
class EigenModel:
    """Principal subspaces of the R equal regions of an image, stacked.

    Region r (row-major over region_cols x region_rows) has mean[r] (d,),
    basis[r] (k, d) with orthonormal rows, eigenvalues[r] (k,)
    non-increasing and coords[r] (n, k), the projections of the n gallery
    patterns. A region whose spectrum ran out before k keeps zero rows in
    basis, zeros in eigenvalues and zero columns in coords, which add 0 to
    every distance. label_ranks[i] indexes gallery pattern i's label in the
    sorted label_values.
    """

    width: int
    height: int
    region_cols: int
    region_rows: int
    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    coords: np.ndarray
    label_values: np.ndarray
    label_ranks: np.ndarray

    @property
    def region_count(self) -> int:
        return self.region_cols * self.region_rows


# Bytes of stacked matrices per eigh call: training decomposes each
# region's n x n Gram matrix or d x d covariance, whichever side is
# smaller, and however many regions a layout has never holds more than
# this of R x min(n, d)^2.
_EIGH_CHUNK_BYTES = 1 << 24


def _train(gallery: PatternGallery, cols: int, rows: int, k: int) -> EigenModel:
    """PCA of every region's patches by eigh of the smaller side: the
    n x n Gram matrices, mapped back to pixel space, when n <= d, and
    the d x d covariances, whose eigenvectors are the basis, when d < n."""
    if k < 1:
        raise ValueError("k must be at least 1")
    label_values, label_ranks = np.unique(gallery.labels, return_inverse=True)
    patches = _region_patches(gallery.patterns, cols, rows)  # (R, n, d)
    regions, count, dim = patches.shape
    mean = patches.mean(axis=1)
    centered = patches - mean[:, None, :]
    k_eff = min(k, dim, count - 1)
    basis = np.zeros((regions, k_eff, dim))
    eigenvalues = np.zeros((regions, k_eff))
    gram_side = count <= dim
    step = max(1, _EIGH_CHUNK_BYTES // (8 * min(count, dim) ** 2))
    for lo in range(0, regions, step):
        part = centered[lo : lo + step]
        part_t = part.transpose(0, 2, 1)
        matrix = part @ part_t if gram_side else part_t @ part
        if (np.trace(matrix, axis1=1, axis2=2) <= 1e-24).any():
            raise DegenerateGalleryError("gallery patterns are identical; nothing to decompose")
        values, vectors = np.linalg.eigh(matrix)
        values = values[:, ::-1][:, :k_eff]
        # top eigenvectors as rows, (chunk, k_eff, min(n, d))
        vectors = vectors[:, :, ::-1][:, :, :k_eff].transpose(0, 2, 1)
        keep = values > values[:, :1] * 1e-12
        values = np.where(keep, values, 0.0)
        if gram_side:
            vectors = vectors @ part
            vectors /= np.sqrt(np.where(keep, values, 1.0))[:, :, None]
        basis[lo : lo + step] = np.where(keep[:, :, None], vectors, 0.0)
        eigenvalues[lo : lo + step] = values
    coords = centered @ basis.transpose(0, 2, 1)
    return EigenModel(
        gallery.width, gallery.height, cols, rows,
        mean, basis, eigenvalues, coords, label_values, label_ranks,
    )


def train_global(gallery: PatternGallery, k: int) -> EigenModel:
    """Whole-image principal subspace: the one-region model."""
    return _train(gallery, 1, 1, k)


def train_regional(gallery: PatternGallery, region_count: int, k: int) -> EigenModel:
    """Independent principal subspaces for each of region_count regions."""
    cols, rows = region_layout(gallery.width, gallery.height, region_count)
    return _train(gallery, cols, rows, k)


# ---------------------------------------------------------------------------
# recognition


# Bytes of a chunk's (probes, H, W) image stack and of each of its
# (gallery, probes, regions) float64 slabs of distance sums: probes are
# matched in chunks small enough that neither exceeds this (unless one
# probe's does), so memory stays flat however many trials run.
_PROBE_CHUNK_BYTES = 1 << 20


def _reduce_sum(term, lo: int, hi: int) -> np.ndarray:
    """term(lo) + ... + term(hi - 1), added in place in the order
    np.add.reduce sums a contiguous last axis (numpy's pairwise sum):
    in sequence below 8 terms, in eight interleaved partial sums up to
    128, halves split at a multiple of 8 above. The total equals
    np.add.reduce over the stacked terms bit for bit. Each term(j) must
    return a new array."""
    count = hi - lo
    if count > 128:
        half = count // 2 - count // 2 % 8
        total = _reduce_sum(term, lo, lo + half)
        total += _reduce_sum(term, lo + half, hi)
        return total
    if count < 8:
        total = term(lo)
        for j in range(lo + 1, hi):
            total += term(j)
        return total
    acc = [term(lo + j) for j in range(8)]
    tail = hi - count % 8
    for i in range(lo + 8, tail, 8):
        for j in range(8):
            acc[j] += term(i + j)
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        acc[a] += acc[b]
    for j in range(tail, hi):
        acc[0] += term(j)
    return acc[0]


def _nearest(model: EigenModel, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a (P, H, W) stack of probes, per probe and region: the label
    rank of the nearest gallery pattern in eigen coordinates, ties taking
    the lowest label, and whether the two smallest distances are equal.
    Both are (P, R)."""
    patches = _region_patches(images, model.region_cols, model.region_rows)
    probe = np.einsum("rkd,rpd->rpk", model.basis, patches - model.mean[:, None, :])
    probe = np.ascontiguousarray(probe.transpose(2, 1, 0))  # (k, P, R)
    coords = np.ascontiguousarray(model.coords.transpose(2, 1, 0))  # (k, n, R)

    def term(j):
        diff = coords[j][:, None, :] - probe[j]
        diff *= diff
        return diff

    # (n, P, R) distances, the squares summed as np.linalg.norm sums them
    dists = np.sqrt(_reduce_sum(term, 0, coords.shape[0]))
    at_min = dists == dists.min(axis=0)
    ranks = np.where(at_min, model.label_ranks[:, None, None], model.label_values.size)
    return ranks.min(axis=0), at_min.sum(axis=0) > 1


def _match(
    model: EigenModel, images: np.ndarray, true_labels
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Regional winner-take-all for a (P, H, W) stack of probes.

    Per probe: the label winning the most regions, ties breaking to the
    lowest label; whether that lead is tied; how many regions had a
    distance tie; and the region votes for true_labels[p]. With one
    region this is the global nearest-label match.
    """
    ranks, tied = _nearest(model, images)
    values = model.label_values
    probes = ranks.shape[0]
    offsets = values.size * np.arange(probes)[:, None]
    votes = np.bincount((ranks + offsets).ravel(), minlength=probes * values.size)
    votes = votes.reshape(probes, values.size)
    leads = votes == votes.max(axis=1, keepdims=True)
    won = np.where(values == np.asarray(true_labels)[:, None], votes, 0).sum(axis=1)
    return values[leads.argmax(axis=1)], leads.sum(axis=1) > 1, tied.sum(axis=1), won


@dataclass(frozen=True)
class RecognitionOutcome:
    global_label: int
    global_tied: bool
    regional_label: int
    regional_tied: bool
    tied_regions: int
    fraction_regions_won: float


def recognize(
    global_model: EigenModel,
    regional_model: EigenModel,
    probe: np.ndarray,
    true_label: int,
) -> RecognitionOutcome:
    """Match a probe image globally and by regional winner-take-all.

    Every region votes for its nearest gallery label; the regional
    prediction is the label winning the most regions, ties breaking to
    the lowest label with the tie flagged. fraction_regions_won reports
    the true label's share of region votes.
    """
    probe = np.asarray(probe, dtype=np.float64)
    if probe.shape != (regional_model.height, regional_model.width):
        raise ValueError(
            f"probe must be {regional_model.height}x{regional_model.width}"
        )
    global_label, _, global_tied, _ = _match(global_model, probe[None], [true_label])
    label, lead_tied, tied_regions, won = _match(regional_model, probe[None], [true_label])
    return RecognitionOutcome(
        global_label=int(global_label[0]),
        global_tied=bool(global_tied[0]),
        regional_label=int(label[0]),
        regional_tied=bool(lead_tied[0]),
        tied_regions=int(tied_regions[0]),
        fraction_regions_won=int(won[0]) / regional_model.region_count,
    )


# ---------------------------------------------------------------------------
# noise and the region-count experiment


def disk_noise(
    image: np.ndarray, coverage: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Occlude the image with soft-edged disks plus faint full-field jitter.

    coverage is the target fraction of affected pixels (moved by at
    least 64/256). Returns (noisy image, realized affected fraction).
    coverage 0 returns the image untouched. The jitter stays under the
    affected threshold pixel by pixel, so the affected count is driven
    by the disks; it still drowns out regions of a few pixels, whose
    matchers keep the full noise energy instead of averaging it away.
    """
    image = np.asarray(image, dtype=np.float64)
    if coverage <= 0:
        return image.copy(), 0.0
    height, width = image.shape
    noisy = image + rng.uniform(-_JITTER_SPAN, _JITTER_SPAN, image.shape)
    hit = np.abs(noisy - image) >= AFFECTED_LEVEL
    affected = np.count_nonzero(hit)
    min_edge = min(width, height)
    xs, ys = np.arange(width), np.arange(height)[:, None]
    for _ in range(64):
        if affected / image.size >= coverage:
            break
        # One draw for the disk's centre, radius, coin and fill, each scaled
        # as Generator.uniform(low, high) scales it, low + (high - low) * u:
        # the values and the generator's state of five scalar calls.
        cx, cy, radius, coin, fill = rng.random(5).tolist()
        cx, cy = width * cx, height * cy
        radius = (0.15 + (0.35 - 0.15) * radius) * min_edge
        fill = 0.85 + (1.0 - 0.85) * fill if coin < 0.5 else 0.15 * fill
        # alpha is 0 wherever dist >= radius, so only this window changes;
        # it runs one pixel past the disk on each side
        x0, x1 = max(0, math.floor(cx - radius)), min(width, math.ceil(cx + radius) + 1)
        y0, y1 = max(0, math.floor(cy - radius)), min(height, math.ceil(cy + radius) + 1)
        window = np.s_[y0:y1, x0:x1]
        affected -= np.count_nonzero(hit[window])
        dist = np.sqrt((xs[x0:x1] - cx) ** 2 + (ys[y0:y1] - cy) ** 2)
        alpha = np.minimum(np.maximum((radius - dist) / 1.5, 0.0), 1.0)
        noisy[window] = (1 - alpha) * noisy[window] + alpha * fill
        hit[window] = np.abs(noisy[window] - image[window]) >= AFFECTED_LEVEL
        affected += np.count_nonzero(hit[window])
    noisy = np.clip(noisy, 0.0, 1.0)
    affected = float((np.abs(noisy - image) >= AFFECTED_LEVEL).mean())
    return noisy, affected


@dataclass(frozen=True)
class ExperimentRow:
    region_count: int
    noise_level: float
    trial: int
    correct: bool
    fraction_regions_won: float


@dataclass(frozen=True)
class ConjectureExperiment:
    """Recognition rates against region count and noise level.

    rows are paired: for a given (noise_level, trial) every region count
    judged the same noisy probe. rates maps (region_count, noise_level)
    to the mean recognition rate.
    """

    region_counts: tuple[int, ...]
    noise_levels: tuple[float, ...]
    trials: int
    rows: tuple[ExperimentRow, ...]
    rates: dict[tuple[int, float], float]
    r1_matches_global: bool

    def to_csv(self) -> str:
        lines = ["region_count,noise_level,trial,correct,fraction_regions_won"]
        for r in self.rows:
            lines.append(
                f"{r.region_count},{r.noise_level!r},{r.trial},{int(r.correct)},"
                f"{r.fraction_regions_won!r}"
            )
        return "\n".join(lines) + "\n"


def run_conjecture_experiment(
    gallery: PatternGallery,
    region_counts: tuple[int, ...],
    noise_levels: tuple[float, ...],
    trials: int,
    seed: int,
    k: int = 8,
) -> ConjectureExperiment:
    """Measure recognition rate as the image is cut into more regions.

    Probes cycle through the gallery patterns; each (noise level, trial)
    pair draws one noisy probe shared by every region count, so the rate
    curves are paired sample by sample. Probes are drawn in trial order
    and matched a chunk at a time, one match per model per chunk.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    global_model = train_global(gallery, k)
    regional_models = {rc: train_regional(gallery, rc, k) for rc in region_counts}
    # a probe's bytes in the image stack and in a distance slab at the finest layout
    pixels, slab = gallery.width * gallery.height, gallery.count * max((1, *region_counts))
    chunk = max(1, _PROBE_CHUNK_BYTES // (8 * max(pixels, slab)))
    rng = np.random.default_rng(seed)
    rows: list[ExperimentRow] = []
    hits: dict[tuple[int, float], int] = {
        (rc, lv): 0 for rc in region_counts for lv in noise_levels
    }
    r1_matches = True
    for level in noise_levels:
        for lo in range(0, trials, chunk):
            span = range(lo, min(lo + chunk, trials))
            labels = [gallery.labels[trial % gallery.count] for trial in span]
            probes = np.stack(
                [disk_noise(gallery.patterns[trial % gallery.count], level, rng)[0] for trial in span]
            )
            global_labels = _match(global_model, probes, labels)[0]
            matches = {rc: _match(model, probes, labels) for rc, model in regional_models.items()}
            for i, trial in enumerate(span):
                for rc in region_counts:
                    label, lead_tied, _, won = (field[i] for field in matches[rc])
                    correct = bool(label == labels[i] and not lead_tied)
                    if rc == 1 and label != global_labels[i]:
                        r1_matches = False
                    rows.append(
                        ExperimentRow(
                            region_count=rc,
                            noise_level=level,
                            trial=trial,
                            correct=correct,
                            fraction_regions_won=int(won) / regional_models[rc].region_count,
                        )
                    )
                    if correct:
                        hits[(rc, level)] += 1
    rates = {key: hits[key] / trials for key in hits}
    return ConjectureExperiment(
        region_counts=tuple(region_counts),
        noise_levels=tuple(noise_levels),
        trials=trials,
        rows=tuple(rows),
        rates=rates,
        r1_matches_global=r1_matches,
    )
