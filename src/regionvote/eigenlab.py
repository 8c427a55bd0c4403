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
from the n x n Gram matrices of the n gallery patches, all regions at
once through a batched matmul and np.linalg.eigh, mapped back to pixel
space; a region keeps its top min(k, d, n - 1) directions whose
eigenvalue exceeds 1e-12 of its largest. A probe is matched in every
region by one einsum. Probes are noisy copies of gallery patterns:
soft-edged disks overwrite parts of the image, and a faint full-field
jitter rides along so that very small regions lose their footing,
mirroring how tiny electoral regions stop being meaningful samples. A
pixel counts as affected when it moved by at least 64/256 in gray value.
"""

from __future__ import annotations

import json
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
    def synthetic(
        cls, count: int, width: int, height: int, seed: int, waves: int = 4
    ) -> "PatternGallery":
        """Smooth random patterns: sums of a few low-frequency waves.

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
            for _ in range(waves):
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


def pattern_to_pgm(pattern: np.ndarray) -> str:
    """Plain (ASCII) PGM with a 16-bit gray scale."""
    arr = np.asarray(pattern, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("pattern must be 2-D")
    scaled = np.rint(np.clip(arr, 0.0, 1.0) * 65535).astype(np.int64)
    lines = ["P2", f"{arr.shape[1]} {arr.shape[0]}", "65535"]
    for row in scaled:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def pattern_from_pgm(text: str) -> np.ndarray:
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("expected a plain PGM (magic P2)")
    if len(tokens) < 4:
        raise ValueError("truncated PGM header")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = tokens[4:]
    if len(data) != width * height:
        raise ValueError(f"expected {width * height} pixels, got {len(data)}")
    arr = np.array([int(t) for t in data], dtype=np.float64).reshape(height, width)
    return arr / maxval


def save_gallery_pgm(gallery: PatternGallery, directory) -> list[str]:
    """One PGM file per pattern, named by label; returns written paths."""
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, pattern in zip(gallery.labels, gallery.patterns):
        path = directory / f"pattern_{label:03d}.pgm"
        path.write_text(pattern_to_pgm(pattern))
        paths.append(str(path))
    return paths


def load_gallery_pgm(directory) -> PatternGallery:
    import pathlib

    directory = pathlib.Path(directory)
    files = sorted(directory.glob("pattern_*.pgm"))
    if not files:
        raise ValueError(f"no pattern_*.pgm files in {directory}")
    pats = [pattern_from_pgm(f.read_text()) for f in files]
    labels = tuple(int(f.stem.split("_")[1]) for f in files)
    height, width = pats[0].shape
    return PatternGallery(width, height, np.stack(pats), labels)


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


# Bytes of stacked Gram matrices per eigh call: however many regions a
# layout has, training never holds more than this of R x n^2.
_GRAM_CHUNK_BYTES = 1 << 24


def _train(gallery: PatternGallery, cols: int, rows: int, k: int) -> EigenModel:
    """PCA of every region's patches via their Gram matrices and eigh."""
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
    step = max(1, _GRAM_CHUNK_BYTES // (8 * count * count))
    for lo in range(0, regions, step):
        part = centered[lo : lo + step]
        gram = part @ part.transpose(0, 2, 1)
        if (np.trace(gram, axis1=1, axis2=2) <= 1e-24).any():
            raise DegenerateGalleryError("gallery patterns are identical; nothing to decompose")
        values, vectors = np.linalg.eigh(gram)
        values = values[:, ::-1][:, :k_eff]
        vectors = vectors[:, :, ::-1][:, :, :k_eff]
        keep = values > values[:, :1] * 1e-12
        values = np.where(keep, values, 0.0)
        mapped = vectors.transpose(0, 2, 1) @ part
        mapped /= np.sqrt(np.where(keep, values, 1.0))[:, :, None]
        basis[lo : lo + step] = np.where(keep[:, :, None], mapped, 0.0)
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


def _nearest(model: EigenModel, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per region, the label rank of the nearest gallery pattern in eigen
    coordinates, ties taking the lowest label, and whether the two
    smallest distances are equal."""
    patches = _region_patches(image, model.region_cols, model.region_rows)
    probe = np.einsum("rkd,rd->rk", model.basis, patches - model.mean)
    diff = model.coords - probe[:, None, :]
    dists = np.sqrt(np.add.reduce(diff * diff, -1))  # the formula np.linalg.norm uses
    at_min = dists == dists.min(axis=1, keepdims=True)
    ranks = np.where(at_min, model.label_ranks, model.label_values.size).min(axis=1)
    return ranks, at_min.sum(axis=1) > 1


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
    global_rank, global_tied = _nearest(global_model, probe)
    ranks, tied = _nearest(regional_model, probe)
    values = regional_model.label_values
    votes = np.bincount(ranks, minlength=values.size)
    leaders = np.flatnonzero(votes == votes.max())
    won = int(votes[values == true_label].sum())
    return RecognitionOutcome(
        global_label=int(global_model.label_values[global_rank[0]]),
        global_tied=bool(global_tied[0]),
        regional_label=int(values[leaders[0]]),
        regional_tied=leaders.size > 1,
        tied_regions=int(tied.sum()),
        fraction_regions_won=won / regional_model.region_count,
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

    def rates_json(self) -> str:
        payload = {
            "trials": self.trials,
            "r1_matches_global": self.r1_matches_global,
            "rates": [
                {"region_count": rc, "noise_level": lv, "rate": self.rates[(rc, lv)]}
                for rc in self.region_counts
                for lv in self.noise_levels
            ],
        }
        return json.dumps(payload, sort_keys=True)


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
    curves are paired sample by sample.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    global_model = train_global(gallery, k)
    regional_models = {rc: train_regional(gallery, rc, k) for rc in region_counts}
    rng = np.random.default_rng(seed)
    rows: list[ExperimentRow] = []
    hits: dict[tuple[int, float], int] = {
        (rc, lv): 0 for rc in region_counts for lv in noise_levels
    }
    r1_matches = True
    for level in noise_levels:
        for trial in range(trials):
            true_label = gallery.labels[trial % gallery.count]
            pattern = gallery.patterns[trial % gallery.count]
            probe, _ = disk_noise(pattern, level, rng)
            for rc in region_counts:
                outcome = recognize(global_model, regional_models[rc], probe, true_label)
                correct = (
                    outcome.regional_label == true_label and not outcome.regional_tied
                )
                if rc == 1 and outcome.regional_label != outcome.global_label:
                    r1_matches = False
                rows.append(
                    ExperimentRow(
                        region_count=rc,
                        noise_level=level,
                        trial=trial,
                        correct=correct,
                        fraction_regions_won=outcome.fraction_regions_won,
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
