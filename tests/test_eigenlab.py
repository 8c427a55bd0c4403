import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigen_oracles import (
    power_iteration_sym,
    reference_conjecture_experiment,
    reference_disk_noise,
    reference_recognize,
    region_boxes,
    train_regions,
)
from regionvote import eigenlab
from regionvote.cli import main
from regionvote.eigenlab import (
    DegenerateGalleryError,
    PatternGallery,
    disk_noise,
    recognize,
    region_layout,
    run_conjecture_experiment,
    train_global,
    train_regional,
)


def small_gallery(count=8, width=20, height=12, seed=5):
    return PatternGallery.synthetic(count, width, height, seed=seed)


def test_power_iteration_matches_dense_solver():
    rng = np.random.default_rng(0)
    for n in (4, 16, 48, 64):
        x = rng.standard_normal((n, n))
        a = x @ x.T
        k = min(6, n)
        values, vectors = power_iteration_sym(a, k)
        dense = np.linalg.eigh(a)
        expected = dense.eigenvalues[::-1][: len(values)]
        assert np.allclose(values, expected, rtol=1e-6)
        for lam, v in zip(values, vectors):
            assert np.linalg.norm(a @ v - lam * v) <= 1e-6 * values[0]


def test_power_iteration_vectors_orthonormal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 30))
    a = x @ x.T
    _, vectors = power_iteration_sym(a, 8)
    gram = vectors @ vectors.T
    assert np.abs(gram - np.eye(vectors.shape[0])).max() < 1e-6


def test_power_iteration_stops_at_rank():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((10, 2))
    a = u @ u.T  # rank 2
    values, vectors = power_iteration_sym(a, 5)
    assert len(values) == 2
    assert vectors.shape == (2, 10)


def test_power_iteration_rejects_asymmetric():
    with pytest.raises(ValueError):
        power_iteration_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_train_global_basis_orthonormal():
    (basis,) = train_global(small_gallery(), 6).basis
    gram = basis @ basis.T
    assert np.abs(gram - np.eye(basis.shape[0])).max() < 1e-6


def test_reconstruction_error_non_increasing_in_k():
    gallery = small_gallery()
    flat = gallery.patterns.reshape(gallery.count, -1)
    errors = []
    for k in range(1, 7):
        model = train_global(gallery, k)
        centered = flat - model.mean[0]
        recon = model.coords[0] @ model.basis[0]
        errors.append(float(np.linalg.norm(centered - recon)))
    for worse, better in zip(errors, errors[1:]):
        assert better <= worse + 1e-9


def test_degenerate_gallery_raises():
    pats = np.full((4, 6, 6), 0.5)
    gallery = PatternGallery(6, 6, pats, (0, 1, 2, 3))
    with pytest.raises(DegenerateGalleryError):
        train_global(gallery, 3)


def test_region_layout_prefers_square():
    assert region_layout(60, 40, 1) == (1, 1)
    assert region_layout(60, 40, 8) == (4, 2)   # 15x20 regions beat 30x5
    assert region_layout(60, 40, 24) == (6, 4)
    assert region_layout(60, 40, 600) == (30, 20)


def test_region_layout_rejects_impossible():
    with pytest.raises(ValueError):
        region_layout(60, 40, 7)  # 7 divides neither dimension
    with pytest.raises(ValueError):
        region_layout(4, 4, 16)  # regions of a single pixel


def test_regional_one_region_equals_global_bitwise():
    gallery = small_gallery()
    gm = train_global(gallery, 5)
    rm = train_regional(gallery, 1, 5)
    for field in ("mean", "basis", "eigenvalues", "coords", "label_ranks"):
        assert np.array_equal(getattr(rm, field), getattr(gm, field))


def test_self_recognition_is_perfect_without_noise():
    gallery = small_gallery()
    gm = train_global(gallery, 5)
    for rc in (1, 4, 24):
        rm = train_regional(gallery, rc, 5)
        for i, label in enumerate(gallery.labels):
            out = recognize(gm, rm, gallery.patterns[i], label)
            assert out.global_label == label
            assert out.regional_label == label
            assert not out.regional_tied
            assert out.fraction_regions_won == 1.0


def test_mirrored_pair_probe_ties_to_lowest_label():
    # two patterns placed symmetrically about their mean: the mean image
    # projects to the exact midpoint, so every matcher sees equal distances.
    # Deltas are dyadic rationals so that 0.5 +- delta, their mean, and the
    # mirrored coordinates are all exact floats and the distances compare
    # equal bitwise, not just approximately.
    # The lowest label wins whichever gallery row holds it.
    rng = np.random.default_rng(4)
    delta = (1 + rng.integers(0, 7, (6, 8))) / 32 * rng.choice([-1.0, 1.0], (6, 8))
    pats = np.stack([0.5 + delta, 0.5 - delta])
    for labels in ((0, 1), (1, 0)):
        gallery = PatternGallery(8, 6, pats, labels)
        gm = train_global(gallery, 2)
        rm = train_regional(gallery, 4, 2)
        probe = np.full((6, 8), 0.5)
        out = recognize(gm, rm, probe, true_label=0)
        assert out.global_label == 0 and out.global_tied
        assert out.regional_label == 0 and not out.regional_tied
        assert out.tied_regions == rm.region_count
        assert out.fraction_regions_won == 1.0


def test_repeated_labels_pool_region_votes():
    # Three columns of two pixels; the probe copies column c from gallery
    # row (0, 2, 1)[c]. Rows 0 and 2 share label 5, so 5 takes two of the
    # three regions; counted per row it would be a three-way tie won by 2.
    pats = np.array([[[0.2, 0.3, 0.7, 0.6, 0.4, 0.5]], [[0.8, 0.6, 0.3, 0.2, 0.6, 0.9]],
                     [[0.5, 0.9, 0.1, 0.4, 0.8, 0.2]]])
    gallery = PatternGallery(6, 1, pats, (5, 2, 5))
    probe = np.concatenate([pats[0, :, :2], pats[2, :, 2:4], pats[1, :, 4:]], axis=1)
    out = recognize(train_global(gallery, 2), train_regional(gallery, 3, 2), probe, 5)
    assert (out.regional_label, out.regional_tied, out.fraction_regions_won) == (5, False, 2 / 3)
    assert dataclasses.astuple(out) == reference_recognize(gallery, 3, 2, probe, 5)


def test_outcomes_and_rows_hold_python_scalars():
    # numpy scalars would print as np.float64(...) in the rows CSV
    gallery = small_gallery()
    exp = run_conjecture_experiment(gallery, (1, 4), (0.0, 0.5), trials=3, seed=2)
    out = recognize(train_global(gallery, 4), train_regional(gallery, 4, 4), gallery.patterns[0], 0)
    for record in (*exp.rows, out):
        for field in dataclasses.fields(record):
            assert type(getattr(record, field.name)) in (int, float, bool), field.name


def test_disk_noise_zero_level_is_identity():
    rng = np.random.default_rng(5)
    image = rng.uniform(0, 1, (10, 10))
    noisy, affected = disk_noise(image, 0.0, rng)
    assert affected == 0.0
    assert np.array_equal(noisy, image)


def test_disk_noise_accounting_consistent():
    rng = np.random.default_rng(6)
    image = PatternGallery.synthetic(1, 30, 20, seed=7).patterns[0]
    noisy, affected = disk_noise(image, 0.3, rng)
    assert noisy.min() >= 0.0 and noisy.max() <= 1.0
    recomputed = float((np.abs(noisy - image) >= 64 / 256).mean())
    assert affected == recomputed
    assert affected >= 0.25  # the disk loop chases the requested coverage


@given(
    st.integers(3, 41),
    st.integers(3, 41),
    st.floats(0.1, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(60, 40, 0.1, 17)
@example(60, 40, 1.0, 17)
@settings(max_examples=150, deadline=None)
def test_windowed_disk_noise_matches_whole_image_reference(width, height, coverage, seed):
    # disk centres are uniform over the image, so disks overhang its edges;
    # at coverage 1.0 a probe runs all 64 disks
    image = np.random.default_rng(seed).uniform(0, 1, (height, width))
    rng, reference_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    noisy, affected = disk_noise(image, coverage, rng)
    expected, expected_affected = reference_disk_noise(image, coverage, reference_rng)
    assert np.array_equal(noisy, expected)
    assert affected == expected_affected
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("low, high", [(0, 60), (0, 40), (0.15, 0.35), (0.85, 1.0), (0.0, 0.15)])
def test_disk_draw_scaling_equals_generator_uniform_bitwise(low, high):
    # disk_noise scales rng.random() doubles as low + (high - low) * u; a
    # numpy build whose uniform fuses that multiply and add into one FMA
    # would round differently, and this catches it
    u = np.random.default_rng(3).random(10**5)
    drawn = np.random.default_rng(3).uniform(low, high, 10**5)
    scaled = np.array([low + (high - low) * v for v in u.tolist()])
    assert np.array_equal(scaled.view(np.int64), drawn.view(np.int64))


def test_probe_shape_checked():
    gallery = small_gallery()
    gm = train_global(gallery, 4)
    rm = train_regional(gallery, 4, 4)
    with pytest.raises(ValueError):
        recognize(gm, rm, np.zeros((5, 5)), 0)


def test_conjecture_experiment_rows_and_pairing():
    gallery = small_gallery()
    exp = run_conjecture_experiment(gallery, (1, 4), (0.0,), trials=6, seed=8)
    assert exp.r1_matches_global
    assert exp.rates[(1, 0.0)] == 1.0 and exp.rates[(4, 0.0)] == 1.0
    assert len(exp.rows) == 2 * 6
    csv = exp.to_csv().strip().splitlines()
    assert csv[0] == "region_count,noise_level,trial,correct,fraction_regions_won"
    assert len(csv) == 1 + len(exp.rows)


def test_conjecture_experiment_rejects_nonpositive_trials():
    with pytest.raises(ValueError, match="trials must be positive"):
        run_conjecture_experiment(small_gallery(), (1, 4), (0.0,), trials=0, seed=8)


def test_constant_synthetic_pattern_is_flat_gray_and_non_finite_is_refused():
    # at 2x1 some patterns get only waves that are constant over the image
    gallery = PatternGallery.synthetic(16, 2, 1, 11)
    flat = [p for p in gallery.patterns if p.min() == p.max()]
    assert flat and all((p == 0.5).all() for p in flat)
    for bad in (np.nan, np.inf):
        pats = np.full((2, 1, 2), 0.5)
        pats[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PatternGallery(2, 1, pats, (0, 1))


# Image sizes with every region count they allow, down to 2-pixel regions.
_LAYOUTS = {(4, 2): (1, 2, 4), (6, 4): (1, 2, 3, 4, 6, 12), (8, 6): (1, 4, 6, 8, 12, 24)}


def random_gallery(seed, count, width, height, rank, repeat_labels):
    """Patterns spanning a rank-dimensional space, so a region can run
    out of spectrum before k; labels shuffled, repeated when asked."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(-0.1, 0.1, (rank, height, width))
    pats = 0.5 + np.tensordot(rng.uniform(-1, 1, (count, rank)), images, 1)
    labels = rng.integers(0, count, count) if repeat_labels else rng.permutation(count) * 3
    return PatternGallery(width, height, pats, tuple(int(v) for v in labels))


gallery_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(2, 7),
    st.sampled_from(sorted(_LAYOUTS)),
    st.integers(1, 4),
    st.booleans(),
).flatmap(
    lambda c: st.tuples(
        st.just(random_gallery(c[0], c[1], *c[2], c[3], c[4])),
        st.sampled_from(_LAYOUTS[c[2]]),
        st.integers(1, 8),
    )
)


def faint_gallery():
    """Rank-2 patterns plus noise at 1e-4 of their amplitude: the faint
    directions' eigenvalues, near 1e-9 of the top, are above the cutoff."""
    gallery = random_gallery(0, 6, 6, 4, 2, False)
    faint = np.random.default_rng(1).uniform(-1e-5, 1e-5, gallery.patterns.shape)
    return PatternGallery(6, 4, gallery.patterns + faint, gallery.labels)


@given(gallery_cases)
@example((faint_gallery(), 4, 8))
@settings(max_examples=60, deadline=None)
def test_stacked_training_matches_power_iteration(case):
    gallery, region_count, k = case
    model = train_regional(gallery, region_count, k)
    d = gallery.width * gallery.height // region_count
    assert model.basis.shape == (region_count, min(k, d, gallery.count - 1), d)
    boxes = region_boxes(gallery.width, gallery.height, region_count)
    for r, (oracle, (x0, y0, w, h)) in enumerate(zip(train_regions(gallery, region_count, k), boxes)):
        assert np.allclose(model.mean[r], oracle.mean)
        # eigh keeps what a dense solve keeps, and pads the rest with zeros
        patches = gallery.patterns[:, y0 : y0 + h, x0 : x0 + w].reshape(gallery.count, -1)
        centered = patches - patches.mean(axis=0)
        spectrum = np.append(np.linalg.eigvalsh(centered @ centered.T)[::-1], 0.0)
        top = spectrum[0]
        kept = int(np.sum(spectrum[: model.eigenvalues.shape[1]] > 1e-12 * top))
        assert np.allclose(model.eigenvalues[r, :kept], spectrum[:kept], rtol=1e-6, atol=1e-13 * top)
        assert not model.eigenvalues[r, kept:].any() and not model.basis[r, kept:].any()
        # Power iteration stops once its residual is under 1e-8 of the top
        # eigenvalue, so it can keep a start vector that barely touches a
        # direction far below the top, or drop that direction: compare it
        # only on the eigenvalues above 1e-3 of the top, and on their span
        # to within the sin-theta bound residual / gap.
        big = int(np.sum(oracle.eigenvalues >= 1e-3 * top))
        assert np.allclose(model.eigenvalues[r, :big], oracle.eigenvalues[:big], rtol=1e-6)
        gap = spectrum[big - 1] - spectrum[big]
        basis, reference = model.basis[r, :big], oracle.basis[:big]
        projector_error = np.abs(basis.T @ basis - reference.T @ reference).max()
        assert projector_error * gap <= 10 * 1e-8 * top


@given(gallery_cases, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_recognition_matches_reference_on_random_probes(case, probe_seed):
    gallery, region_count, k = case
    rng = np.random.default_rng(probe_seed)
    gm = train_global(gallery, k)
    rm = train_regional(gallery, region_count, k)
    index = int(rng.integers(gallery.count))
    true_label = gallery.labels[index]
    for probe in (rng.uniform(0, 1, (gallery.height, gallery.width)), gallery.patterns[index]):
        out = recognize(gm, rm, probe, true_label)
        assert dataclasses.astuple(out) == reference_recognize(
            gallery, region_count, k, probe, true_label
        )


def test_gram_chunks_of_one_region_give_identical_models(monkeypatch):
    gallery = small_gallery()
    whole = train_regional(gallery, 24, 5)
    monkeypatch.setattr(eigenlab, "_EIGH_CHUNK_BYTES", 8 * gallery.count**2)
    single = train_regional(gallery, 24, 5)
    for field in ("mean", "basis", "eigenvalues", "coords"):
        assert np.array_equal(getattr(single, field), getattr(whole, field))


@pytest.mark.parametrize("count", [20, 13, 12, 11])
def test_training_side_switch_matches_power_iteration(count, monkeypatch):
    # 8 regions of 3x4 pixels, d = 12: the covariance side for d < n and
    # d = n - 1, the Gram side for d = n and d = n + 1
    rng = np.random.default_rng(count)
    gallery = PatternGallery(12, 8, rng.uniform(0, 1, (count, 8, 12)), tuple(range(count)))
    model = train_regional(gallery, 8, 8)
    for r, oracle in enumerate(train_regions(gallery, 8, 8)):
        assert np.allclose(model.eigenvalues[r], oracle.eigenvalues, rtol=1e-6)
        # orthonormal rows, each carrying its eigenvalue's share of the variance
        assert np.allclose(model.basis[r] @ model.basis[r].T, np.eye(8), atol=1e-12)
        assert np.allclose((model.coords[r] ** 2).sum(axis=0), model.eigenvalues[r], rtol=1e-9)
    gm = train_global(gallery, 8)
    for probe in (*gallery.patterns[:3], *rng.uniform(0, 1, (3, 8, 12))):
        out = recognize(gm, model, probe, 0)
        assert dataclasses.astuple(out) == reference_recognize(gallery, 8, 8, probe, 0)
    monkeypatch.setattr(eigenlab, "_EIGH_CHUNK_BYTES", 1)
    single = train_regional(gallery, 8, 8)
    for field in ("mean", "basis", "eigenvalues", "coords", "label_ranks"):
        assert np.array_equal(getattr(single, field), getattr(model, field))


def test_reduce_sum_matches_add_reduce_bitwise():
    rng = np.random.default_rng(9)
    for n in range(1, 301):
        x = rng.standard_normal((3, 5, n)) ** 2 * rng.uniform(1e-3, 1e3, (3, 5, 1))
        total = eigenlab._reduce_sum(lambda j: x[..., j].copy(), 0, n)
        assert np.array_equal(total.view(np.int64), np.add.reduce(x, -1).view(np.int64)), n


BENCHMARK_REGION_COUNTS = (1, 4, 8, 24, 96, 600)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 123])
def test_batched_experiment_matches_per_probe_reference(seed):
    gallery = PatternGallery.synthetic(16, 60, 40, seed=11)
    args = (gallery, BENCHMARK_REGION_COUNTS, (0.0, 0.5), 32, seed)
    batched = run_conjecture_experiment(*args)
    reference = reference_conjecture_experiment(*args)
    assert batched.to_csv() == reference.to_csv()
    assert (batched.rates, batched.trials) == (reference.rates, reference.trials)
    assert batched.r1_matches_global == reference.r1_matches_global


@pytest.mark.parametrize("k, count", [(3, 9), (12, 24), (20, 40)])
def test_batched_experiment_matches_reference_across_sum_paths(k, count):
    # k = 3 sums the squared differences in sequence, k = 12 and k = 20 in
    # eight partial sums plus a remainder of four
    gallery = PatternGallery.synthetic(count, 24, 20, seed=count)
    args = (gallery, (1, 4, 24, 120), (0.0, 0.3, 0.7), 20, 5)
    batched = run_conjecture_experiment(*args, k=k)
    reference = reference_conjecture_experiment(*args, k=k)
    assert train_regional(gallery, 4, k).basis.shape[1] == k
    assert batched.to_csv() == reference.to_csv()
    assert (batched.rates, batched.trials) == (reference.rates, reference.trials)
    assert batched.r1_matches_global == reference.r1_matches_global


def test_probe_chunks_of_one_give_identical_experiments(monkeypatch):
    gallery = small_gallery()
    args = (gallery, (1, 4, 24), (0.0, 0.5), 11, 3)
    whole = run_conjecture_experiment(*args)
    monkeypatch.setattr(eigenlab, "_PROBE_CHUNK_BYTES", 1)
    assert run_conjecture_experiment(*args) == whole


# sha256 of the `regionvote eigen` outputs (the rates file, then
# eigen_rows.csv), written by the per-region power-iteration code; the
# stacked code must reproduce them byte for byte.
EIGEN_OUTPUTS = {
    (None, "json"): ("1c2c07fd941cbe3b39c5b5f20b51abb1d4a4632276c7a98ba7566d9893849f1e",
                     "e22b6015f88fbbba413b9af820022dcaca107c9e90495e7fb925a802302d8edc"),
    (None, "csv"): ("0adc4f418900735f54460212d4e4da2abce15bc7a0a58cccd575d9edbd7c60be",
                    "5516f5b0b794de5cad3a1a4a9eb3997ead263b0b040391b5f6301bebd1d5e623"),
    (None, "txt"): ("4dc0482ee842246248b5ad121ecffbb2aaa743ca2c5e2da32d3c4259a85eac96",
                    "4ae2b2f3ae039d795a7c597d6b7f5210d2a888fab8c70ef4471f4e033f26076b"),
    (1, "json"): ("4a7eddc6729ccba30a5fc80642fe73ddbccb9750a6c5706938fc6937a4a9af23",
                  "6f05ef8265e2c85f68b0dc2cb50024b79d4d69f1d98df292efcea422ed4a951f"),
    (1, "csv"): ("5e2858a11f98766d50be107e06832c3e1a949b2d281e2204a67600598ff5796a",
                 "13e32e1f08eb72f2e967aa82c81a2e739d851f1888c383d310c17a54c55a24ef"),
    (1, "txt"): ("9ff5f515e7ba046caa8287ac081d7bc0352237a995b9bbdaa494f1f736f4abb5",
                 "f47da36822c7f5237f16e3b90aebe6713f7286d5b7881d0509465ef5ab9d158e"),
    (7, "json"): ("c13be27813669504919eb30981e29a9f3fb8fa23680957c0fb5261e480f48a97",
                  "4c1fe0f345397a2bfa0aee440074432b231dfc8615dd4ba9b440e3e111829ea2"),
    (7, "csv"): ("08124fa87616210af4320fe91be1c29a5fc41330153fbcd0e701490df0695226",
                 "26c973f4b41a4233f9c9338c116cb2b9e6f7446e1053c5cb582a4a2671c6a12e"),
    (7, "txt"): ("b1d65370cbdd2ddb2a84403d21c6987c7c16e225e2dc28573e5d0967b36a439f",
                 "bcb1b40bac5b9077aa755a0f200482807c3f57633db11cacbb24a16429b2027f"),
}


def test_eigen_outputs_are_unchanged(tmp_path):
    for (seed, fmt), digests in EIGEN_OUTPUTS.items():
        out = tmp_path / f"{seed}_{fmt}"
        seed_args = [] if seed is None else ["--seed", str(seed)]
        assert main(["eigen", *seed_args, "--format", fmt, "--out", str(out)]) == 0
        written = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in (f"eigen.{fmt}", "eigen_rows.csv")
        )
        assert written == digests, (seed, fmt)
