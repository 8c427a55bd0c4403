import numpy as np
import pytest

from regionvote.eigenlab import (
    DegenerateGalleryError,
    PatternGallery,
    disk_noise,
    load_gallery_pgm,
    pattern_from_pgm,
    pattern_to_pgm,
    power_iteration_sym,
    recognize,
    region_layout,
    run_conjecture_experiment,
    save_gallery_pgm,
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
    model = train_global(small_gallery(), 6)
    gram = model.basis @ model.basis.T
    assert np.abs(gram - np.eye(model.basis.shape[0])).max() < 1e-6


def test_reconstruction_error_non_increasing_in_k():
    gallery = small_gallery()
    flat = gallery.patterns.reshape(gallery.count, -1)
    errors = []
    for k in range(1, 7):
        model = train_global(gallery, k)
        centered = flat - model.mean
        recon = model.coords @ model.basis
        errors.append(float(np.linalg.norm(centered - recon)))
    for worse, better in zip(errors, errors[1:]):
        assert better <= worse + 1e-9


def test_degenerate_gallery_raises():
    pats = np.full((4, 6, 6), 0.5)
    gallery = PatternGallery(6, 6, pats, (0, 1, 2, 3))
    with pytest.raises(DegenerateGalleryError):
        train_global(gallery, 3)


def test_pgm_round_trip():
    rng = np.random.default_rng(3)
    pattern = rng.uniform(0, 1, (7, 9))
    text = pattern_to_pgm(pattern)
    back = pattern_from_pgm(text)
    assert back.shape == (7, 9)
    assert np.abs(back - pattern).max() <= 0.5 / 65535
    # a second trip through the 16-bit lattice is exact
    assert pattern_from_pgm(pattern_to_pgm(back)).tolist() == back.tolist()


def test_pgm_rejects_garbage():
    with pytest.raises(ValueError):
        pattern_from_pgm("P5\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError):
        pattern_from_pgm("P2\n2 2\n255\n0 0 0")  # missing pixel


def test_gallery_pgm_directory_round_trip(tmp_path):
    gallery = small_gallery(count=3)
    save_gallery_pgm(gallery, tmp_path)
    loaded = load_gallery_pgm(tmp_path)
    assert loaded.labels == (0, 1, 2)
    assert loaded.width == gallery.width
    assert np.abs(loaded.patterns - gallery.patterns).max() <= 0.5 / 65535


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
    one = rm.models[0]
    assert np.array_equal(one.mean, gm.mean)
    assert np.array_equal(one.basis, gm.basis)
    assert np.array_equal(one.coords, gm.coords)


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
    rng = np.random.default_rng(4)
    delta = (1 + rng.integers(0, 7, (6, 8))) / 32 * rng.choice([-1.0, 1.0], (6, 8))
    pats = np.stack([0.5 + delta, 0.5 - delta])
    gallery = PatternGallery(8, 6, pats, (0, 1))
    gm = train_global(gallery, 2)
    rm = train_regional(gallery, 4, 2)
    probe = np.full((6, 8), 0.5)
    out = recognize(gm, rm, probe, true_label=0)
    assert out.global_label == 0 and out.global_tied
    assert out.regional_label == 0
    assert out.tied_regions == rm.region_count
    assert out.fraction_regions_won == 1.0


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
    exp.rates_json()


def test_conjecture_experiment_rejects_nonpositive_trials():
    with pytest.raises(ValueError, match="trials must be positive"):
        run_conjecture_experiment(small_gallery(), (1, 4), (0.0,), trials=0, seed=8)
