"""Tests for the synthetic corpora generators."""

import hashlib

import numpy as np
import pytest

import repro.data.datasets as datasets
from repro.backends import epoch_stream
from repro.data import (functional_jpeg_manifest, imagenet_like_manifest,
                        jpeg_size_sampler, mnist_like_manifest,
                        synthetic_photo)
from repro.host import DataCollector
from repro.jpeg import decode
from repro.sim import Environment, SeedBank


def test_imagenet_manifest_shape():
    m = imagenet_like_manifest(500, SeedBank(0))
    assert len(m) == 500
    entry = m[0]
    assert (entry.height, entry.width, entry.channels) == (375, 500, 3)
    assert 0 <= entry.label < 1000


def test_imagenet_sizes_lognormal_around_mean():
    m = imagenet_like_manifest(3000, SeedBank(1))
    sizes = np.array([e.size_bytes for e in m])
    assert 90_000 < sizes.mean() < 140_000
    assert sizes.min() >= 2048
    assert sizes.std() > 20_000  # real variance, not constant


def test_imagenet_manifest_deterministic():
    a = [e.size_bytes for e in imagenet_like_manifest(100, SeedBank(7))]
    b = [e.size_bytes for e in imagenet_like_manifest(100, SeedBank(7))]
    assert a == b


def test_mnist_manifest_shape():
    m = mnist_like_manifest(1000, SeedBank(0))
    assert len(m) == 1000
    e = m[0]
    assert (e.height, e.width, e.channels) == (28, 28, 1)
    assert 0 <= e.label < 10


def test_manifest_validation():
    with pytest.raises(ValueError):
        imagenet_like_manifest(0)
    with pytest.raises(ValueError):
        mnist_like_manifest(0)
    with pytest.raises(ValueError):
        functional_jpeg_manifest(0, 8, 8)


def test_size_sampler_positive_and_spread():
    rng = SeedBank(3).stream("x")
    sampler = jpeg_size_sampler(mean_bytes=50_000)
    samples = [sampler(rng) for _ in range(500)]
    assert all(s >= 2048 for s in samples)
    assert 30_000 < np.mean(samples) < 80_000


def test_synthetic_photo_properties():
    rng = np.random.default_rng(0)
    img = synthetic_photo(rng, 32, 48)
    assert img.shape == (32, 48, 3)
    assert img.dtype == np.uint8
    gray = synthetic_photo(rng, 16, 16, gray=True)
    assert gray.shape == (16, 16)


def test_synthetic_photo_compresses_like_a_photo():
    from repro.jpeg import encode
    rng = np.random.default_rng(1)
    img = synthetic_photo(rng, 64, 64)
    noise = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    assert len(encode(img, 75)) < 0.7 * len(encode(noise, 75))


def test_functional_manifest_carries_decodable_jpegs():
    m = functional_jpeg_manifest(5, 40, 56, SeedBank(0))
    for entry in m:
        assert entry.payload is not None
        assert entry.size_bytes == len(entry.payload)
        img = decode(entry.payload)
        assert img.shape == (40, 56, 3)


def test_functional_manifest_gray():
    m = functional_jpeg_manifest(2, 28, 28, SeedBank(0), gray=True)
    img = decode(m[0].payload)
    assert img.shape == (28, 28)
    assert m[0].channels == 1


# ------------------------------------------------------- identity pins
def manifest_digest(manifest) -> str:
    h = hashlib.sha256()
    for e in manifest:
        (extent,) = e.extents
        h.update(f"{e.file_id},{e.name},{e.size_bytes},{extent.lba},"
                 f"{extent.block_count},{e.height},{e.width},{e.channels},"
                 f"{e.label}\n".encode())
    return h.hexdigest()


def test_imagenet_default_corpus_identity():
    """The default 400k training corpus, pinned to the entry-per-object
    builder it replaced."""
    m = imagenet_like_manifest(400_000, SeedBank(0))
    assert manifest_digest(m) == ("4b8c3afd2a3fb45079afac82e3beb67b"
                                  "5de1de5d640dda4bc243720da14a616c")
    assert m.total_blocks == 11_627_747


def test_mnist_corpus_identity():
    m = mnist_like_manifest(60_000, SeedBank(0))
    assert manifest_digest(m) == ("b779bdefefb52d3051f2f9d1856b0e34"
                                  "c66666f4f0e32f0cb7811eb1c6c2bffd")


def test_reused_seedbank_continues_the_stream():
    """A second build on one bank draws on from where the first stopped;
    a memo keyed on the root seed alone would repeat the first corpus."""
    bank = SeedBank(0)
    first = imagenet_like_manifest(1000, bank)
    second = imagenet_like_manifest(1000, bank)
    assert manifest_digest(second) == ("d37efbcdc73edd9f442e43baff205956"
                                       "4bd2938f3a876e1e6d078a96cc6ed2cd")
    assert manifest_digest(first) != manifest_digest(second)


# ------------------------------------------------------- memo contract
def test_memo_hit_leaves_stream_where_a_cold_build_would(monkeypatch):
    monkeypatch.setattr(datasets, "_LAST_BUILD", None)
    cold_bank, warm_bank = SeedBank(5), SeedBank(5)
    cold = imagenet_like_manifest(300, cold_bank)
    memo = datasets._LAST_BUILD
    warm = imagenet_like_manifest(300, warm_bank)
    assert datasets._LAST_BUILD is memo  # served from the memo
    assert manifest_digest(warm) == manifest_digest(cold)
    cold_rng = cold_bank.stream("imagenet-sizes")
    warm_rng = warm_bank.stream("imagenet-sizes")
    assert warm_rng.bit_generator.state == cold_rng.bit_generator.state
    assert warm_rng.integers(1 << 30) == cold_rng.integers(1 << 30)


def test_memo_is_keyed_on_arguments(monkeypatch):
    monkeypatch.setattr(datasets, "_LAST_BUILD", None)
    base = imagenet_like_manifest(200, SeedBank(2))
    assert len(imagenet_like_manifest(201, SeedBank(2))) == 201
    small = imagenet_like_manifest(200, SeedBank(2), hw=(32, 32))
    assert (small[0].height, small[0].width) == (32, 32)
    few = imagenet_like_manifest(200, SeedBank(2), num_classes=3)
    assert all(e.label < 3 for e in few)
    assert manifest_digest(imagenet_like_manifest(200, SeedBank(2))) == \
        manifest_digest(base)


def test_add_cannot_change_the_memoised_corpus():
    first = imagenet_like_manifest(50, SeedBank(9))
    expected = manifest_digest(first)
    blocks = first.total_blocks
    first.add("extra.jpg", size_bytes=5000, height=1, width=1, channels=3)
    assert [first[i].name for i in (0, 49, 50)] == \
        ["img_00000000.jpg", "img_00000049.jpg", "extra.jpg"]
    assert first[50].extents[0].lba == blocks
    hit = imagenet_like_manifest(50, SeedBank(9))
    assert len(hit) == 50 and hit.total_blocks == blocks
    assert manifest_digest(hit) == expected
    hit.add("extra.jpg", size_bytes=5000, height=1, width=1, channels=3)
    assert manifest_digest(imagenet_like_manifest(50, SeedBank(9))) == \
        expected


@pytest.mark.parametrize("build", [
    lambda: imagenet_like_manifest(20, SeedBank(0)),
    lambda: mnist_like_manifest(20, SeedBank(0)),
])
def test_entry_fields_are_python_ints(build):
    m = build()
    for e in (m[0], m[np.int64(7)], m[-1], next(iter(m))):
        (extent,) = e.extents
        for value in (e.file_id, e.size_bytes, e.height, e.width,
                      e.channels, e.label, extent.lba, extent.block_count):
            assert type(value) is int
    assert m[-1].file_id == 19


def test_bulk_manifest_epochs_cover_every_entry():
    m = imagenet_like_manifest(37, SeedBank(4))
    rng = SeedBank(4).stream("shuffle")
    assert sorted(m.epoch_order(rng)) == list(range(37))
    items = list(epoch_stream(m, rng, 0))
    assert sorted(i.entry.file_id for i in items) == list(range(37))
    collector = DataCollector(Environment())
    collector.load_from_disk(m)
    assert len(list(collector.disk_epoch(rng))) == 37
    assert len(list(m)) == 37
