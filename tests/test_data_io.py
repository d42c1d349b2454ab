import numpy as np
import pytest

from pointdiff import data_io
from pointdiff.errors import InvalidArgument, ParseError
from pointdiff.geometry import PointCloud


def test_ply_round_trip(tmp_path, rng):
    cloud = PointCloud(rng.uniform(-0.5, 0.5, size=(40, 3)))
    path = tmp_path / "c.ply"
    data_io.save_cloud(cloud, path)
    back = data_io.load_cloud(path)
    # %.9g keeps well under float64 but round-trips to ~1e-9 of unit scale
    assert np.allclose(back.points, cloud.points, atol=1e-8)
    assert len(back) == 40


def test_xyz_round_trip(tmp_path, rng):
    cloud = PointCloud(rng.normal(size=(25, 3)))
    path = tmp_path / "c.xyz"
    data_io.save_cloud(cloud, path)
    back = data_io.load_cloud(path)
    assert np.allclose(back.points, cloud.points, atol=1e-7)


def test_xyz_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header comment\n\n1 2 3\n4 5 6  # trailing comment\n")
    cloud = data_io.load_cloud(path)
    assert np.array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_xyz_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3\n4 five 6\n")
    with pytest.raises(ParseError) as exc:
        data_io.load_cloud(path)
    assert exc.value.line == 2


def test_ply_ignores_extra_properties(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nend_header\n"
        "0 0 0 255\n1 1 1 0\n"
    )
    cloud = data_io.load_cloud(path)
    assert np.array_equal(cloud.points, [[0, 0, 0], [1, 1, 1]])


def test_ply_header_errors(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("not a ply\n")
    with pytest.raises(ParseError) as exc:
        data_io.load_cloud(path)
    assert exc.value.line == 1

    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "0 0 0\n"
    )
    with pytest.raises(ParseError):
        data_io.load_cloud(path)


_PLY = ("ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")


@pytest.mark.parametrize("line, replacement, lineno", [
    ("format ascii 1.0", "format", 2),
    ("element vertex 1", "element", 3),
    ("element vertex 1", "element vertex -5", 3),
    ("element vertex 1", "element vertex 4000000000", 3),
], ids=["bare-format", "bare-element", "negative-count", "count-past-end"])
def test_ply_bad_header_line(tmp_path, line, replacement, lineno):
    path = tmp_path / "bad.ply"
    path.write_text(_PLY.replace(line, replacement))
    with pytest.raises(ParseError) as exc:
        data_io.load_cloud(path)
    assert exc.value.line == lineno


def test_ply_binary_rejected(tmp_path):
    path = tmp_path / "bin.ply"
    path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(ParseError) as exc:
        data_io.load_cloud(path)
    assert exc.value.line == 2


def test_unknown_extension(tmp_path):
    with pytest.raises(InvalidArgument):
        data_io.load_cloud(tmp_path / "cloud.obj")


def test_normalize_and_invert(rng):
    cloud = PointCloud(rng.normal(size=(64, 3)) * 7 + 3)
    normed, record = data_io.normalize(cloud)
    assert np.allclose(normed.points.mean(axis=0), 0.0, atol=1e-12)
    assert np.abs(normed.points).max() <= 0.5 + 1e-12
    restored = record.invert(normed)
    assert np.allclose(restored.points, cloud.points, atol=1e-10)


def test_resample_fps_and_random(sphere_cloud):
    down = data_io.resample(sphere_cloud, 32, method="fps")
    assert len(down) == 32
    # fps output is a subset of the input
    d2 = np.sum((down.points[:, None] - sphere_cloud.points[None]) ** 2, axis=2)
    assert np.min(d2, axis=1).max() == 0.0

    up = data_io.resample(sphere_cloud, 200, method="random", seed=4)
    assert len(up) == 200
    with pytest.raises(InvalidArgument):
        data_io.resample(sphere_cloud, 200, method="fps")


@pytest.mark.parametrize("kind", data_io.SYNTH_KINDS)
def test_synth_shapes_normalized_and_deterministic(kind):
    a = data_io.synth_shape(kind, 200, seed=9)
    b = data_io.synth_shape(kind, 200, seed=9)
    assert len(a) == 200
    assert np.array_equal(a.points, b.points)
    assert np.abs(a.points).max() <= 0.5 + 1e-12
    c = data_io.synth_shape(kind, 200, seed=10)
    assert not np.array_equal(a.points, c.points)


def _sample_cube_loop(rng, n):
    """The per-point cube sampler the vectorised one replaced, kept as its oracle."""
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 0.5, -0.5)
    for i in range(n):
        coords = [0.0, 0.0, 0.0]
        coords[axis[i]] = sign[i]
        other = [a for a in range(3) if a != axis[i]]
        coords[other[0]], coords[other[1]] = uv[i]
        pts[i] = coords
    return pts


@pytest.mark.parametrize("n", [1, 2, 7, 512])
@pytest.mark.parametrize("seed", range(3))
def test_sample_cube_matches_loop(n, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(data_io._sample_cube(rng_a, n), _sample_cube_loop(rng_b, n))
    # the same number of draws: the stream continues identically
    assert rng_a.uniform() == rng_b.uniform()


def test_synth_unknown_kind():
    with pytest.raises(InvalidArgument):
        data_io.synth_shape("klein-bottle", 10)


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text(
        "# dataset\n"
        "s1\tsynth:sphere:128:0.0:1\ttrain\n"
        "s2\tsynth:cube:128:0.0:2\ttrain\n"
        "s3\tsynth:torus:128:0.0:3\tval\n"
    )
    manifest = data_io.read_manifest(path, target_points=64)
    assert len(manifest.entries) == 3
    train = manifest.load(split="train")
    assert [item_id for item_id, _ in train] == ["s1", "s2"]
    assert all(len(cloud) == 64 for _, cloud in train)


def test_manifest_rejects_duplicates_and_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tsynth:sphere:64:0.0:1\ttrain\na\tsynth:cube:64:0.0:1\ttrain\n")
    with pytest.raises(ParseError) as exc:
        data_io.read_manifest(path, 64)
    assert exc.value.line == 2

    path.write_text("only two fields\there\n")
    with pytest.raises(ParseError):
        data_io.read_manifest(path, 64)


@pytest.mark.parametrize("spec", [
    "synth:sphere:64", "synth:sphere:abc:0:0", "synth:sphere:64:x:0", "synth:sphere:64:0:0:1",
])
def test_manifest_rejects_bad_synth_spec(tmp_path, spec):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# dataset\na\t{spec}\ttrain\n")
    with pytest.raises(ParseError) as exc:
        data_io.read_manifest(path, 64)
    assert exc.value.line == 2


def test_manifest_file_entries(tmp_path, rng):
    cloud = PointCloud(rng.normal(size=(100, 3)))
    data_io.save_cloud(cloud, tmp_path / "shape.xyz")
    manifest_path = tmp_path / "m.tsv"
    manifest_path.write_text(f"f1\t{tmp_path / 'shape.xyz'}\ttrain\n")
    loaded = data_io.read_manifest(manifest_path, 50).load("train")
    assert len(loaded) == 1
    assert len(loaded[0][1]) == 50
    # file entries are normalized before resampling
    assert np.abs(loaded[0][1].points).max() <= 0.5 + 1e-12
