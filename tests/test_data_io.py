import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_resample_fps(sphere_cloud):
    down = data_io.resample(sphere_cloud, 32)
    assert len(down) == 32
    # fps output is a subset of the input
    d2 = np.sum((down.points[:, None] - sphere_cloud.points[None]) ** 2, axis=2)
    assert np.min(d2, axis=1).max() == 0.0
    with pytest.raises(InvalidArgument):
        data_io.resample(sphere_cloud, 200)


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


def _sample_cylinder_loop(rng, n, radius, height):
    """The per-point cylinder sampler the vectorised one replaced, kept as its oracle."""
    side_area = 2 * np.pi * radius * height
    cap_area = np.pi * radius**2
    total = side_area + 2 * cap_area
    pts = np.empty((n, 3))
    which = rng.uniform(size=n) * total
    theta = rng.uniform(0, 2 * np.pi, size=n)
    for i in range(n):
        if which[i] < side_area:
            z = rng.uniform(-height / 2, height / 2)
            pts[i] = [radius * np.cos(theta[i]), radius * np.sin(theta[i]), z]
        else:
            rr = radius * np.sqrt(rng.uniform())
            z = height / 2 if which[i] < side_area + cap_area else -height / 2
            pts[i] = [rr * np.cos(theta[i]), rr * np.sin(theta[i]), z]
    return pts


@pytest.mark.parametrize("n", [1, 2, 7, 512, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_sample_cylinder_matches_loop(n, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(data_io._sample_cylinder(rng_a, n, radius=0.3, height=1.0),
                          _sample_cylinder_loop(rng_b, n, radius=0.3, height=1.0))
    # the same number of draws: the stream continues identically
    assert rng_a.uniform() == rng_b.uniform()


@pytest.mark.parametrize("seed", range(3))
def test_synth_cylinder_with_jitter_matches_loop(seed, monkeypatch):
    got = data_io.synth_shape("cylinder", 700, noise_sigma=0.01, seed=seed)
    monkeypatch.setattr(data_io, "_sample_cylinder", _sample_cylinder_loop)
    want = data_io.synth_shape("cylinder", 700, noise_sigma=0.01, seed=seed)
    assert np.array_equal(got.points, want.points)


class _CountingRng:
    """A Generator that counts the calls made on it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("kind", data_io.SYNTH_KINDS)
def test_synth_draw_calls_do_not_grow_with_n(kind, monkeypatch):
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_CountingRng(default_rng(seed))) or made[-1])
    calls = {}
    for n in (64, 8192):
        data_io.synth_shape(kind, n, noise_sigma=0.01, seed=5)
        calls[n] = made[-1].calls
    # whole-array draws; the torus may spend a few more rejection rounds (3 calls each)
    assert calls[8192] <= calls[64] + 6, calls


def test_synth_unknown_kind():
    with pytest.raises(InvalidArgument):
        data_io.synth_shape("klein-bottle", 10)


@pytest.mark.parametrize("n, sigma, seed", [
    (0, 0.0, 0), (64, -0.1, 0), (64, float("nan"), 0), (64, float("inf"), 0), (64, 0.0, -1),
], ids=["n-0", "sigma-negative", "sigma-nan", "sigma-inf", "seed-negative"])
def test_synth_rejects_bad_arguments(n, sigma, seed):
    with pytest.raises(InvalidArgument):
        data_io.synth_shape("sphere", n, noise_sigma=sigma, seed=seed)


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
    "synth:klein:64:0:0", "synth:sphere:0:0:0", "synth:sphere:64:-0.1:0",
    "synth:sphere:64:nan:0", "synth:sphere:64:inf:0", "synth:sphere:64:0:-1",
])
def test_manifest_rejects_bad_synth_spec(tmp_path, spec):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# dataset\na\t{spec}\ttrain\n")
    with pytest.raises(ParseError) as exc:
        data_io.read_manifest(path, 64)
    assert exc.value.line == 2


_PLY_HEADER = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
               b"property float x\nproperty float y\nproperty float z\nend_header\n")


@pytest.mark.parametrize("name, body, line", [
    pytest.param("c.xyz", b"0 0 0\n\xff1 2 3\n", 2, id="xyz"),
    pytest.param("c.xyz", b"0 0 0\r\n1 2 3\r\n4 5 \xe9\r\n", 3, id="xyz-crlf"),
    pytest.param("c.ply", _PLY_HEADER + b"0 0 \x80\n", 8, id="ply"),
    pytest.param("m.tsv", b"# dataset\na\tsynth:sphere:64:0.0:1\ttrain\nb\xc3(\tx\ttrain\n", 3,
                 id="manifest"),
])
def test_non_utf8_bytes_are_a_parse_error_with_line(tmp_path, name, body, line):
    path = tmp_path / name
    path.write_bytes(body)
    with pytest.raises(ParseError) as exc:
        if name == "m.tsv":
            data_io.read_manifest(path, 64)
        else:
            data_io.load_cloud(path)
    assert exc.value.line == line and "UTF-8" in str(exc.value)


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


# ---------------------------------------------------------------------------
# the one-call body parse and writer, against the row loops they replaced,
# kept here as oracles


def _old_ply(path):
    """The PLY body as the per-row loop read it (header fields parsed
    just enough for the files below)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    body_start = lines.index("end_header") + 1
    n_vertex = int(lines[2].split()[2])
    props = [line.split()[-1] for line in lines[3 : body_start - 1]]
    cols = [props.index(c) for c in ("x", "y", "z")]
    pts = np.empty((n_vertex, 3), dtype=np.float64)
    for row in range(n_vertex):
        lineno = body_start + 1 + row
        if lineno > len(lines) or not lines[lineno - 1].split():
            raise ParseError(f"expected {n_vertex} vertices, file ends at row {row}", line=lineno)
        tok = lines[lineno - 1].split()
        try:
            pts[row] = [float(tok[c]) for c in cols]
        except (IndexError, ValueError):
            raise ParseError("malformed vertex row", line=lineno)
    return PointCloud(pts)


def _old_xyz(path):
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            tok = stripped.split()
            if len(tok) < 3:
                raise ParseError("expected three coordinates", line=lineno)
            try:
                rows.append([float(tok[0]), float(tok[1]), float(tok[2])])
            except ValueError:
                raise ParseError("malformed coordinate", line=lineno)
    if not rows:
        raise ParseError("file holds no points", line=1)
    return PointCloud(np.asarray(rows, dtype=np.float64))


def _old_save(cloud, path):
    pts = cloud.points
    with open(path, "w") as fh:
        if str(path).endswith(".ply"):
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {pts.shape[0]}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write("end_header\n")
        for x, y, z in pts:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def _outcome(load, path):
    """The points' bytes, or the error's type, message and line."""
    try:
        return "ok", load(path).points.tobytes()
    except (ParseError, InvalidArgument) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _ply_text(body, n_vertex=None, props=("x", "y", "z"), tail=(), newline="\n"):
    n_vertex = len(body) if n_vertex is None else n_vertex
    header = ["ply", "format ascii 1.0", f"element vertex {n_vertex}"]
    header += [f"property float {p}" for p in props]
    if tail:
        header += ["element face 1", "property list uchar int vertex_indices"]
    lines = header + ["end_header", *body, *tail]
    return newline.join(lines) + newline


def _assert_readers_match_row_loops(path, text):
    path.write_bytes(text.encode())
    old = _old_ply if path.suffix == ".ply" else _old_xyz
    assert _outcome(data_io.load_cloud, path) == _outcome(old, path)


_PLY_BODIES = {
    "plain": dict(body=["0 0 0", "1 2 3", "-1.5e-3 4e5 .25"]),
    "blank-row": dict(body=["1 2 3", "", "4 5 6"]),
    "whitespace-row": dict(body=["1 2 3", " \t ", "4 5 6"]),
    "too-few-tokens": dict(body=["1 2 3", "4 5"]),
    "ragged-extra-columns": dict(body=["1 2 3 4", "5 6 7", "8 9 10 11 12"]),
    "underscore": dict(body=["1_0 2 3", "4 5 6"]),
    "non-ascii-digit": dict(body=["١ 2 3"]),
    "nbsp-separator": dict(body=["1\xa02 3", "4 5 6"]),
    "comment-char": dict(body=["1 2 3 # note"]),
    "hash-token": dict(body=["1 # 3"]),
    "bad-token": dict(body=["1 two 3"]),
    "crlf": dict(body=["1 2 3", "4 5 6"], newline="\r\n"),
    "permuted": dict(body=["1 2 3", "4 5 6"], props=("z", "x", "y")),
    "permuted-extra": dict(body=["9 1 2 3", "9 4 5 6"], props=("red", "y", "z", "x")),
    "face-lines": dict(body=["0 0 0", "1 0 0", "0 1 0"], tail=["3 0 1 2"]),
    "count-below-rows": dict(body=["0 0 0", "1 0 0", "junk"], n_vertex=2),
    "zero-vertices": dict(body=["1 2 3"], n_vertex=0),
    "non-finite": dict(body=["1 nan 3"]),
    "overflow": dict(body=["1e500 0 0"]),
    "signed-special": dict(body=["+1 -0 +.5e-2"]),
}


@pytest.mark.parametrize("case", list(_PLY_BODIES))
def test_ply_reader_matches_row_loop(tmp_path, case):
    _assert_readers_match_row_loops(tmp_path / "c.ply", _ply_text(**_PLY_BODIES[case]))


_XYZ_TEXTS = {
    "plain": "0 0 0\n1 2 3\n-1.5e-3 4e5 .25\n",
    "comments-and-blanks": "# header\n\n1 2 3\n  \t\n4 5 6  # trailing\n#\n",
    "too-few-tokens": "1 2 3\n4 5\n",
    "ragged-extra-columns": "1 2 3 4\n5 6 7\n8 9 10 11 12\n",
    "underscore": "1_0 2 3\n4 5 6\n",
    "non-ascii-digit": "١ 2 3\n",
    "nbsp-line": "\xa0\n1 2 3\n",
    "form-feed-separator": "1\x0c2 3\n",
    "bad-token": "1 2 3\n4 five 6\n",
    "crlf": "1 2 3\r\n\r\n4 5 6\r\n",
    "no-final-newline": "1 2 3\n4 5 6",
    "only-comments": "# nothing\n\n",
    "empty": "",
    "non-finite": "1 2 inf\n",
}


@pytest.mark.parametrize("case", list(_XYZ_TEXTS))
def test_xyz_reader_matches_row_loop(tmp_path, case):
    _assert_readers_match_row_loops(tmp_path / "c.xyz", _XYZ_TEXTS[case])


# characters ``str.splitlines`` breaks at but ``str.split`` reads as spaces
_NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _NOT_NEWLINES, ids=lambda c: f"U+{ord(c):04X}")
def test_ply_and_xyz_break_lines_at_newline_only(tmp_path, sep):
    ply, xyz = tmp_path / "c.ply", tmp_path / "c.xyz"
    # a header comment holding another count does not override the declared one
    text = _ply_text(["0 0 0", "1 1 1", "2 2 2"]).replace(
        "end_header", f"comment scan{sep}element vertex 2\nend_header")
    ply.write_bytes(text.encode())
    assert len(data_io.load_cloud(ply)) == 3
    # one row, read as one vertex by both readers
    ply.write_bytes(_ply_text([f"0 0 0{sep}1 1 1"]).encode())
    xyz.write_bytes(f"0 0 0{sep}1 1 1\n".encode())
    for path in (ply, xyz):
        assert data_io.load_cloud(path).points.tolist() == [[0, 0, 0]]
    ply.write_bytes(_ply_text([f"0 0 0{sep}1 1 1"], n_vertex=2).encode())
    with pytest.raises(ParseError, match="vertex count 2 outside") as exc:
        data_io.load_cloud(ply)
    assert exc.value.line == 3
    # a line number counts newlines only
    ply.write_bytes(_ply_text([f"1 2 3{sep}", "4 five 6"]).encode())
    xyz.write_bytes(f"1 2 3{sep}\n4 five 6\n".encode())
    assert [_outcome(data_io.load_cloud, path)[2] for path in (ply, xyz)] == [9, 2]


_tokens = st.sampled_from(["1", "-2.5", "3e2", ".5", "+1.", "1_0", "nan", "-inf", "1e500",
                           "0x1", "#", "x", "١", "1,2", "--1", "1e"])
_seps = st.sampled_from([" ", "\t", "  ", "\xa0", "\x0c", " # "])
_rows = st.lists(st.lists(st.tuples(_tokens, _seps), max_size=5).map(
    lambda pairs: "".join(t + s for t, s in pairs)), max_size=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_rows, st.integers(0, 6), st.booleans())
def test_readers_match_row_loops_on_fuzzed_bodies(tmp_path, rows, n_vertex, crlf):
    newline = "\r\n" if crlf else "\n"
    _assert_readers_match_row_loops(
        tmp_path / "c.ply", _ply_text(rows, n_vertex=min(n_vertex, len(rows)), newline=newline))
    _assert_readers_match_row_loops(tmp_path / "c.xyz", newline.join(rows) + newline)


@pytest.mark.parametrize("suffix", [".ply", ".xyz"])
def test_save_cloud_bytes_equal_row_writer(tmp_path, rng, suffix):
    special = np.array([[-0.0, 5e-324, 1e20], [0.1, -1.5e300, 123456789.123]])
    for pts in (special, rng.normal(size=(500, 3)), rng.normal(size=(1, 3)) * 1e-8):
        data_io.save_cloud(PointCloud(pts), tmp_path / f"new{suffix}")
        _old_save(PointCloud(pts), tmp_path / f"old{suffix}")
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"old{suffix}").read_bytes()
