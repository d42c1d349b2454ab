"""Dataset ingestion: PLY/XYZ parsing, normalization, resampling and
seeded synthetic shape generation for desk-scale experiments."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InvalidArgument, ParseError
from .geometry import PointCloud

SYNTH_KINDS = ("sphere", "cube", "torus", "cylinder", "two-spheres")


# ---------------------------------------------------------------------------
# file formats (ASCII PLY and XYZ)


def load_cloud(path) -> PointCloud:
    """Load a point cloud from an ASCII PLY or XYZ file, by extension."""
    if _guess_format(path) == "ascii-ply":
        return _load_ply(path)
    return _load_xyz(path)


def save_cloud(cloud: PointCloud, path):
    """Write an ASCII PLY or XYZ file, by extension."""
    fmt = _guess_format(path)
    pts = cloud.points
    if pts.shape[0] == 0:
        raise InvalidArgument("refusing to write an empty cloud")
    with open(path, "w") as fh:
        if fmt == "ascii-ply":
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {pts.shape[0]}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write("end_header\n")
        fh.write("%.9g %.9g %.9g\n" * len(pts) % tuple(pts.ravel().tolist()))


def _guess_format(path):
    p = str(path).lower()
    if p.endswith(".ply"):
        return "ascii-ply"
    if p.endswith(".xyz") or p.endswith(".txt"):
        return "xyz"
    raise InvalidArgument(f"cannot infer format from {path!r}; use .ply, .xyz or .txt")


def _read_text(path):
    """The UTF-8 text of ``path`` with text-mode newline translation; bytes
    that do not decode are a ParseError naming their line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8 text",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None
    if "\r" not in text:  # one scan in place of two replace passes that change nothing
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_lines(path):
    r"""The lines of ``_read_text(path)``, broken at ``\n`` only, without
    the empty string after a final newline.  ``str.splitlines`` would also
    break at form feeds, ``\x1c``-``\x1e``, ``\x85`` and U+2028/U+2029,
    which ``str.split`` reads as spaces inside a line."""
    lines = _read_text(path).split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _load_ply(path):
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic", line=1)
    n_vertex = None
    vertex_line = None
    props = []
    in_vertex_element = False
    body_start = None
    for i, raw in enumerate(lines[1:], start=2):
        tok = raw.split()
        if not tok:
            continue
        if tok[0] == "format":
            if tok[1:2] != ["ascii"]:
                raise ParseError("only ascii PLY is supported", line=i)
        elif tok[0] == "element":
            if len(tok) < 3:
                raise ParseError("element needs a name and a count", line=i)
            in_vertex_element = tok[1] == "vertex"
            if in_vertex_element:
                try:
                    n_vertex = int(tok[2])
                except ValueError:
                    raise ParseError("bad element vertex count", line=i)
                vertex_line = i
        elif tok[0] == "property" and in_vertex_element:
            props.append(tok[-1])
        elif tok[0] == "end_header":
            body_start = i
            break
    if n_vertex is None or body_start is None:
        raise ParseError("header missing element vertex or end_header", line=len(lines))
    try:
        cols = [props.index(c) for c in ("x", "y", "z")]
    except ValueError:
        raise ParseError("vertex element lacks x/y/z properties", line=body_start)
    n_rows = len(lines) - body_start
    if not 0 <= n_vertex <= n_rows:
        raise ParseError(f"vertex count {n_vertex} outside [0, {n_rows}], the lines after "
                         "end_header", line=vertex_line)

    pts = _parse_rows(lines[body_start : body_start + n_vertex], cols, comments=None)
    if pts is not None and pts.shape == (n_vertex, 3):
        return PointCloud(pts)
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


def _load_xyz(path):
    lines = _read_lines(path)
    pts = _parse_rows(lines, (0, 1, 2), comments="#")
    if pts is not None and len(pts):
        return PointCloud(pts)
    rows = []
    for lineno, raw in enumerate(lines, start=1):
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


def _parse_rows(lines, cols, comments):
    """The float64 columns ``cols`` of ``lines`` in one ``np.loadtxt`` call,
    or None when it raises.

    Where it succeeds it gives ``float``'s values, but it skips blank lines
    and rejects some tokens ``float`` takes (``1_0``, non-ASCII digits).  So
    a reader that gets None or an unexpected row count re-parses with its
    row loop, which gives the exact values or ``ParseError``.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(lines, dtype=np.float64, comments=comments, usecols=cols, ndmin=2)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# normalization / resampling


@dataclass(frozen=True)
class NormalizationRecord:
    centroid: np.ndarray
    scale: float  # divisor applied after centering

    def invert(self, cloud: PointCloud) -> PointCloud:
        return PointCloud(cloud.points * self.scale + self.centroid)


def normalize(cloud: PointCloud):
    """Center at the origin and scale into [-0.5, 0.5]; returns the record
    needed to invert the transform."""
    centroid = cloud.points.mean(axis=0)
    centered = cloud.points - centroid
    extent = np.abs(centered).max()
    scale = 2.0 * extent if extent > 0 else 1.0
    return PointCloud(centered / scale), NormalizationRecord(centroid=centroid, scale=scale)


def resample(cloud: PointCloud, target) -> PointCloud:
    """Exactly ``target`` of the cloud's points, by farthest-point sampling."""
    if target < 1:
        raise InvalidArgument(f"target must be >= 1, got {target}")
    if target > len(cloud):
        raise InvalidArgument(f"fps resample cannot grow {len(cloud)} points to {target}")
    return PointCloud(cloud.points[geometry.fps(cloud, target)])


# ---------------------------------------------------------------------------
# synthetic shapes


def synth_shape(kind, n, noise_sigma=0.0, seed=0) -> PointCloud:
    """Deterministic area-weighted surface sampling of a primitive shape,
    plus optional Gaussian jitter; output is normalized."""
    _check_synth_args(kind, n, noise_sigma, seed)
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        pts = _sample_sphere(rng, n, radius=0.5)
    elif kind == "cube":
        pts = _sample_cube(rng, n)
    elif kind == "torus":
        pts = _sample_torus(rng, n, big_r=0.35, small_r=0.15)
    elif kind == "cylinder":
        pts = _sample_cylinder(rng, n, radius=0.3, height=1.0)
    else:  # two-spheres
        half = n // 2
        a = _sample_sphere(rng, half, radius=0.22) + np.array([-0.28, 0.0, 0.0])
        b = _sample_sphere(rng, n - half, radius=0.22) + np.array([0.28, 0.0, 0.0])
        pts = np.concatenate([a, b], axis=0)
    if noise_sigma > 0:
        pts = pts + rng.normal(0.0, noise_sigma, size=pts.shape)
    cloud, _ = normalize(PointCloud(pts))
    return cloud


def _check_synth_args(kind, n, noise_sigma, seed):
    """InvalidArgument unless ``synth_shape`` can draw these arguments."""
    if kind not in SYNTH_KINDS:
        raise InvalidArgument(f"unknown shape kind {kind!r}; choose from {SYNTH_KINDS}")
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    if not 0 <= noise_sigma < np.inf:  # NaN fails too
        raise InvalidArgument(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")


def _sample_sphere(rng, n, radius):
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return radius * v


def _sample_cube(rng, n):
    # pick a face uniformly (equal areas), then a uniform point on it
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    axis = face // 2
    rows = np.arange(n)
    pts = np.empty((n, 3))
    pts[rows, axis] = np.where(face % 2 == 0, 0.5, -0.5)
    # the two other axes, in increasing order, take uv
    others = np.array([[1, 2], [0, 2], [0, 1]])[axis]
    pts[rows[:, None], others] = uv
    return pts


def _sample_torus(rng, n, big_r, small_r):
    # rejection on the major angle keeps the sampling area-weighted
    pts = np.empty((n, 3))
    count = 0
    while count < n:
        u = rng.uniform(0, 2 * np.pi, size=2 * (n - count))
        v = rng.uniform(0, 2 * np.pi, size=2 * (n - count))
        accept = rng.uniform(size=2 * (n - count)) <= (big_r + small_r * np.cos(v)) / (
            big_r + small_r
        )
        u, v = u[accept], v[accept]
        take = min(len(u), n - count)
        r = big_r + small_r * np.cos(v[:take])
        pts[count : count + take, 0] = r * np.cos(u[:take])
        pts[count : count + take, 1] = r * np.sin(u[:take])
        pts[count : count + take, 2] = small_r * np.sin(v[:take])
        count += take
    return pts


def _sample_cylinder(rng, n, radius, height):
    side_area = 2 * np.pi * radius * height
    cap_area = np.pi * radius**2
    total = side_area + 2 * cap_area
    which = rng.uniform(size=n) * total
    theta = rng.uniform(0, 2 * np.pi, size=n)
    # one double per point, side or cap: the stream of a per-point
    # ``rng.uniform(-h/2, h/2)`` / ``rng.uniform()`` loop, and its values
    u = rng.uniform(size=n)
    side = which < side_area
    rr = np.where(side, radius, radius * np.sqrt(u))
    low, high = -height / 2, height / 2
    cap_z = np.where(which < side_area + cap_area, high, low)
    z = np.where(side, low + (high - low) * u, cap_z)  # Generator.uniform(low, high)'s arithmetic
    pts = np.empty((n, 3))
    pts[:, 0] = rr * np.cos(theta)
    pts[:, 1] = rr * np.sin(theta)
    pts[:, 2] = z
    return pts


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ManifestEntry:
    entry_id: str
    spec: str  # a file path, or "synth:<kind>:<n>:<sigma>:<seed>"
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple
    target_points: int

    def load(self, split):
        """The ``(id, cloud)`` pairs of ``split``'s entries, each cloud
        normalized and resampled to target_points."""
        return [(entry.entry_id, _resolve_entry(entry, self.target_points))
                for entry in self.entries if entry.split == split]


def _synth_args(spec):
    """(kind, n, sigma, seed) of a ``synth:<kind>:<n>:<sigma>:<seed>`` spec;
    ValueError when it has another shape."""
    fields = spec.split(":")
    if len(fields) != 5:
        raise ValueError(f"{spec!r} is not synth:<kind>:<n>:<sigma>:<seed>")
    _, kind, n, sigma, seed = fields
    return kind, int(n), float(sigma), int(seed)


def _resolve_entry(entry: ManifestEntry, target_points):
    if entry.spec.startswith("synth:"):
        cloud = synth_shape(*_synth_args(entry.spec))
    else:
        cloud, _ = normalize(load_cloud(entry.spec))
    if len(cloud) != target_points:
        cloud = resample(cloud, target_points)
    return cloud


def read_manifest(path, target_points) -> DatasetManifest:
    """One entry per line: ``id<TAB>spec<TAB>split``."""
    entries = []
    seen = set()
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected id<TAB>spec<TAB>split", line=lineno)
        entry_id, spec, split = parts
        if spec.startswith("synth:"):
            try:
                _check_synth_args(*_synth_args(spec))
            except (ValueError, InvalidArgument) as exc:
                raise ParseError(f"bad synth spec: {exc}", line=lineno)
        if entry_id in seen:
            raise ParseError(f"duplicate id {entry_id!r}", line=lineno)
        seen.add(entry_id)
        entries.append(ManifestEntry(entry_id, spec, split))
    return DatasetManifest(entries=tuple(entries), target_points=target_points)
