"""Experiment persistence: manifest, CSV tables, binary position checkpoints.

Every file format here is deterministic: the same manifest produces the
same bytes, because all randomness is keyed by (seed, replica, lane) and
the writers render floats at fixed precision.  Data files carry the
manifest hash in a leading comment line (checkpoints in their header) so
any output can be traced back to the exact configuration that produced it.
Every CSV table, the series, event and increment logs here and the report
tables of `cli`, is written by `write_table` and read by `read_table`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (REQUIRED_FIELDS, IntervalParams, ReproductionLaw,
                     SimConfig)
from .stats import StatsSeries

MODES = tuple(REQUIRED_FIELDS)

# float rendering for CSV cells: 17 significant digits round-trip any
# double exactly through decimal
_FMT = "%.17g"


def fmt_real(x: float) -> str:
    return _FMT % float(x)


def canonical_hash(ident: dict) -> str:
    """Order-independent 16-hex-digit identity for a JSON-able dict."""
    blob = json.dumps(ident, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# manifest


def _config_to_dict(cfg: SimConfig) -> dict:
    d = {f.name: getattr(cfg, f.name) for f in fields(SimConfig)}
    d["law"] = list(cfg.law.probabilities)
    iv = d.pop("interval")
    d["interval_a"] = iv.a if iv is not None else None
    d["alphas"] = list(cfg.alphas)
    return d


def _config_from_dict(d: dict) -> SimConfig:
    """Inverse of `_config_to_dict`; keys that are not fields are ignored,
    and a field an older manifest lacks takes its default."""
    kw = {f.name: d[f.name] for f in fields(SimConfig) if f.name in d}
    kw["law"] = ReproductionLaw(tuple(d["law"]))
    if d.get("interval_a") is not None:
        kw["interval"] = IntervalParams(d["interval_a"])
    kw["alphas"] = tuple(d["alphas"])
    return SimConfig(**kw)


@dataclass
class ExperimentManifest:
    """Everything needed to reproduce a run, plus where its outputs went.

    The identity hash covers what determines the sampled numbers: mode,
    config, seed, code version.  It excludes created_at and the output
    paths, which is what lets the same experiment rerun anywhere and produce
    data files with identical bytes.  created_at stays None unless stamping
    is requested.  Manifests written while the config still had a thread
    count load unchanged: the key is ignored, and the hash never covered it.
    Older manifests' `c_center`, `eta` and `max_segments` keys are ignored
    too, but their hash covered them, so such manifests load only without
    it.
    """

    config: SimConfig
    mode: str
    code_version: str = __version__
    outputs: dict[str, str] = field(default_factory=dict)
    created_at: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def seed(self) -> int:
        return self.config.seed

    def _identity(self) -> dict:
        return {
            "schema": "nbbm-manifest-1",
            "mode": self.mode,
            "code_version": self.code_version,
            "config": _config_to_dict(self.config),
        }

    def to_json_dict(self) -> dict:
        return dict(self._identity(), seed=self.seed,
                    outputs=dict(self.outputs), created_at=self.created_at,
                    hash=self.hash())

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentManifest":
        if d.get("schema") != "nbbm-manifest-1":
            raise ValueError(
                f"unrecognised manifest schema {d.get('schema')!r}")
        m = cls(
            config=_config_from_dict(d["config"]),
            mode=d["mode"],
            code_version=d["code_version"],
            outputs=dict(d.get("outputs", {})),
            created_at=d.get("created_at"),
        )
        if "hash" in d and d["hash"] != m.hash():
            raise ValueError(
                f"manifest hash mismatch: file says {d['hash']}, "
                f"contents give {m.hash()}")
        return m

    def hash(self) -> str:
        return canonical_hash(self._identity())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentManifest":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# CSV tables


def write_table(path: str | Path, manifest_hash: str, header, rows,
                fmt: str | None = None) -> None:
    """Write a `# manifest=` line, the header, then one line per row.

    fmt is the %-format of a whole row, applied to each row as a tuple;
    by default every cell is rendered as `fmt_real` renders it.
    """
    if fmt is None:
        fmt = ",".join([_FMT] * len(header))
    lines = [f"# manifest={manifest_hash}", ",".join(header)]
    lines += map(fmt.__mod__, map(tuple, rows))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path: str | Path, kind: str, header=None
               ) -> tuple[str, list[str], list[list[str]]]:
    """(manifest hash, header, rows as lists of strings) of a table.

    ValueError naming the path if the manifest line is missing, the header
    differs from `header` when one is given, or a row's field count differs
    from the header's.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError(f"{path}: missing manifest header line")
    head = lines[1] if len(lines) > 1 else ""
    if header is not None and head != ",".join(header):
        raise ValueError(f"{path}: unexpected {kind} header {head!r}")
    cols = head.split(",")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    for r in rows:
        if len(r) != len(cols):
            raise ValueError(f"{path}: a row has {len(r)} fields, {kind} "
                             f"rows need {len(cols)} fields")
    return lines[0].split("=", 1)[1], cols, rows


def _columns(header, rows, fmt: str) -> dict[str, np.ndarray]:
    """Each column of a table's rows as an array, int64 where fmt has %d."""
    return {name: (np.array([int(r[j]) for r in rows], dtype=np.int64)
                   if spec == "%d" else np.array([float(r[j]) for r in rows]))
            for j, (name, spec) in enumerate(zip(header, fmt.split(",")))}


_SERIES_ORDER = ("count", "Z", "Y", "R_cum", "barrier_shift",
                 "count_white", "count_blue")


def series_columns(series: StatsSeries) -> list[str]:
    """Column order: medians first, then the standard observables."""
    meds = sorted((k for k in series.columns if k.startswith("med_")),
                  key=lambda k: float(k[4:]))
    rest = [k for k in _SERIES_ORDER if k in series.columns]
    extra = sorted(k for k in series.columns
                   if k not in rest and not k.startswith("med_"))
    return meds + rest + extra


def write_series_csv(path: str | Path, series_list: list[StatsSeries],
                     manifest_hash: str) -> None:
    if not series_list:
        raise ValueError("no series to write")
    cols = series_columns(series_list[0])
    for s in series_list[1:]:
        if series_columns(s) != cols:
            raise ValueError("series column sets differ between replicas")
    # one format per row, fed Python numbers: the same text as fmt_real
    # cell by cell, without a numpy scalar per cell
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(int(s.replica)),
            *[np.asarray(x).tolist()
              for x in [s.times] + [s.columns[c] for c in cols]])
        for s in series_list)
    write_table(path, manifest_hash, ["replica", "t"] + cols, rows,
                ",".join(["%d"] + [_FMT] * (1 + len(cols))))


def read_series_csv(path: str | Path) -> tuple[str, list[StatsSeries]]:
    """Manifest hash and one series per replica; ValueError if malformed.

    Every replica must have the same sample times.
    """
    manifest_hash, header, rows = read_table(path, "series")
    if header[:2] != ["replica", "t"]:
        raise ValueError(f"{path}: expected replica,t leading columns")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    by_rep: dict[int, list[list[float]]] = {}
    for parts in rows:
        by_rep.setdefault(int(parts[0]), []).append(
            [float(v) for v in parts[1:]])
    out = []
    for rep in sorted(by_rep):
        arr = np.asarray(by_rep[rep])
        out.append(StatsSeries(
            times=arr[:, 0],
            columns={c: arr[:, j + 1] for j, c in enumerate(header[2:])},
            replica=rep,
            meta={"manifest": manifest_hash},
        ))
    if any(not np.array_equal(s.times, out[0].times) for s in out):
        raise ValueError(f"{path}: the replicas do not share one time grid")
    return manifest_hash, out


_EVENT_HEADER = ("time", "parent", "position", "k")
_EVENT_FMT = f"{_FMT},%d,{_FMT},%d"


def write_events_csv(path: str | Path, events, manifest_hash: str) -> None:
    """Branch-event log, one row (time, parent, position, k) per event.

    time is the end of the step at which the branching fires; parent is the
    0-based row of the branch event that produced the branching particle, or
    -1 - i for the i-th initial particle, so the rows hold the whole
    genealogy; position is the branch point and k the offspring count,
    0 included.
    """
    write_table(path, manifest_hash, _EVENT_HEADER, events, _EVENT_FMT)


def read_events_csv(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """Columns time, parent, position and k of an event log, as arrays."""
    manifest_hash, _, rows = read_table(path, "event", _EVENT_HEADER)
    cols = _columns(_EVENT_HEADER, rows, _EVENT_FMT)
    if np.any(cols["parent"] >= np.arange(len(rows))):
        raise ValueError(f"{path}: a parent row does not precede its event")
    return manifest_hash, cols


_LEVY_HEADER = ("replica", "t", "value", "seed")
_LEVY_FMT = f"%d,{_FMT},{_FMT},%d"


def write_levy_csv(path: str | Path, replica: np.ndarray, t: np.ndarray,
                   value: np.ndarray, seed: int, manifest_hash: str) -> None:
    replica = np.asarray(replica)
    t = np.asarray(t, dtype=float)
    value = np.asarray(value, dtype=float)
    if not (len(replica) == len(t) == len(value)):
        raise ValueError("replica, t and value must have equal lengths")
    write_table(path, manifest_hash, _LEVY_HEADER,
                zip(replica.tolist(), t.tolist(), value.tolist(),
                    itertools.repeat(int(seed))), _LEVY_FMT)


def read_levy_csv(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """Manifest hash and the increment columns; ValueError if malformed."""
    manifest_hash, _, rows = read_table(path, "levy", _LEVY_HEADER)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return manifest_hash, _columns(_LEVY_HEADER, rows, _LEVY_FMT)


# ---------------------------------------------------------------------------
# binary population checkpoint

_MAGIC = b"NBBMPOP1"
_CKPT_VERSION = 2
_HEAD = struct.Struct("<8sH16sQd")


def save_population(path: str | Path, positions, time: float,
                    manifest_hash: str = "") -> None:
    """Versioned little-endian snapshot of positions at `time`.

    Layout: magic, version, the 16-character manifest hash (zero-padded
    when absent) so a checkpoint can be traced like any other output file,
    the count, the time, then the positions as float64.
    """
    h = manifest_hash.encode("ascii")
    if len(h) > 16:
        raise ValueError(f"manifest hash too long for header: {manifest_hash!r}")
    pos = np.asarray(positions, dtype="<f8")
    if pos.ndim != 1:
        raise ValueError(f"positions must be 1-d, got shape {pos.shape}")
    Path(path).write_bytes(
        _HEAD.pack(_MAGIC, _CKPT_VERSION, h, len(pos), float(time))
        + pos.tobytes())


def load_population(path: str | Path) -> tuple[str, float, np.ndarray]:
    """(manifest hash, time, positions) of a checkpoint written by
    `save_population`; the hash is '' if the checkpoint is unstamped."""
    blob = Path(path).read_bytes()
    if blob[:8] != _MAGIC:
        raise ValueError(f"{path}: not a population checkpoint")
    if len(blob) < _HEAD.size:
        raise ValueError(f"{path}: truncated checkpoint")
    _, version, h, count, time = _HEAD.unpack_from(blob)
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    size = _HEAD.size + 8 * count
    if len(blob) < size:
        raise ValueError(f"{path}: truncated checkpoint")
    if len(blob) > size:
        raise ValueError(f"{path}: {len(blob) - size} trailing bytes")
    pos = np.frombuffer(blob, dtype="<f8", count=count,
                        offset=_HEAD.size).astype(float)
    if not np.all(np.isfinite(pos)):
        raise ValueError(f"{path}: non-finite particle position")
    return h.rstrip(b"\x00").decode("ascii"), time, pos
