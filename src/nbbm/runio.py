"""Experiment persistence: manifest, CSV logs, binary position checkpoints.

Every file format here is deterministic: the same manifest produces the
same bytes, because all randomness is keyed by (seed, replica, lane) and
the writers render floats at fixed precision.  Data files carry the
manifest hash in a leading comment line (checkpoints in their header) so
any output can be traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nbbm import __version__
from nbbm.engine import IntervalParams, ReproductionLaw, SimConfig
from nbbm.stats import StatsSeries

MODES = ("nbbm", "bbbm", "bflat", "bsharp", "csharp", "coupled")

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
    return {
        "law": list(cfg.law.probabilities),
        "interval_a": cfg.interval.a if cfg.interval is not None else None,
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "n_select": cfg.n_select,
        "alphas": list(cfg.alphas),
        "A": cfg.A,
        "epsilon": cfg.epsilon,
        "y": cfg.y,
        "zeta": cfg.zeta,
        "delta_color": cfg.delta_color,
        "sample_every": cfg.sample_every,
        "zeta_breakout": cfg.zeta_breakout,
    }


def _config_from_dict(d: dict) -> SimConfig:
    return SimConfig(
        law=ReproductionLaw(tuple(d["law"])),
        interval=(IntervalParams(d["interval_a"])
                  if d.get("interval_a") is not None else None),
        dt=d["dt"],
        horizon=d["horizon"],
        replicas=d["replicas"],
        seed=d["seed"],
        n_select=d["n_select"],
        alphas=tuple(d["alphas"]),
        A=d["A"],
        epsilon=d["epsilon"],
        y=d["y"],
        zeta=d["zeta"],
        delta_color=d["delta_color"],
        sample_every=d["sample_every"],
        zeta_breakout=d.get("zeta_breakout", True),
    )


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

    def to_json_dict(self) -> dict:
        return {
            "schema": "nbbm-manifest-1",
            "mode": self.mode,
            "code_version": self.code_version,
            "seed": self.seed,
            "config": _config_to_dict(self.config),
            "outputs": dict(self.outputs),
            "created_at": self.created_at,
            "hash": self.hash(),
        }

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
        return canonical_hash({
            "schema": "nbbm-manifest-1",
            "mode": self.mode,
            "code_version": self.code_version,
            "config": _config_to_dict(self.config),
        })

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentManifest":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# CSV logs

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
    lines = [f"# manifest={manifest_hash}",
             ",".join(["replica", "t"] + cols)]
    for s in series_list:
        # one format per row, fed Python numbers: the same text as fmt_real
        # cell by cell, without a numpy scalar per cell
        row = ",".join([str(int(s.replica))] + [_FMT] * (1 + len(cols)))
        values = [np.asarray(x).tolist()
                  for x in [s.times] + [s.columns[c] for c in cols]]
        lines += map(row.__mod__, zip(*values))
    Path(path).write_text("\n".join(lines) + "\n")


def read_series_csv(path: str | Path) -> tuple[str, list[StatsSeries]]:
    """Manifest hash and one series per replica; ValueError if malformed."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError(f"{path}: missing manifest header line")
    manifest_hash = lines[0].split("=", 1)[1]
    header = lines[1].split(",") if len(lines) > 1 else []
    if header[:2] != ["replica", "t"]:
        raise ValueError(f"{path}: expected replica,t leading columns")
    cols = header[2:]
    by_rep: dict[int, list[list[float]]] = {}
    for ln in lines[2:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: a row has {len(parts)} fields, the "
                             f"header {len(header)}")
        by_rep.setdefault(int(parts[0]), []).append(
            [float(v) for v in parts[1:]])
    if not by_rep:
        raise ValueError(f"{path}: no data rows")
    out = []
    for rep in sorted(by_rep):
        arr = np.asarray(by_rep[rep])
        out.append(StatsSeries(
            times=arr[:, 0],
            columns={c: arr[:, j + 1] for j, c in enumerate(cols)},
            replica=rep,
            meta={"manifest": manifest_hash},
        ))
    return manifest_hash, out


_EVENT_HEADER = "time,parent,position,k"


def write_events_csv(path: str | Path, events, manifest_hash: str) -> None:
    """Branch-event log, one row (time, parent, position, k) per event.

    time is the end of the step at which the branching fires; parent is the
    0-based row of the branch event that produced the branching particle, or
    -1 - i for the i-th initial particle, so the rows hold the whole
    genealogy; position is the branch point and k the offspring count,
    0 included.
    """
    lines = [f"# manifest={manifest_hash}", _EVENT_HEADER]
    for t, parent, x, k in events:
        lines.append(f"{fmt_real(t)},{int(parent)},{fmt_real(x)},{int(k)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_events_csv(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """Columns time, parent, position and k of an event log, as arrays."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError(f"{path}: missing manifest header line")
    manifest_hash = lines[0].split("=", 1)[1]
    if lines[1:2] != [_EVENT_HEADER]:
        raise ValueError(f"{path}: unexpected event header {lines[1:2]!r}")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    if any(len(r) != 4 for r in rows):
        raise ValueError(f"{path}: event rows need 4 fields")
    parent = np.array([int(r[1]) for r in rows], dtype=np.int64)
    if np.any(parent >= np.arange(len(rows))):
        raise ValueError(f"{path}: a parent row does not precede its event")
    return manifest_hash, {
        "time": np.array([float(r[0]) for r in rows]),
        "parent": parent,
        "position": np.array([float(r[2]) for r in rows]),
        "k": np.array([int(r[3]) for r in rows], dtype=np.int64),
    }


def write_levy_csv(path: str | Path, replica: np.ndarray, t: np.ndarray,
                   value: np.ndarray, seed: int, manifest_hash: str) -> None:
    replica = np.asarray(replica)
    t = np.asarray(t, dtype=float)
    value = np.asarray(value, dtype=float)
    if not (len(replica) == len(t) == len(value)):
        raise ValueError("replica, t and value must have equal lengths")
    lines = [f"# manifest={manifest_hash}", "replica,t,value,seed"]
    for r, tt, v in zip(replica, t, value):
        lines.append(f"{int(r)},{fmt_real(tt)},{fmt_real(v)},{int(seed)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_levy_csv(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """Manifest hash and the increment columns; ValueError if malformed."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError(f"{path}: missing manifest header line")
    manifest_hash = lines[0].split("=", 1)[1]
    header = lines[1] if len(lines) > 1 else ""
    if header != "replica,t,value,seed":
        raise ValueError(f"{path}: unexpected levy header {header!r}")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for r in rows:
        if len(r) != 4:
            raise ValueError(f"{path}: a row has {len(r)} fields, the "
                             f"header 4")
    return manifest_hash, {
        "replica": np.array([int(r[0]) for r in rows], dtype=np.int64),
        "t": np.array([float(r[1]) for r in rows]),
        "value": np.array([float(r[2]) for r in rows]),
        "seed": np.array([int(r[3]) for r in rows], dtype=np.int64),
    }


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


def checkpoint_hash(path: str | Path) -> str:
    """Manifest hash recorded in a checkpoint header ('' if unstamped)."""
    with open(path, "rb") as f:
        head = f.read(26)
    if head[:8] != _MAGIC:
        raise ValueError(f"{path}: not a population checkpoint")
    return head[10:26].rstrip(b"\x00").decode("ascii")


def load_population(path: str | Path) -> tuple[float, np.ndarray]:
    """(time, positions) of a checkpoint written by `save_population`."""
    blob = Path(path).read_bytes()
    if blob[:8] != _MAGIC:
        raise ValueError(f"{path}: not a population checkpoint")
    if len(blob) < _HEAD.size:
        raise ValueError(f"{path}: truncated checkpoint")
    _, version, _, count, time = _HEAD.unpack_from(blob)
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
    return time, pos
