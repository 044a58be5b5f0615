"""Mixture-instance construction and reproducible trajectory sampling.

An instance bundles K chains over a common state space with a ground-truth
decoding (trajectory index -> chain index). Sampling draws each trajectory
from its own counter-based Philox stream keyed by (seed, t), for a seed in
[0, 2**64), so results are bit-identical regardless of iteration order or
worker count. One bit generator serves all T streams: each refill of the
sampler's uniform buffer re-keys it per trajectory.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import memory
from .chains import MarkovModel, model_from_json, model_to_json, validate_model
from .errors import InputError
from .jsondoc import field, int_vector, integer, read_object, require_keys

__all__ = [
    "MixtureInstance",
    "TrajectorySet",
    "make_instance",
    "cluster_sizes",
    "sample_trajectories",
    "gen_random_ergodic",
    "gen_separation_models",
    "instance_to_json",
    "instance_from_json",
    "save_instance",
    "load_instance",
    "save_trajectories",
    "load_trajectories",
]

_CHUNK = 2048  # steps of uniforms drawn per refill of the sampler's (chunk, T) buffer


@dataclass(frozen=True)
class MixtureInstance:
    """K chains over a common state space plus the ground-truth decoding."""

    models: tuple[MarkovModel, ...]
    decoding: np.ndarray  # (T,) int, 0-based cluster index per trajectory
    T: int
    H: int

    def __post_init__(self):
        if len(self.models) < 2:
            raise InputError("an instance needs K >= 2 models")
        if any(m.S != self.S for m in self.models):
            raise InputError("all models must share the same state space")
        if self.H < 2:
            raise InputError("H must be >= 2")
        if self.T < 1:
            raise InputError("an instance needs T >= 1 trajectories")
        if self.decoding.ndim != 1 or self.decoding.shape[0] != self.T:
            raise InputError("decoding length does not match T")
        # named 1-based, as an instance file holds the decoding
        if self.decoding.min() < 0 or self.decoding.max() >= self.K:
            raise InputError("decoding values outside [1, K]")
        self.decoding.setflags(write=False)

    @property
    def K(self) -> int:
        return len(self.models)

    @property
    def S(self) -> int:
        return self.models[0].S

    @property
    def alpha(self) -> np.ndarray:
        """Relative cluster sizes alpha_k = |f^{-1}(k)| / T."""
        return np.bincount(self.decoding, minlength=self.K) / self.T

    @property
    def alpha_min(self) -> float:
        return float(self.alpha.min())

    def instance_id(self) -> str:
        """Content hash of the generating instance (sha256 of canonical JSON)."""
        doc = instance_to_json(self)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class TrajectorySet:
    """T state sequences of length H plus the seed that produced them.

    States are held in ``np.min_scalar_type(S - 1)``, the narrowest unsigned
    dtype that holds every index in [0, S): uint8 up to S = 256, uint16 up to
    the 65535 states a trajectory file can hold.
    """

    states: np.ndarray  # (T, H) np.min_scalar_type(S - 1), 0-based state indices
    seed: int

    def __post_init__(self):
        self.states.setflags(write=False)

    @property
    def T(self) -> int:
        return self.states.shape[0]

    @property
    def H(self) -> int:
        return self.states.shape[1]


def cluster_sizes(alpha: np.ndarray, T: int) -> np.ndarray:
    """Largest-remainder rounding of alpha * T with a floor of 1 per cluster;
    alpha must be finite and sum to 1 within 1e-9, or the sizes would not sum to T."""
    alpha = np.asarray(alpha, dtype=np.float64)
    K = alpha.shape[0]
    if T < K:
        raise InputError(f"T={T} < K={K}: some cluster must be empty")
    if not np.isfinite(alpha).all() or abs(alpha.sum() - 1.0) > 1e-9:
        raise InputError(f"alpha must be finite and sum to 1; got {alpha.tolist()}")
    if np.any(alpha <= 0.0):
        raise InputError("alpha has a zero entry; every cluster must be nonempty")
    raw = alpha * T
    sizes = np.floor(raw).astype(np.int64)
    rem = raw - sizes
    # hand out the remaining slots to the largest remainders (stable order)
    for idx in np.argsort(-rem, kind="stable")[: T - int(sizes.sum())]:
        sizes[idx] += 1
    # floor of 1: take from the largest clusters
    while np.any(sizes == 0):
        sizes[np.argmax(sizes)] -= 1
        sizes[np.argmin(sizes)] += 1
    return sizes


def make_instance(models: Sequence[MarkovModel], alpha: np.ndarray, T: int, H: int,
                  *, shuffle: bool = False, shuffle_seed: int = 0) -> MixtureInstance:
    """Build an instance whose decoding has round(alpha_k * T) trajectories per cluster.

    Clusters are contiguous blocks by default; with ``shuffle`` the decoding is
    permuted by a seeded RNG (all downstream algorithms are permutation
    equivariant in t, which the tests check).
    """
    models = tuple(models)
    sizes = cluster_sizes(np.asarray(alpha, dtype=np.float64), T)
    decoding = np.repeat(np.arange(len(models)), sizes)
    if shuffle:
        rng = np.random.default_rng(shuffle_seed)
        decoding = rng.permutation(decoding)
    return MixtureInstance(models=models, decoding=decoding, T=T, H=H)


def check_seed(seed: int) -> None:
    """Raise ``InputError`` unless 0 <= seed < 2**64, the range of the key
    word that a seed fills in each trajectory's Philox stream."""
    if not 0 <= seed < 1 << 64:
        raise InputError(f"seed must be in [0, 2**64), the range of one Philox key word; "
                         f"got {seed}")


def _refill(out: np.ndarray, gen: np.random.Generator, template: dict, h: int) -> None:
    """Write uniforms h, h+1, ... of stream (seed, t) down column t of ``out``.

    ``gen`` draws from the one Philox bit generator of a ``sample_trajectories``
    call, and ``template`` is that generator's state dict before its first
    draw, whose key is (seed, 0); its counter and key[1] are set in place.
    Philox is counter-based (Salmon et al., SC 2011): a stream is fixed by its
    key and counter alone, so each column re-keys the generator to (seed, t)
    through its ``state`` property. Each increment of the counter yields a
    block of four 64-bit draws, and ``random`` takes one draw per double, so
    setting the counter to h // 4 and discarding h % 4 draws resumes the
    stream at uniform h, exactly as a generator built with key (seed, t) that
    has drawn h uniforms.
    """
    bit_gen = gen.bit_generator
    key = template["state"]["key"]
    template["state"]["counter"][0] = h // 4
    skip = h % 4
    for t in range(out.shape[1]):
        key[1] = t
        bit_gen.state = template
        if skip:
            bit_gen.random_raw(skip, output=False)
        out[:, t] = gen.random(out.shape[0])


class _CdfTable(NamedTuple):
    """The search tables of ``sample_trajectories``, built by ``_cdf_table``."""

    flat: np.ndarray   # the K*(S+1) CDF rows, padded with 2.0 to row_len, end to end
    row_len: int       # W, the power of two at or above S, so a pointer's state is ptr & (W - 1)
    buckets: int       # M, a power of two
    guide: np.ndarray  # int64, at r*M + k: the flat index where a walk in row r's bucket k starts
    levels: int        # L, the bisection levels a walk takes from its start


def _cdf_table(instance: MixtureInstance) -> _CdfTable:
    """The padded CDF rows of ``instance`` and their guide table.

    Row f*(S+1) + s is the CDF of p^{(f)}(.|s) for s < S, and row f*(S+1) + S
    that of mu_f, each ending in a forced 1.0. The guide table (Chen & Asau
    1974; Devroye 1986, section III.2.4) splits [0, 1) into M equal buckets
    and stores, for each row and bucket k, where the row's entries below k/M
    end; a uniform u in bucket k has as many entries below it as that, plus
    at most the n_k entries the row has in [k/M, (k+1)/M). So a walk from the
    guide entry bisects L levels, L the bit length of the largest n_k, and
    probes at most 2^L - 2 entries past its start. Each entry is counted in
    its own bucket rather than found by a search that assumes sorted rows: a
    row whose sum overshoots 1 ends in the forced 1.0 after an entry above 1.

    M is 4W, W the power of two at or above S, or less where the int64 guide
    would outgrow ``memory.BLOCK_BYTES``. Rows keep width W: a guide entry
    past W - 2^L + 1 is moved back to it, where the walk's last probe is the
    row's last entry and its L levels still reach the count, at most S - 1
    (the forced 1.0 is below no uniform).
    """
    S = instance.S
    cdf = np.cumsum(np.stack([np.vstack([m.P, m.mu]) for m in instance.models]),
                    axis=2).reshape(-1, S)
    # uniforms live in [0,1); an exact 1.0 endpoint keeps inverse-CDF indices in range
    cdf[:, -1] = 1.0
    n_rows = cdf.shape[0]
    row_len = 1 << (S - 1).bit_length()
    fit = min(4 * row_len, memory.rows_within(memory.BLOCK_BYTES, 8 * n_rows))
    M = 1 << (fit.bit_length() - 1)
    # entry c lies in bucket floor(c*M), exactly as M is a power of two; the
    # entries at or above 1 fall in bucket M, which no uniform reaches
    bucket = np.minimum(cdf * M, M).astype(np.int64)
    bucket += np.arange(0, n_rows * (M + 1), M + 1)[:, None]
    count = np.bincount(bucket.ravel(), minlength=n_rows * (M + 1)).reshape(n_rows, M + 1)[:, :M]
    levels = int(count.max()).bit_length()
    below = np.cumsum(count, axis=1) - count  # at [r, k]: row r's entries below k/M
    start = np.minimum(below, row_len - (1 << levels) + 1)
    rows = np.full((n_rows, row_len), 2.0)
    rows[:, :S] = cdf
    guide = (start + np.arange(0, n_rows * row_len, row_len)[:, None]).ravel()
    return _CdfTable(rows.ravel(), row_len, M, guide, levels)


def sample_trajectories(instance: MixtureInstance, seed: int) -> TrajectorySet:
    """Sample all T trajectories; trajectory t uses the Philox stream keyed by
    (seed, t), for a seed in [0, 2**64) (``InputError`` otherwise).

    The walk is vectorized across trajectories (inverse-CDF steps on
    per-trajectory uniforms), which leaves the per-trajectory streams intact:
    trajectory t consumes exactly H uniforms from its own stream. All T streams
    come from one bit generator, re-keyed per trajectory by ``_refill`` each
    time the (chunk, T) buffer of uniforms is refilled.

    Each state, the first included, is the count of CDF entries strictly below
    u (Devroye 1986, section III.2). Chain k has S+1 CDF rows: row s is
    p^{(k)}(.|s) and row S is mu_k, from which the first state is drawn. The
    K*(S+1) rows lie end to end in one table (``_cdf_table``), padded with
    2.0, above every uniform, to a power-of-two width W. A step starts a
    trajectory's pointer at its row's guide entry for bucket floor(u*M), exact
    as M is a power of two, and bisects L levels: the pointer adds
    step = 2^(L-1), ..., 1 wherever u exceeds the entry step - 1 past it. The
    predicate u > cdf_k holds on a prefix of the row (a cumsum of nonnegatives
    never decreases, and the forced final 1.0 follows only entries that u < 1
    cannot exceed), so the pointer's offset in its row is that count, the next
    state, and one table maps the pointer to the next row's first guide entry.
    On ``wide`` (S = 40, K = 8) M = 256 and L = 1, against six levels from the
    row start; on ``decay`` (S = 4) M = 16 and L = 1, against two.
    """
    check_seed(seed)
    T, H, S = instance.T, instance.H, instance.S
    f = instance.decoding
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    template = gen.bit_generator.state  # the fresh state every refill re-keys

    flat, row_len, M, guide, levels = _cdf_table(instance)
    offset = row_len - 1  # mask of a pointer's offset in its row, i.e. its state
    # pointer (f*(S+1) + r)*W + s sits on state s; its next row's guide entries start at
    # (f*(S+1) + s)*M
    ptrs = np.arange(flat.size)
    next_row = (ptrs // (row_len * (S + 1)) * (S + 1) + (ptrs & offset)) * M
    probes = [(step, flat[step - 1:]) for step in (1 << k for k in range(levels - 1, 0, -1))]
    last = levels > 0  # a step-1 level, whose probe is the pointer's own entry
    ptr = (f * (S + 1) + S) * M
    bucket = np.empty(T, dtype=np.int64)
    states = np.empty((T, H), dtype=np.min_scalar_type(S - 1))
    Ut = np.empty((min(_CHUNK, H), T))  # one buffer of uniforms, step-major, refilled per chunk
    for h in range(0, H, _CHUNK):
        width = min(_CHUNK, H - h)
        _refill(Ut[:width], gen, template, h)
        for j in range(width):
            u = Ut[j]
            np.multiply(u, M, out=bucket, casting="unsafe")  # truncates u*M >= 0
            bucket += ptr
            ptr = guide[bucket]
            for step, probe in probes:
                ptr += (u > probe[ptr]) * step
            if last:
                ptr += u > flat[ptr]
            states[:, h + j] = ptr & offset
            ptr = next_row[ptr]
    return TrajectorySet(states=states, seed=int(seed))


def gen_random_ergodic(S: int, seed: int, floor: float) -> MarkovModel:
    """Random ergodic chain: Dirichlet rows mixed toward uniform so entries >= floor.

    All-positive entries guarantee irreducibility and aperiodicity, and the
    floor bounds the cross-chain transition ratio eta_p by construction.
    """
    if S < 2:
        raise InputError("S must be >= 2")
    if not 0.0 < floor < 1.0 / S:
        raise InputError(f"floor must lie in (0, 1/S); got {floor}")
    rng = np.random.default_rng(seed)
    lam = S * floor
    P = (1.0 - lam) * rng.dirichlet(np.ones(S), size=S) + floor
    mu = (1.0 - lam) * rng.dirichlet(np.ones(S)) + floor
    # renormalize away accumulated float error before validation
    P /= P.sum(axis=1, keepdims=True)
    mu /= mu.sum()
    return validate_model(P, mu)


def gen_separation_models(S_prime: int) -> tuple[MarkovModel, MarkovModel]:
    """The two-chain construction on S = 2 S' states with swapped 3:1 row pattern.

    Every row of the first chain puts 3/(4S') on each state of the first half
    and 1/(4S') on each state of the second half; the second chain swaps the
    halves. Rows equal the stationary distribution, so both chains mix in one
    step and have pseudo-spectral gap 1.
    """
    if S_prime < 1:
        raise InputError("S_prime must be >= 1")
    hi, lo = 3.0 / (4.0 * S_prime), 1.0 / (4.0 * S_prime)
    row1 = np.concatenate([np.full(S_prime, hi), np.full(S_prime, lo)])
    row2 = np.concatenate([np.full(S_prime, lo), np.full(S_prime, hi)])
    S = 2 * S_prime
    m1 = validate_model(np.tile(row1, (S, 1)), row1)
    m2 = validate_model(np.tile(row2, (S, 1)), row2)
    return m1, m2


# --- persistence ---------------------------------------------------------

def instance_to_json(instance: MixtureInstance) -> dict:
    """JSON document; decoding values are 1-based on disk."""
    return {
        "models": [model_to_json(m) for m in instance.models],
        "decoding": (instance.decoding + 1).tolist(),
        "T": instance.T,
        "H": instance.H,
    }


def instance_from_json(doc: dict, where: str = "instance document") -> MixtureInstance:
    require_keys(doc, ("models", "decoding", "T", "H"), where)
    models = tuple(model_from_json(m, f"{where} models[{i}]")
                   for i, m in enumerate(field(doc, "models", list, where)))
    decoding = field(doc, "decoding", int_vector, where) - 1
    T, H = field(doc, "T", integer, where), field(doc, "H", integer, where)
    try:
        return MixtureInstance(models=models, decoding=decoding, T=T, H=H)
    except InputError as exc:  # name the document
        raise InputError(f"{where}: {exc}") from exc


def save_instance(instance: MixtureInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance), indent=2))


def load_instance(path: str | Path) -> MixtureInstance:
    return instance_from_json(read_object(path), str(path))


def save_trajectories(trajs: TrajectorySet, path: str | Path, S: int, instance_id: str) -> None:
    """Binary layout: little-endian u32 header (T, H, S), then T*H u16 states (1-based).

    A JSON sidecar ``<path>.json`` records the seed and ``instance_id``, the
    hash of the instance sampled (``MixtureInstance.instance_id``).
    States must lie in [0, S) with S <= 65535, so that every one fits 1-based.
    """
    if S > 0xFFFF:
        raise InputError(f"S={S} exceeds the 65535 states a u16 file can hold")
    if trajs.states.size and (trajs.states.min() < 0 or trajs.states.max() >= S):
        raise InputError(f"state indices must lie in [0, {S - 1}]")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<III", trajs.T, trajs.H, S))
        # one u16 copy of the states; the range check makes the cast exact
        np.add(trajs.states, 1, dtype="<u2", casting="unsafe").tofile(fh)
    sidecar = {"seed": trajs.seed, "instance_id": instance_id, "index_base": 1}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))


def load_trajectories(path: str | Path) -> tuple[TrajectorySet, int, str]:
    """Read the binary trajectory file and its ``<path>.json`` sidecar;
    returns (trajectories, S, the sidecar's ``instance_id``)."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12:
            raise InputError(f"{path} is shorter than its 12-byte header")
        T, H, S = struct.unpack("<III", header)
        if S == 0:
            raise InputError(f"{path}: its header has S = 0 states")
        size = os.fstat(fh.fileno()).st_size - 12
        if size != 2 * T * H:
            raise InputError(f"{path} holds {size} state bytes; "
                             f"its header (T={T}, H={H}) needs {2 * T * H}")
        raw = np.fromfile(fh, dtype="<u2", count=T * H).reshape(T, H)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    try:
        sidecar = read_object(sidecar_path, ("seed", "instance_id"))
    except FileNotFoundError as exc:
        raise InputError(f"{sidecar_path} is missing: it holds the seed and index base "
                         f"of {path}") from exc
    where = str(sidecar_path)
    base = field(sidecar, "index_base", integer, where, 1)
    # checked before narrowing: in a narrow dtype a state below the base would
    # wrap to the top of the dtype's range (a 0 in a 1-based file to 255 in
    # uint8), where a count's own range check at S = 256 would not see it
    if raw.size and (raw.min() < base or raw.max() >= base + S):
        raise InputError(f"{path}: state indices must lie in [{base}, {base + S - 1}] "
                         f"(S={S}, index base {base})")
    states = np.empty((T, H), dtype=np.min_scalar_type(S - 1))
    # each difference lies in [0, S), so narrowing it is exact; the int64 loop
    # takes a base of either sign
    np.subtract(raw, base, out=states, dtype=np.int64, casting="unsafe")
    return (TrajectorySet(states=states, seed=field(sidecar, "seed", integer, where)), S,
            sidecar["instance_id"])
