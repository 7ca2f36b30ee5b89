"""Interaction data: loading, task construction, shop classes, sampling, synthesis.

File formats (all CSV, UTF-8):
  * interactions: header user_id,item_id,shop_id,label plus optional
    timestamp and genre_l3 columns (any column order); labels are 0/1 for
    binary logs or ratings in [1, 5]
  * latents: header kind,id,v0,v1,... with kind in {user, item, shop_effect}
  * attributes: header with an id column followed by categorical fields

Determinism: every random choice goes through ``np.random.default_rng``
seeded from (seed, purpose tag) or (seed, stable hash of the entity id), so
outputs are reproducible byte-for-byte across runs and platforms.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import io
import math
import re
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .checkpoint import atomic_write_text, read_text
from .errors import ConfigError, DataError, SamplingError

REQUIRED_COLUMNS = ("user_id", "item_id", "shop_id", "label")
OPTIONAL_COLUMNS = ("timestamp", "genre_l3")

# rng purpose tags, kept distinct so streams never overlap
_TAG_TASKS = 3
_TAG_NEGATIVES = 13
_TAG_SYNTH = 17


def stable_hash64(text: str) -> int:
    """Platform-independent 64-bit hash (used to derive per-entity seeds)."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class SizeClass(enum.Enum):
    NEW = "new"
    SMALL = "small"
    LARGE = "large"


class TaskUnit(enum.Enum):
    SHOP = "shop"
    ITEM = "item"
    USER = "user"


class NegativeStrategy(enum.Enum):
    N0 = "n0"
    N1 = "n1"
    N2 = "n2"


@dataclass(frozen=True)
class InteractionRecord:
    """One purchase/rating event."""

    user_id: str
    item_id: str
    shop_id: str
    label: float
    timestamp: int | None = None
    genre_l3: str | None = None

    def __post_init__(self) -> None:
        for name in ("user_id", "item_id", "shop_id"):
            v = getattr(self, name)
            if not isinstance(v, str) or not v:
                raise DataError(f"{name} must be a non-empty string, got {v!r}")
        if not math.isfinite(self.label) or self.label < 0:
            raise DataError(f"label must be finite and >= 0, got {self.label}")


def _record_sort_key(r: InteractionRecord):
    ts = r.timestamp if r.timestamp is not None else -1
    return (r.shop_id, ts, r.user_id, r.item_id, r.label)


@dataclass(frozen=True)
class ShopTask:
    """One adaptation task: a support set to adapt on, a query set to judge on.

    ``shop_id`` is the task key; with non-shop task units it holds the item
    or user id instead. Support and query must be disjoint and non-empty.
    """

    shop_id: str
    support: tuple[InteractionRecord, ...]
    query: tuple[InteractionRecord, ...]
    size_class: SizeClass | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "query", tuple(self.query))
        if not self.support or not self.query:
            raise DataError(f"task {self.shop_id!r} needs support and query records")
        if set(self.support) & set(self.query):
            raise DataError(f"task {self.shop_id!r} has overlapping support/query")


# ---------------------------------------------------------------------------
# interaction files
# ---------------------------------------------------------------------------


def load_interactions(path: str | Path) -> list[InteractionRecord]:
    """Read and validate an interaction CSV.

    Malformed rows are collected and reported together with their line
    numbers; duplicate (user, item, shop, timestamp) keys are rejected.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path, "", DataError), newline=""))
    problems: list[str] = []
    records: list[InteractionRecord] = []
    seen: dict[tuple, int] = {}
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    header = [h.strip() for h in header]
    unknown = set(header) - set(REQUIRED_COLUMNS) - set(OPTIONAL_COLUMNS)
    missing = set(REQUIRED_COLUMNS) - set(header)
    if unknown or missing:
        raise DataError(
            f"{path}: bad header (missing {sorted(missing)}, "
            f"unknown {sorted(unknown)})"
        )
    col = {name: header.index(name) for name in header}
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            problems.append(f"line {line_no}: {len(row)} fields, expected {len(header)}")
            continue
        try:
            label = float(row[col["label"]])
        except ValueError:
            problems.append(f"line {line_no}: label {row[col['label']]!r} is not a number")
            continue
        if not (label in (0.0, 1.0) or 1.0 <= label <= 5.0):
            problems.append(
                f"line {line_no}: label {label} outside 0/1 and [1, 5]"
            )
            continue
        ts: int | None = None
        if "timestamp" in col and row[col["timestamp"]] != "":
            try:
                ts = int(row[col["timestamp"]])
            except ValueError:
                problems.append(
                    f"line {line_no}: timestamp {row[col['timestamp']]!r} is not an integer"
                )
                continue
        genre = None
        if "genre_l3" in col and row[col["genre_l3"]] != "":
            genre = row[col["genre_l3"]]
        try:
            rec = InteractionRecord(
                row[col["user_id"]], row[col["item_id"]], row[col["shop_id"]],
                label, ts, genre,
            )
        except DataError as exc:
            problems.append(f"line {line_no}: {exc}")
            continue
        key = (rec.user_id, rec.item_id, rec.shop_id, rec.timestamp)
        if key in seen:
            problems.append(
                f"line {line_no}: duplicate of line {seen[key]} "
                f"(user={rec.user_id}, item={rec.item_id})"
            )
            continue
        seen[key] = line_no
        records.append(rec)
    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise DataError(f"{path}: {len(problems)} malformed rows: {shown}{more}")
    return records


def save_interactions(path: str | Path, records: Sequence[InteractionRecord]) -> None:
    """Write interactions; optional columns appear iff any record uses them."""
    cols = list(REQUIRED_COLUMNS)
    if any(r.timestamp is not None for r in records):
        cols.append("timestamp")
    if any(r.genre_l3 is not None for r in records):
        cols.append("genre_l3")
    lines = [",".join(cols)]
    for r in records:
        row = [r.user_id, r.item_id, r.shop_id, repr(r.label)]
        if "timestamp" in cols:
            row.append("" if r.timestamp is None else str(r.timestamp))
        if "genre_l3" in cols:
            row.append("" if r.genre_l3 is None else r.genre_l3)
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# task construction
# ---------------------------------------------------------------------------


def build_tasks(
    records: Sequence[InteractionRecord],
    min_interactions: int = 13,
    support_size: int = 10,
    seed: int = 0,
    task_unit: TaskUnit = TaskUnit.SHOP,
) -> list[ShopTask]:
    """Group records by task unit and split each group into support/query.

    Groups below ``min_interactions`` are dropped. The support set is drawn
    without replacement by a per-group seeded permutation, so the split for
    one group is independent of every other group and of record file order.
    """
    if support_size < 1:
        raise ConfigError(f"support_size must be >= 1, got {support_size}")
    if min_interactions <= support_size:
        raise ConfigError(
            f"min_interactions ({min_interactions}) must exceed "
            f"support_size ({support_size}) so queries are never empty"
        )
    key_of = {
        TaskUnit.SHOP: lambda r: r.shop_id,
        TaskUnit.ITEM: lambda r: r.item_id,
        TaskUnit.USER: lambda r: r.user_id,
    }[task_unit]
    groups: dict[str, list[InteractionRecord]] = {}
    for r in records:
        groups.setdefault(key_of(r), []).append(r)
    tasks = []
    for key in sorted(groups):
        recs = sorted(groups[key], key=_record_sort_key)
        if len(recs) < min_interactions:
            continue
        rng = np.random.default_rng([seed, _TAG_TASKS, stable_hash64(key)])
        perm = rng.permutation(len(recs))
        chosen = set(perm[:support_size].tolist())
        support = tuple(r for i, r in enumerate(recs) if i in chosen)
        query = tuple(r for i, r in enumerate(recs) if i not in chosen)
        tasks.append(ShopTask(key, support, query))
    return tasks


def purchase_histories(
    records: Sequence[InteractionRecord],
) -> dict[str, tuple[str, ...]]:
    """Each user's purchased items (label > 0), sorted and unique."""
    hist: dict[str, set[str]] = {}
    for r in records:
        if r.label > 0:
            hist.setdefault(r.user_id, set()).add(r.item_id)
    return {u: tuple(sorted(items)) for u, items in hist.items()}


# ---------------------------------------------------------------------------
# shop classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShopStats:
    """Training sales per shop plus the two size classifications.

    ``taxonomy`` classifies every test shop: NEW if absent from training,
    otherwise LARGE for the top quarter (ceil) of existing test shops by
    training sales (ties broken toward the lexicographically smaller id) and
    SMALL for the rest. ``small_sampling`` is the separate median rule over
    all training shops (sales strictly below the median), used by the
    negative samplers and by fair training.
    """

    sales: dict[str, int]
    taxonomy: dict[str, SizeClass]
    median_sales: float
    small_sampling: frozenset[str]

    def sampling_class(self, shop_id: str) -> SizeClass:
        if shop_id not in self.sales:
            raise DataError(f"shop {shop_id!r} was never seen in training")
        return SizeClass.SMALL if shop_id in self.small_sampling else SizeClass.LARGE

    @property
    def counts(self) -> dict[SizeClass, int]:
        out = {c: 0 for c in SizeClass}
        for c in self.taxonomy.values():
            out[c] += 1
        return out


def classify_shops(
    train_records: Sequence[InteractionRecord],
    test_records: Sequence[InteractionRecord],
) -> ShopStats:
    """Classify test shops (new/small/large) and compute the median rule."""
    sales: dict[str, int] = {}
    for r in train_records:
        sales.setdefault(r.shop_id, 0)
        if r.label > 0:
            sales[r.shop_id] += 1
    test_shops = sorted({r.shop_id for r in test_records})
    existing = [s for s in test_shops if s in sales]
    n_large = math.ceil(0.25 * len(existing))
    by_sales = sorted(existing, key=lambda s: (-sales[s], s))
    large = set(by_sales[:n_large])
    taxonomy: dict[str, SizeClass] = {}
    for s in test_shops:
        if s not in sales:
            taxonomy[s] = SizeClass.NEW
        elif s in large:
            taxonomy[s] = SizeClass.LARGE
        else:
            taxonomy[s] = SizeClass.SMALL
    median = float(statistics.median(sales.values())) if sales else 0.0
    small = frozenset(s for s, n in sales.items() if n < median)
    return ShopStats(sales, taxonomy, median, small)


def attach_size_classes(
    tasks: Sequence[ShopTask], stats: ShopStats, use_taxonomy: bool
) -> list[ShopTask]:
    """Return tasks with size_class filled in.

    Training tasks use the median sampling rule (never NEW); evaluation
    tasks use the test-shop taxonomy.
    """
    out = []
    for t in tasks:
        if use_taxonomy:
            if t.shop_id not in stats.taxonomy:
                raise DataError(f"shop {t.shop_id!r} missing from the taxonomy")
            cls = stats.taxonomy[t.shop_id]
        else:
            cls = stats.sampling_class(t.shop_id)
        out.append(replace(t, size_class=cls))
    return out


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------


def negative_sample(
    positives: Sequence[InteractionRecord],
    strategy: NegativeStrategy,
    stats: ShopStats,
    ratio: float = 1.0,
    seed: int = 0,
) -> list[InteractionRecord]:
    """Draw negative (user, item) pairs for the given purchase events.

    Strategies:
      * N0: for an item of genre g, sample users who purchased items of a
        different genre.
      * N1: a fair coin picks between users who purchased from small shops
        (median rule) and the N0 pool.
      * N2: items from large shops use the N0 draw, items from small shops
        the N1 draw (no extra randomness is consumed deciding, so N2 on a
        large-shop item replays N0 exactly under the same seed).

    Sampled pairs never collide with observed positives or with each other.
    An exhausted pool raises SamplingError naming the item.
    """
    if not positives:
        raise DataError("no positives to sample negatives for")
    if not (ratio > 0 and math.isfinite(ratio)):
        raise ConfigError(f"negative ratio must be positive, got {ratio}")
    for r in positives:
        if r.label <= 0:
            raise DataError("negative_sample expects only positive records")
        if r.genre_l3 is None:
            raise DataError(
                f"record (user={r.user_id}, item={r.item_id}) lacks genre_l3, "
                f"required by strategy {strategy.value}"
            )
    item_genre: dict[str, str] = {}
    item_shop: dict[str, str] = {}
    user_genres: dict[str, set[str]] = {}
    positive_pairs: set[tuple[str, str]] = set()
    for r in positives:
        if item_genre.setdefault(r.item_id, r.genre_l3) != r.genre_l3:
            raise DataError(f"item {r.item_id!r} has conflicting genres")
        if item_shop.setdefault(r.item_id, r.shop_id) != r.shop_id:
            raise DataError(f"item {r.item_id!r} appears in multiple shops")
        user_genres.setdefault(r.user_id, set()).add(r.genre_l3)
        positive_pairs.add((r.item_id, r.user_id))

    all_users = sorted(user_genres)
    other_genre_pool = {
        g: [u for u in all_users if user_genres[u] - {g}]
        for g in sorted({r.genre_l3 for r in positives})
    }
    small_pool = sorted(
        {
            r.user_id
            for r in positives
            if stats.sampling_class(r.shop_id) is SizeClass.SMALL
        }
    )

    def draw_from(pool: list[str], item_id: str, taken: set[tuple[str, str]],
                  rng: np.random.Generator) -> str:
        if not pool:
            raise SamplingError(f"empty candidate pool for item {item_id!r}")
        start = int(rng.integers(len(pool)))
        for off in range(len(pool)):
            u = pool[(start + off) % len(pool)]
            if (item_id, u) not in positive_pairs and (item_id, u) not in taken:
                return u
        raise SamplingError(f"candidate pool exhausted for item {item_id!r}")

    ordered = sorted(positives, key=_record_sort_key)
    total = int(round(ratio * len(ordered)))
    rng = np.random.default_rng([seed, _TAG_NEGATIVES])
    taken: set[tuple[str, str]] = set()
    negatives = []
    for i in range(total):
        rec = ordered[i % len(ordered)]
        mode = strategy
        if mode is NegativeStrategy.N2:
            shop_class = stats.sampling_class(rec.shop_id)
            mode = (
                NegativeStrategy.N0
                if shop_class is SizeClass.LARGE
                else NegativeStrategy.N1
            )
        if mode is NegativeStrategy.N1 and rng.random() < 0.5:
            pool = small_pool
        else:
            pool = other_genre_pool[rec.genre_l3]
        user = draw_from(pool, rec.item_id, taken, rng)
        taken.add((rec.item_id, user))
        negatives.append(
            InteractionRecord(
                user, rec.item_id, rec.shop_id, 0.0, None, rec.genre_l3
            )
        )
    return negatives


# ---------------------------------------------------------------------------
# feature sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureTable:
    """Pretrained float vectors per user and item id."""

    users: dict[str, np.ndarray]
    items: dict[str, np.ndarray]

    def user_raw(self, user_id: str) -> np.ndarray:
        try:
            return self.users[user_id]
        except KeyError:
            raise DataError(f"no features for user {user_id!r}") from None

    def item_raw(self, item_id: str) -> np.ndarray:
        try:
            return self.items[item_id]
        except KeyError:
            raise DataError(f"no features for item {item_id!r}") from None


@dataclass(frozen=True)
class AttributeTable:
    """Categorical attribute dictionaries per user and item id."""

    users: dict[str, dict[str, str]]
    items: dict[str, dict[str, str]]

    def user_raw(self, user_id: str) -> dict[str, str]:
        try:
            return self.users[user_id]
        except KeyError:
            raise DataError(f"no attributes for user {user_id!r}") from None

    def item_raw(self, item_id: str) -> dict[str, str]:
        try:
            return self.items[item_id]
        except KeyError:
            raise DataError(f"no attributes for item {item_id!r}") from None


def save_latents(
    path: str | Path,
    users: Mapping[str, np.ndarray],
    items: Mapping[str, np.ndarray],
    shop_effects: Mapping[str, np.ndarray] | None = None,
) -> None:
    dim = len(next(iter(users.values())))
    header = ["kind", "id"] + [f"v{i}" for i in range(dim)]
    lines = [",".join(header)]
    for kind, table in (
        ("user", users),
        ("item", items),
        ("shop_effect", shop_effects or {}),
    ):
        for key in sorted(table):
            vec = np.asarray(table[key], dtype=np.float64)
            lines.append(",".join([kind, key] + [repr(float(v)) for v in vec]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_latents(path: str | Path) -> tuple[FeatureTable, dict[str, np.ndarray]]:
    """Read a latent file back into (FeatureTable, shop effects)."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path, "", DataError), newline=""))
    users: dict[str, np.ndarray] = {}
    items: dict[str, np.ndarray] = {}
    shops: dict[str, np.ndarray] = {}
    header = next(reader, None)
    if not header or header[:2] != ["kind", "id"]:
        raise DataError(f"{path}: expected a latent file header (kind,id,v0,...)")
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path} line {line_no}: wrong field count")
        kind, key = row[0], row[1]
        try:
            vec = np.asarray([float(v) for v in row[2:]], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path} line {line_no}: non-numeric value") from None
        table = {"user": users, "item": items, "shop_effect": shops}.get(kind)
        if table is None:
            raise DataError(f"{path} line {line_no}: unknown kind {kind!r}")
        if not np.isfinite(vec).all():
            raise DataError(f"{path} line {line_no}: non-finite value")
        if key in table:
            raise DataError(f"{path} line {line_no}: repeated {kind} id {key!r}")
        table[key] = vec
    if not users or not items:
        raise DataError(f"{path}: latent file needs user and item rows")
    return FeatureTable(users, items), shops


def save_attributes(path: str | Path, table: Mapping[str, Mapping[str, str]],
                    id_column: str) -> None:
    fields = sorted({f for attrs in table.values() for f in attrs})
    lines = [",".join([id_column] + fields)]
    for key in sorted(table):
        lines.append(",".join([key] + [table[key].get(f, "") for f in fields]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_attributes(path: str | Path) -> dict[str, dict[str, str]]:
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path, "", DataError), newline=""))
    out: dict[str, dict[str, str]] = {}
    header = next(reader, None)
    if not header or len(header) < 2:
        raise DataError(f"{path}: expected an id column plus attribute columns")
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path} line {line_no}: wrong field count")
        if row[0] in out:
            raise DataError(f"{path} line {line_no}: repeated id {row[0]!r}")
        out[row[0]] = dict(zip(header[1:], row[1:]))
    return out


def attribute_fields(
    table: Mapping[str, Mapping[str, str]]
) -> list[tuple[str, list[str]]]:
    """Sorted (field, sorted vocabulary) pairs for building encoders."""
    vocab: dict[str, set[str]] = {}
    for attrs in table.values():
        for f, v in attrs.items():
            vocab.setdefault(f, set()).add(v)
    return [(f, sorted(vs)) for f, vs in sorted(vocab.items())]


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic marketplace generator.

    Shop sizes follow a truncated power law (pareto_exponent); each shop has
    a latent preference shift w_p so that per-shop adaptation has signal to
    pick up: a purchase happens when u . (v_i + w_p) + noise > threshold.
    """

    n_users: int = 400
    n_items: int = 120
    n_shops: int = 20
    latent_dim: int = 8
    pareto_exponent: float = 1.3
    noise_std: float = 0.3
    seed: int = 0
    interactions_per_shop: int = 600
    n_new_shops: int = 3
    shop_effect_std: float = 1.0
    label_threshold: float = 0.8
    test_fraction: float = 0.3
    n_genres: int = 6
    min_shop_size: int = 30

    def __post_init__(self) -> None:
        if min(self.n_users, self.n_items, self.n_shops, self.latent_dim) < 1:
            raise ConfigError("counts and latent_dim must be positive")
        if self.n_items < self.n_shops:
            raise ConfigError("need at least one item per shop")
        if not 0 <= self.n_new_shops < self.n_shops:
            raise ConfigError(
                f"n_new_shops {self.n_new_shops} must be < n_shops {self.n_shops}"
            )
        if self.pareto_exponent <= 0 or not math.isfinite(self.pareto_exponent):
            raise ConfigError("pareto_exponent must be positive")
        if self.noise_std < 0 or self.shop_effect_std < 0:
            raise ConfigError("std values must be >= 0")
        for name in ("noise_std", "shop_effect_std", "label_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.n_genres < 2:
            raise ConfigError("need at least two genres")
        if self.min_shop_size < 2:
            raise ConfigError("min_shop_size must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SyntheticData:
    train: list[InteractionRecord]
    test: list[InteractionRecord]
    features: FeatureTable
    shop_effects: dict[str, np.ndarray]
    new_shops: tuple[str, ...]


def _id_list(prefix: str, n: int) -> list[str]:
    width = max(3, len(str(n - 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation proportional to weights, each share >= 1."""
    raw = weights / weights.sum() * total
    counts = np.maximum(1, np.floor(raw).astype(int))
    while counts.sum() > total:
        counts[np.argmax(counts)] -= 1
    remainders = raw - counts
    while counts.sum() < total:
        j = int(np.argmax(remainders))
        counts[j] += 1
        remainders[j] = -np.inf
    return counts


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Build a marketplace with power-law shop sizes and held-out new shops.

    Ground truth: user latents U, item latents V, and per-shop effects W.
    The purchase rule is ``1[u . (v + w) + eps > threshold]``; models only
    ever see U and V, so the shop effect is exactly what local adaptation
    must recover. New shops are drawn among below-median-size shops and all
    their events go to the test period; existing shops put their last
    ``test_fraction`` of events (by timestamp) into test.
    """
    rng = np.random.default_rng([spec.seed, _TAG_SYNTH])
    d = spec.latent_dim
    scale = d ** -0.25  # so latent dot products have roughly unit variance
    users = _id_list("u", spec.n_users)
    items = _id_list("i", spec.n_items)
    shops = _id_list("s", spec.n_shops)
    genres = _id_list("g", spec.n_genres)
    U = rng.normal(0.0, 1.0, (spec.n_users, d)) * scale
    V = rng.normal(0.0, 1.0, (spec.n_items, d)) * scale
    W = rng.normal(0.0, 1.0, (spec.n_shops, d)) * scale * spec.shop_effect_std

    raw = rng.pareto(spec.pareto_exponent, spec.n_shops) + 1.0
    if not math.isfinite(raw.sum()):
        raise ConfigError(
            f"pareto_exponent {spec.pareto_exponent} draws non-finite shop sizes"
        )
    sizes = np.maximum(
        spec.min_shop_size,
        np.round(raw / raw.sum() * spec.interactions_per_shop * spec.n_shops).astype(int),
    )
    item_counts = _apportion(sizes.astype(float), spec.n_items)
    item_perm = rng.permutation(spec.n_items)
    shop_items: list[np.ndarray] = []
    offset = 0
    for p in range(spec.n_shops):
        shop_items.append(item_perm[offset : offset + item_counts[p]])
        offset += item_counts[p]
    item_genre = rng.integers(0, spec.n_genres, spec.n_items)

    if spec.n_new_shops:
        median_size = float(np.median(sizes))
        below = [p for p in range(spec.n_shops) if sizes[p] < median_size]
        if len(below) < spec.n_new_shops:
            below = list(np.argsort(sizes)[: max(spec.n_new_shops, 1)])
        new_idx = set(
            int(p) for p in rng.choice(below, size=spec.n_new_shops, replace=False)
        )
    else:
        new_idx = set()

    train: list[InteractionRecord] = []
    test: list[InteractionRecord] = []
    clock = 0
    for p in range(spec.n_shops):
        n_p = int(sizes[p])
        u_idx = rng.integers(0, spec.n_users, n_p)
        i_idx = shop_items[p][rng.integers(0, len(shop_items[p]), n_p)]
        noise = rng.normal(0.0, spec.noise_std, n_p) if spec.noise_std else np.zeros(n_p)
        scores = np.sum(U[u_idx] * (V[i_idx] + W[p]), axis=1) + noise
        labels = (scores > spec.label_threshold).astype(float)
        recs = []
        for e in range(n_p):
            recs.append(
                InteractionRecord(
                    users[u_idx[e]],
                    items[i_idx[e]],
                    shops[p],
                    float(labels[e]),
                    clock,
                    genres[item_genre[i_idx[e]]],
                )
            )
            clock += 1
        if p in new_idx:
            test.extend(recs)
        else:
            n_test = math.ceil(spec.test_fraction * n_p)
            train.extend(recs[: n_p - n_test])
            test.extend(recs[n_p - n_test :])

    features = FeatureTable(
        {users[i]: U[i] for i in range(spec.n_users)},
        {items[i]: V[i] for i in range(spec.n_items)},
    )
    effects = {shops[p]: W[p] for p in range(spec.n_shops)}
    new_shops = tuple(sorted(shops[p] for p in new_idx))
    return SyntheticData(train, test, features, effects, new_shops)


# ---------------------------------------------------------------------------
# MovieLens 1M conversion (genres as shops)
# ---------------------------------------------------------------------------

_YEAR_RE = re.compile(r"\((\d{4})\)\s*$")


def convert_ml1m(
    source_dir: str | Path,
    output_dir: str | Path,
    holdout_shops: Sequence[str] | None = None,
    train_before_year: int = 1998,
) -> dict[str, int]:
    """Convert the MovieLens 1M dump into the package's file formats.

    A movie's shop is its first listed genre. Movies released before
    ``train_before_year`` form the training period, the rest the test
    period. Shops in ``holdout_shops`` are removed from training entirely so
    they act as new shops; when not given, the holdout is every genre with
    no training-period movie (and, if that set is empty, the three smallest
    test-period genres by rating count).

    Writes train.csv, test.csv, user_attrs.csv, item_attrs.csv into
    ``output_dir`` and returns basic counts.
    """
    src = Path(source_dir)
    out = Path(output_dir)
    for name in ("ratings.dat", "movies.dat", "users.dat"):
        if not (src / name).exists():
            raise DataError(f"{src / name} not found; expected a MovieLens 1M dump")

    def read_dat(name: str) -> list[list[str]]:
        text = (src / name).read_bytes().decode("latin-1")
        return [line.split("::") for line in text.splitlines() if line]

    movies: dict[str, tuple[str, int]] = {}
    skipped_year = 0
    for row in read_dat("movies.dat"):
        if len(row) != 3:
            raise DataError(f"movies.dat: bad row {row!r}")
        movie_id, title, genre_list = row
        m = _YEAR_RE.search(title)
        if not m:
            skipped_year += 1
            continue
        genre = genre_list.split("|")[0]
        movies[movie_id] = (genre, int(m.group(1)))

    users: dict[str, dict[str, str]] = {}
    for row in read_dat("users.dat"):
        if len(row) != 5:
            raise DataError(f"users.dat: bad row {row!r}")
        uid, gender, age, occupation, zipcode = row
        users[f"u{uid}"] = {
            "gender": gender,
            "age": age,
            "occupation": occupation,
            "zip_region": zipcode[:1],
        }

    train: list[InteractionRecord] = []
    test: list[InteractionRecord] = []
    skipped_rating = 0
    rows = []
    for row in read_dat("ratings.dat"):
        if len(row) != 4:
            raise DataError(f"ratings.dat: bad row {row!r}")
        uid, movie_id, rating, ts = row
        if movie_id not in movies:
            skipped_rating += 1
            continue
        rows.append((uid, movie_id, float(rating), int(ts)))
    rows.sort(key=lambda r: (r[3], r[0], r[1]))

    if holdout_shops is None:
        train_genres = {
            g for (g, year) in movies.values() if year < train_before_year
        }
        holdout = {g for (g, _) in movies.values()} - train_genres
        if not holdout:
            counts: dict[str, int] = {}
            for _, movie_id, _, _ in rows:
                g, year = movies[movie_id]
                if year >= train_before_year:
                    counts[g] = counts.get(g, 0) + 1
            holdout = set(sorted(counts, key=lambda g: (counts[g], g))[:3])
    else:
        holdout = set(holdout_shops)

    for uid, movie_id, rating, ts in rows:
        genre, year = movies[movie_id]
        rec = InteractionRecord(
            f"u{uid}", f"m{movie_id}", genre, rating, ts, genre
        )
        if genre in holdout or year >= train_before_year:
            test.append(rec)
        else:
            train.append(rec)

    item_attrs = {
        f"m{mid}": {"year": str(year), "genre": genre}
        for mid, (genre, year) in movies.items()
    }
    out.mkdir(parents=True, exist_ok=True)
    save_interactions(out / "train.csv", train)
    save_interactions(out / "test.csv", test)
    save_attributes(out / "user_attrs.csv", users, "user_id")
    save_attributes(out / "item_attrs.csv", item_attrs, "item_id")
    return {
        "train_records": len(train),
        "test_records": len(test),
        "holdout_shops": len(holdout),
        "movies_without_year": skipped_year,
        "ratings_without_movie": skipped_rating,
    }
