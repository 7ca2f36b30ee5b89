"""Interaction data: loading, task construction, shop classes, sampling, synthesis.

File formats (all CSV with standard quoting, UTF-8):
  * interactions: header user_id,item_id,shop_id,label plus optional
    timestamp and genre_l3 columns (any column order); labels are 0/1 for
    binary logs or ratings in [1, 5]
  * latents: header kind,id,v0,v1,... (at least one value column) with kind
    in {user, item, shop_effect}
  * attributes: header with an id column followed by categorical fields

Records are slotted frozen dataclasses (no per-record ``__dict__``).
Each loader parses a file once; its column checks name the rows that fail.
``load_interactions`` and ``generate_synthetic`` return ``Interactions``
tables: a label column and int32 code columns into each field's values, so a
missing timestamp or genre (None) stays apart from a real -1; ``load_latents``
maps each id to a row of one float matrix. ``build_tasks``, ``classify_shops``,
``save_interactions`` and ``models.prepare_batch`` read columns, coding a
record sequence into a table first (``prepare_batch`` reads a record
sequence's three fields directly). A table checks its columns once (ids
non-empty strings, labels finite and >= 0), so the records it builds skip
the constructor check; it builds them only where something reads records:
task support and query sets, on the first read of any task of a
``build_tasks`` call (the trainers read the table split instead), and the
shops a caller picks.

Determinism: every random choice goes through ``np.random.default_rng``
seeded from (seed, purpose tag) or (seed, stable hash of the entity id), so
outputs are reproducible byte-for-byte across runs and platforms.
"""

from __future__ import annotations

import copy
import csv
import enum
import functools
import hashlib
import io
import math
import re
import statistics
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .checkpoint import atomic_write_text, read_text
from .errors import ConfigError, DataError, SamplingError, check_at_least

REQUIRED_COLUMNS = ("user_id", "item_id", "shop_id", "label")
OPTIONAL_COLUMNS = ("timestamp", "genre_l3")

# rng purpose tags of every module, kept distinct so streams never overlap
_TAG_TASKS = 3
_TAG_MODEL_INIT = 5  # cli: a trained model's initialisation
_TAG_ONE_SHOP_INIT = 7  # cli: a one-shop ablation model's, with the shop's hash
_TAG_NEGATIVES = 13
_TAG_SYNTH = 17
_TAG_META_BATCHES = 23  # metaopt: meta_train's task order and query picks
_TAG_NONMETA = 29  # metaopt: nonmeta_train's shuffles
_TAG_BASELINE = 31  # metaopt: train_baseline's shuffles
_TAG_ABLATION = 37  # cli: the one_shop study's shop sample

# messages more than one reader or check gives
_NOT_AN_ID = "{} must be a non-empty string, got {!r}"
_FIELD_COUNT = "{} fields, expected {}"
_NOT_A_STAMP = "timestamp {!r} is not an integer"


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


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One purchase/rating event; the constructor names the first bad field."""

    user_id: str
    item_id: str
    shop_id: str
    label: float
    timestamp: int | None = None
    genre_l3: str | None = None

    def __post_init__(self) -> None:
        for name in ("user_id", "item_id", "shop_id"):
            v = getattr(self, name)
            # the type test comes first: a numpy array id has no single truth value
            if not isinstance(v, str) or not v:
                raise DataError(_NOT_AN_ID.format(name, v))
        if not math.isfinite(self.label) or self.label < 0:
            raise DataError(f"label must be finite and >= 0, got {self.label}")


@dataclass(frozen=True)
class ShopTask:
    """One adaptation task: a support set to adapt on, a query set to judge on.

    ``shop_id`` is the task key; with non-shop task units it holds the item
    or user id instead. Support and query must be disjoint and non-empty.
    ``split``, the table and the support and query rows, is set on every task:
    ``build_tasks``' tasks share their call's table, and any other (hand-built,
    or a ``replace`` copy) codes its support, then query, into a table of its own.
    A task ``build_tasks`` returns builds its support and query tuples on
    first read (see there); from then on it holds them as a hand-built task
    does, so equality, hash, repr, pickling and ``replace`` see the records.
    """

    shop_id: str
    support: tuple[InteractionRecord, ...]
    query: tuple[InteractionRecord, ...]
    size_class: SizeClass | None = None
    split: tuple[Interactions, np.ndarray, np.ndarray] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "query", tuple(self.query))
        if not self.support or not self.query:
            raise DataError(f"task {self.shop_id!r} needs support and query records")
        users = {r.user_id for r in self.support}  # equal records share a user
        if not set(self.support).isdisjoint(r for r in self.query if r.user_id in users):
            raise DataError(f"task {self.shop_id!r} has overlapping support/query")
        n, table = len(self.support), Interactions.of(self.support + self.query)
        object.__setattr__(self, "split", (table, np.arange(n), np.arange(n, len(table))))

    def __getattr__(self, name: str):
        # reached only while a build_tasks task's support and query are unread
        pending = self.__dict__.get("_records") if name in ("support", "query") else None
        if pending is None:
            raise AttributeError(f"'ShopTask' object has no attribute {name!r}")
        build, a, b, c = pending
        recs = build()
        self.__dict__.update(support=tuple(recs[a:b]), query=tuple(recs[b:c]))
        del self.__dict__["_records"]
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        self.support  # pickles and copies hold the records, not the call's builder
        return self.__dict__


_FIELDS = tuple(f.name for f in fields(InteractionRecord))
_CODED = tuple(f for f in _FIELDS if f != "label")
# records built from a table have their slots set directly, without the check
_SETTERS = [getattr(InteractionRecord, f).__set__ for f in _FIELDS]


class Interactions(Sequence[InteractionRecord]):
    """Interactions as columns (Spotlight's ``Interactions``), read as records.

    ``label`` is a float64 column. Every other field is an int32 code column
    into an array of that field's values (LightFM-style id mappings), checked
    once as the record constructor would check each record. Only
    ``records_at`` builds records.
    """

    def __init__(self, label: np.ndarray, columns: Mapping[str, tuple]) -> None:
        self.label, self._columns = np.asarray(label, np.float64), {}
        for name in _CODED:
            codes, values = np.asarray(columns[name][0]), columns[name][1]
            if not isinstance(values, np.ndarray):
                values = np.fromiter(values, object, len(values))
            if (self.label.ndim, codes.shape, codes.dtype.kind in "iu") != (
                    1, self.label.shape, True) or (
                    codes.size and not 0 <= codes.min() <= codes.max() < len(values)):
                raise DataError(f"{name} needs one code per label into its values")
            for v in values.tolist() if name in _FIELDS[:3] else ():
                if not isinstance(v, str) or not v:
                    raise DataError(_NOT_AN_ID.format(name, v))
            self._columns[name] = (codes.astype(np.int32), values)
        bad = self.label[~(np.isfinite(self.label) & (self.label >= 0))]
        if bad.size:
            raise DataError(f"label must be finite and >= 0, got {bad[0]}")

    @classmethod
    def of(cls, records: Sequence[InteractionRecord]) -> Interactions:
        """A table as it is; a record sequence coded field by field in order of
        first appearance."""
        if isinstance(records, Interactions):
            return records
        columns = {name: _first_appearance_codes([getattr(r, name) for r in records])
                   for name in _CODED}
        return cls([float(r.label) for r in records], columns)

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, key):
        rows = np.array(range(len(self))[key], dtype=np.intp, ndmin=1)
        return self.records_at(rows)[slice(None) if isinstance(key, slice) else 0]

    def __iter__(self):
        return iter(self.records_at(np.arange(len(self))))

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A field's codes and the array of values they index (``label`` is its own)."""
        if name == "label":
            return np.arange(len(self)), self.label
        return self._columns[name]

    def distinct(self, name: str) -> tuple[list, np.ndarray]:
        """A field's values in order of first appearance, and each row's index there."""
        codes, values = self.column(name)
        used, first, codes = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        return values[used[order]].tolist(), np.argsort(order)[codes]

    def values(self, name: str) -> list:
        """Each row's value of a field."""
        codes, values = self.column(name)
        return values[codes].tolist()

    def ranks(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Each row's dense rank in the field's sort order (None as -1), in
        the smallest unsigned type (``lexsort`` is fastest on those), and the
        sorted distinct keys."""
        codes, keys = self.column(name)
        if keys.dtype == object:
            keys = [-1 if v is None else v for v in keys]
            exact = np.array(keys)  # big ints, floats and text keep Python's order
            keys = exact if exact.dtype.kind in "iu" else np.fromiter(keys, object)
        distinct, rank = np.unique(keys, return_inverse=True)
        return rank.astype(np.min_scalar_type(len(distinct)))[codes], distinct

    def order(self, *lead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows stably sorted by a per-row key ``lead``, if given, then in
        record order: shop, timestamp (None as -1), user, item, label; and a
        mask of the rows that tie another row on every one of those keys, the
        only rows whose records can be equal. The minor keys are ranked only
        when the major ones tie."""
        major = [self.ranks("timestamp")[0], self.ranks("shop_id")[0], *lead]
        order = np.lexsort(major)
        ordered = np.array([k[order] for k in major])
        tied = np.zeros(len(self), dtype=bool)
        if (ordered[:, 1:] == ordered[:, :-1]).all(axis=0).any():  # ties need the minor keys
            keys = [self.ranks(name)[0] for name in ("label", "item_id", "user_id")] + major
            order = np.lexsort(keys)
            ordered = np.array([k[order] for k in keys])
            same = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
            tied[order[1:][same]] = tied[order[:-1][same]] = True
        return order, tied

    def records_at(self, rows: np.ndarray) -> list[InteractionRecord]:
        """The records at ``rows``, built from the columns."""
        out = list(map(object.__new__, repeat(InteractionRecord, len(rows))))
        for put, name in zip(_SETTERS, _FIELDS):
            codes, values = self.column(name)
            deque(map(put, out, values[codes[rows]].tolist()), maxlen=0)  # runs in C
        return out


# ---------------------------------------------------------------------------
# interaction files
# ---------------------------------------------------------------------------


def load_interactions(path: str | Path) -> Interactions:
    """Read and validate an interaction CSV into an ``Interactions`` table.

    The text is parsed once. Each rule is checked once over its column, in
    a row's reading order (width, label, label range, timestamp, ids), and a
    row's problem is the first it fails; a row with no other problem may not
    repeat the key of an earlier such row. Every bad row is named by line.
    """
    path = Path(path)
    header, rows, lines = _read_csv(path)
    if header is None:
        raise DataError(f"{path} is empty")
    header = [h.strip() for h in header]
    unknown = set(header) - set(REQUIRED_COLUMNS) - set(OPTIONAL_COLUMNS)
    missing = set(REQUIRED_COLUMNS) - set(header)
    if unknown or missing:
        raise DataError(
            f"{path}: bad header (missing {sorted(missing)}, "
            f"unknown {sorted(unknown)})"
        )
    _check_unique_columns(path, header)
    problems, columns = _columns(header, rows, _FIELD_COUNT)
    text = dict(zip(header, columns))
    blank = ("",) * len(rows)
    labels = _parsed(float, text["label"], problems, "label {!r} is not a number")
    label = np.array(labels, np.float64)  # nan where not a number
    for k in np.flatnonzero(~((label == 0.0) | ((label >= 1.0) & (label <= 5.0)))).tolist():
        problems.setdefault(k, f"label {labels[k]} outside 0/1 and [1, 5]")
    stamps = _parsed(lambda t: int(t) if t else None, text.get("timestamp", blank),
                     problems, _NOT_A_STAMP)
    genres = [g or None for g in text.get("genre_l3", blank)]
    fields = (text["user_id"], text["item_id"], text["shop_id"], stamps, genres)
    coded = dict(zip(_CODED, map(_first_appearance_codes, fields)))
    for name in _CODED[:3]:
        codes, values = coded[name]
        for k in np.flatnonzero(codes == values.index("")).tolist() if "" in values else ():
            problems.setdefault(k, _NOT_AN_ID.format(name, ""))
    if len(coded["timestamp"][1]) < len(rows):  # distinct times make distinct keys
        keys = list(zip(*(coded[name][0].tolist() for name in _CODED[:4])))
        if len(set(keys)) < len(rows):
            first: dict[tuple, int] = {}  # a key: the line of its first row with no problem
            line, user, item = lines(), text["user_id"], text["item_id"]
            for k, key in enumerate(keys):
                if k not in problems and (j := first.setdefault(key, line[k])) != line[k]:
                    problems[k] = f"duplicate of line {j} (user={user[k]}, item={item[k]})"
    if not problems:
        return Interactions(label, coded)
    line = lines()
    report = [f"line {line[k]}: {problems[k]}" for k in sorted(problems)]
    more = f" (+{len(report) - 20} more)" if len(report) > 20 else ""
    raise DataError(f"{path}: {len(report)} malformed rows: {'; '.join(report[:20])}{more}")


def _read_csv(path: Path) -> tuple[list[str] | None, list[list[str]], Callable[[], list[int]]]:
    """A CSV file's header (None if it is empty), its other rows, and a
    function giving the line each row ends on, counted only when asked for
    as ``csv.reader.line_num`` counts: a row takes one line plus one for
    each line break its fields hold, "\\r\\n" being one as in the text stream.
    """
    reader = csv.reader(io.StringIO(read_text(path, "", DataError), newline=""))
    header = next(reader, None)
    top, rows = reader.line_num, list(reader)

    def lines() -> list[int]:
        spans = (1 + len(re.findall("\r\n?|\n", ",".join(row))) for row in rows)
        return list(accumulate(spans, initial=top))[1:]
    return header, rows, lines


def _columns(header: list[str], rows: list[list[str]],
             message: str) -> tuple[dict[int, str], list[tuple]]:
    """Each row's first problem by position, so far its width, and the rows'
    fields as one tuple per header column. A row whose width differs from
    the header's gets ``message`` (formatted with both widths) and reads as
    the header, so the column checks find nothing there that is reported."""
    problems = {}
    if set(map(len, rows)) - {len(header)}:
        problems = {k: message.format(len(row), len(header))
                    for k, row in enumerate(rows) if len(row) != len(header)}
        rows = [header if k in problems else row for k, row in enumerate(rows)]
    return problems, list(zip(*rows)) or [()] * len(header)


def _parsed(convert: Callable[[str], Any], texts: Sequence[str], problems: dict[int, str],
            message: str) -> list:
    """``convert`` of each text, or None where it raises ValueError: there the
    row's problem, unless it has one, is ``message`` formatted with the text."""
    try:
        return list(map(convert, texts))
    except ValueError:
        values = []
        for k, text in enumerate(texts):
            try:
                values.append(convert(text))
            except ValueError:
                values.append(None)
                problems.setdefault(k, message.format(text))
        return values


def _first_appearance_codes(values: Sequence) -> tuple[np.ndarray, list]:
    """int32 codes into the distinct ``values``, numbered in order of first appearance."""
    index = dict.fromkeys(values)
    if len(index) == len(values):
        return np.arange(len(values), dtype=np.int32), list(values)
    index = dict(zip(index, range(len(index))))
    return np.fromiter(map(index.__getitem__, values), np.int32, len(values)), list(index)


def _check_unique_columns(path: Path, header: Sequence[str]) -> None:
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataError(f"{path}: header names column {name!r} twice")


_NEEDS_QUOTES = re.compile('[,"\n\r]')


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write a header and equal-length text columns as csv.writer would.

    If no column's joined text holds a comma, quote or line break, the rows
    are joined as they are, at half csv.writer's cost. Otherwise csv.writer
    quotes what needs it, or every field if one holds a carriage return,
    which it leaves bare under a "\\n" line terminator.
    """
    texts = ["".join(col) for col in (header, *columns)]
    if not any(map(_NEEDS_QUOTES.search, texts)):
        lines = chain([",".join(header)], map(",".join, zip(*columns)))
        atomic_write_text(path, "\n".join(lines) + "\n")
        return
    out = io.StringIO()
    quoting = csv.QUOTE_ALL if any("\r" in t for t in texts) else csv.QUOTE_MINIMAL
    csv.writer(out, lineterminator="\n", quoting=quoting).writerows(
        chain([header], zip(*columns)))
    atomic_write_text(path, out.getvalue())


def save_interactions(path: str | Path, records: Sequence[InteractionRecord]) -> None:
    """Write interactions; optional columns appear iff any record uses them."""
    table = Interactions.of(records)
    header = list(REQUIRED_COLUMNS)
    cols = [table.values(name) for name in ("user_id", "item_id", "shop_id")]
    cols.append(list(map(repr, table.label.tolist())))  # int, bool, numpy: as floats
    for name in OPTIONAL_COLUMNS:
        values = table.values(name)
        if any(v is not None for v in values):
            header.append(name)
            cols.append(["" if v is None else str(v) for v in values])
    _write_csv(path, header, cols)


# ---------------------------------------------------------------------------
# task construction
# ---------------------------------------------------------------------------


def check_task_sizes(min_interactions: int, support_size: int) -> None:
    """ConfigError unless every admitted group leaves a support and a query."""
    check_at_least("support_size", support_size, 1)
    if min_interactions <= support_size:
        raise ConfigError(
            f"min_interactions ({min_interactions}) must exceed "
            f"support_size ({support_size}) so queries are never empty"
        )


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
    Each group is in record order (``Interactions.order``). Each task's
    ``split`` reads the call's one table. No record is built: the first read of any
    returned task's support or query builds this call's records in one
    ``records_at`` call, and readers of ``split`` (the trainers) build none.
    Support/query overlap fails here, at the task a hand-built one would;
    only rows that tie on every sort key are built to check it.
    """
    check_task_sizes(min_interactions, support_size)
    table = Interactions.of(records)
    group, keys = table.ranks(f"{task_unit.value}_id")
    order, tied = table.order(group)
    names, sides = [], []
    for rows in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
        if len(rows) < min_interactions:
            continue
        names.append(keys[group[rows[0]]])
        rng = np.random.default_rng([seed, _TAG_TASKS, stable_hash64(names[-1])])
        in_support = np.zeros(len(rows), dtype=bool)
        in_support[rng.permutation(len(rows))[:support_size]] = True
        sides += [rows[in_support], rows[~in_support]]
    if tied.any():  # only rows that tie on every sort key can hold equal records
        for name, *pair in zip(names, sides[::2], sides[1::2]):
            support, query = (set(table.records_at(rows[tied[rows]])) for rows in pair)
            if not support.isdisjoint(query):
                raise DataError(f"task {name!r} has overlapping support/query")
    build = functools.cache(lambda: table.records_at(np.concatenate(sides)))
    ends = np.cumsum([len(rows) for rows in sides]).tolist()
    tasks = []
    for name, support, query, a, b, c in zip(
            names, sides[::2], sides[1::2], [0, *ends[1::2]], ends[::2], ends[1::2]):
        task = object.__new__(ShopTask)  # support and query are built on first read
        task.__dict__.update(shop_id=name, size_class=None, split=(table, support, query),
                             _records=(build, a, b, c))
        tasks.append(task)
    return tasks


def binary_labels(labels: np.ndarray) -> bool:
    """Whether every label of a label column is 0 or 1."""
    return bool(np.isin(labels, (0.0, 1.0)).all())


def purchase_histories(records: Sequence[InteractionRecord]) -> dict[str, tuple[str, ...]]:
    """Each user's purchased items (label > 0), sorted and unique, read from columns."""
    table = Interactions.of(records)
    hist: dict[str, set[str]] = {}
    for user, item, label in zip(*map(table.values, ("user_id", "item_id", "label"))):
        if label > 0:
            hist.setdefault(user, set()).add(item)
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


def classify_shops(
    train_records: Sequence[InteractionRecord],
    test_records: Sequence[InteractionRecord],
) -> ShopStats:
    """Classify test shops (new/small/large) and compute the median rule."""
    train, test = Interactions.of(train_records), Interactions.of(test_records)
    codes, shops = train.column("shop_id")
    sold = np.bincount(codes[train.label > 0], minlength=len(shops)).tolist()
    used, first = np.unique(codes, return_index=True)
    sales: dict[str, int] = {}  # in order of first appearance
    for c in used[np.argsort(first)].tolist():
        sales[shops[c]] = sales.get(shops[c], 0) + sold[c]
    codes, shops = test.column("shop_id")
    test_shops = sorted({shops[c] for c in np.unique(codes).tolist()})
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
    tasks use the test-shop taxonomy. Each copy (``copy.copy``) shares its
    task's ``split`` and reads its support and query (``__getstate__``), so a
    ``build_tasks`` call's records are built here.
    """
    out = []
    for t in tasks:
        if use_taxonomy:
            if t.shop_id not in stats.taxonomy:
                raise DataError(f"shop {t.shop_id!r} missing from the taxonomy")
            cls = stats.taxonomy[t.shop_id]
        else:
            cls = stats.sampling_class(t.shop_id)
        out.append(copy.copy(t))
        object.__setattr__(out[-1], "size_class", cls)
    return out


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------


def check_negative_ratio(ratio: float) -> None:
    """ConfigError unless ``ratio``, negatives per positive, is positive and finite."""
    if not 0 < ratio < math.inf:
        raise ConfigError(f"negative ratio must be positive, got {ratio}")


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
    check_negative_ratio(ratio)
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

    table = Interactions.of(positives)
    ordered = table.records_at(table.order()[0])
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


class _IdTables:
    """``user_raw``/``item_raw`` over the ``users``/``items`` dicts.

    A miss names the id and, for a table read from files, the file of that
    side (``sources``: the user and the item path).
    """

    what = ""

    def user_raw(self, user_id: str) -> Any:
        try:
            return self.users[user_id]
        except KeyError:
            raise self._missing("user", user_id, 0) from None

    def item_raw(self, item_id: str) -> Any:
        try:
            return self.items[item_id]
        except KeyError:
            raise self._missing("item", item_id, 1) from None

    def _missing(self, side: str, key: str, index: int) -> DataError:
        where = f" in {self.sources[index]}" if self.sources else ""
        return DataError(f"no {self.what} for {side} {key!r}{where}")


@dataclass(frozen=True)
class FeatureTable(_IdTables):
    """Pretrained float vectors per user and item id."""

    what = "features"
    users: dict[str, np.ndarray]
    items: dict[str, np.ndarray]
    sources: tuple[Path, Path] | None = None


@dataclass(frozen=True)
class AttributeTable(_IdTables):
    """Categorical attribute dictionaries per user and item id."""

    what = "attributes"
    users: dict[str, dict[str, str]]
    items: dict[str, dict[str, str]]
    sources: tuple[Path, Path] | None = None


def save_latents(
    path: str | Path,
    users: Mapping[str, np.ndarray],
    items: Mapping[str, np.ndarray],
    shop_effects: Mapping[str, np.ndarray] | None = None,
) -> None:
    tables = {"user": users, "item": items, "shop_effect": shop_effects or {}}
    keys = [(kind, key) for kind, table in tables.items() for key in sorted(table)]
    values = np.array([tables[kind][key] for kind, key in keys], dtype=np.float64)
    header = ["kind", "id", *(f"v{i}" for i in range(values.shape[1]))]
    _write_csv(path, header, [*zip(*keys), *(list(map(repr, v)) for v in values.T.tolist())])


def load_latents(path: str | Path) -> tuple[FeatureTable, dict[str, np.ndarray]]:
    """Read a latent file back into (FeatureTable, shop effects).

    The text is parsed once into one float matrix, each id mapping to a row.
    The lowest line with a problem is reported, with the first check it
    fails: width, non-numeric value, unknown kind, non-finite value, repeat.
    """
    path = Path(path)
    header, rows, lines = _read_csv(path)
    if not header or len(header) < 3 or header[:2] != ["kind", "id"]:
        raise DataError(f"{path}: expected a latent file header (kind,id,v0,...)")
    _check_unique_columns(path, header)
    problems, (kinds, ids, *texts) = _columns(header, rows, "wrong field count")
    values = [_parsed(float, column, problems, "non-numeric value") for column in texts]
    matrix = np.ascontiguousarray(np.array(values, np.float64).T)  # nan where non-numeric
    finite = np.isfinite(matrix).all(axis=1).tolist()
    tables: dict[str, dict[str, np.ndarray]] = {"user": {}, "item": {}, "shop_effect": {}}
    for k, (kind, key, vec, ok) in enumerate(zip(kinds, ids, matrix, finite)):
        if kind not in tables:
            problems.setdefault(k, f"unknown kind {kind!r}")
        elif not ok:
            problems.setdefault(k, "non-finite value")
        elif tables[kind].setdefault(key, vec) is not vec:
            problems.setdefault(k, f"repeated {kind} id {key!r}")
    if problems:
        k = min(problems)
        raise DataError(f"{path} line {lines()[k]}: {problems[k]}")
    users, items, shops = tables.values()
    if not users or not items:
        raise DataError(f"{path}: latent file needs user and item rows")
    return FeatureTable(users, items, (path, path)), shops


def save_attributes(path: str | Path, table: Mapping[str, Mapping[str, str]],
                    id_column: str) -> None:
    fields = sorted({f for attrs in table.values() for f in attrs})
    keys = sorted(table)
    _write_csv(path, [id_column, *fields],
               [keys, *([table[key].get(f, "") for key in keys] for f in fields)])


def load_attributes(path: str | Path) -> dict[str, dict[str, str]]:
    path = Path(path)
    header, rows, lines = _read_csv(path)
    if not header or len(header) < 2:
        raise DataError(f"{path}: expected an id column plus attribute columns")
    _check_unique_columns(path, header)
    out: dict[str, dict[str, str]] = {}
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path} line {lines()[k]}: wrong field count")
        if row[0] in out:
            raise DataError(f"{path} line {lines()[k]}: repeated id {row[0]!r}")
        out[row[0]] = dict(zip(header[1:], row[1:]))
    if not out:
        raise DataError(f"{path}: attribute file needs at least one row")
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
        check_at_least("min_shop_size", self.min_shop_size, 2)
        check_at_least("seed", self.seed, 0)


@dataclass(frozen=True)
class SyntheticData:
    train: Interactions
    test: Interactions
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

    # per shop and period: codes in _CODED order (timestamp = clock) and labels
    train: list[tuple[np.ndarray, np.ndarray]] = []
    test: list[tuple[np.ndarray, np.ndarray]] = []
    clock = 0
    for p in range(spec.n_shops):
        n_p = int(sizes[p])
        u_idx = rng.integers(0, spec.n_users, n_p)
        i_idx = shop_items[p][rng.integers(0, len(shop_items[p]), n_p)]
        noise = rng.normal(0.0, spec.noise_std, n_p) if spec.noise_std else np.zeros(n_p)
        scores = np.sum(U[u_idx] * (V[i_idx] + W[p]), axis=1) + noise
        labels = (scores > spec.label_threshold).astype(float)
        codes = np.stack([u_idx, i_idx, np.full(n_p, p), np.arange(clock, clock + n_p),
                          item_genre[i_idx]])
        clock += n_p
        n_train = 0 if p in new_idx else n_p - math.ceil(spec.test_fraction * n_p)
        train.append((codes[:, :n_train], labels[:n_train]))
        test.append((codes[:, n_train:], labels[n_train:]))
    tables = (users, items, shops, np.arange(clock), genres)

    def table(parts: list[tuple[np.ndarray, np.ndarray]]) -> Interactions:
        codes = np.concatenate([c for c, _ in parts], axis=1)
        columns = dict(zip(_CODED, zip(codes, tables)))
        return Interactions(np.concatenate([y for _, y in parts]), columns)

    features = FeatureTable(
        {users[i]: U[i] for i in range(spec.n_users)},
        {items[i]: V[i] for i in range(spec.n_items)},
    )
    effects = {shops[p]: W[p] for p in range(spec.n_shops)}
    new_shops = tuple(sorted(shops[p] for p in new_idx))
    return SyntheticData(table(train), table(test), features, effects, new_shops)


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

    def read_dat(path: Path, n_fields: int, what: str | None = None):
        """("<path> line <n>", fields) for each non-empty line of a .dat file;
        with ``what``, the first field is the id of a ``what`` no earlier line has."""
        text = read_text(path, "", DataError, "latin-1")
        seen: dict[str, str] = {}  # an id: where it first appears
        for line_no, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
            if not line:
                continue
            where, row = f"{path} line {line_no}", line.split("::")
            if len(row) != n_fields:
                raise DataError(f"{where}: {_FIELD_COUNT.format(len(row), n_fields)}")
            if what and (first := seen.setdefault(row[0], where)) is not where:
                raise DataError(f"{where}: duplicate of {first} ({what} {row[0]})")
            yield where, row

    movies: dict[str, tuple[str, int]] = {}
    skipped_year = 0
    for where, (movie_id, title, genre_list) in read_dat(src / "movies.dat", 3, "movie"):
        genre = genre_list.split("|")[0]
        if not genre:
            raise DataError(f"{where}: no genre")
        m = _YEAR_RE.search(title)
        if not m:
            skipped_year += 1
            continue
        movies[movie_id] = (genre, int(m.group(1)))

    users: dict[str, dict[str, str]] = {}
    for _, (uid, gender, age, occupation, zipcode) in read_dat(src / "users.dat", 5, "user"):
        users[f"u{uid}"] = {
            "gender": gender,
            "age": age,
            "occupation": occupation,
            "zip_region": zipcode[:1],
        }

    skipped_rating = 0
    rows = []
    first_seen: dict[tuple[str, str, int], str] = {}
    for where, (uid, movie_id, rating, ts) in read_dat(src / "ratings.dat", 4):
        try:
            value = float(rating)
        except ValueError:
            raise DataError(f"{where}: rating {rating!r} is not a number") from None
        if not 1.0 <= value <= 5.0:
            raise DataError(f"{where}: rating {value} outside [1, 5]")
        try:
            stamp = int(ts)
        except ValueError:
            raise DataError(f"{where}: {_NOT_A_STAMP.format(ts)}") from None
        if movie_id not in movies:
            skipped_rating += 1
            continue
        # the key load_interactions rejects duplicates of in the written file
        first = first_seen.setdefault((uid, movie_id, stamp), where)
        if first is not where:
            raise DataError(
                f"{where}: duplicate of {first} (user {uid}, movie {movie_id})"
            )
        rows.append((uid, movie_id, value, stamp))
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

    def table(split: list[tuple]) -> Interactions:
        user, item, shop, label, stamp, genre = zip(*split) if split else [()] * 6
        coded = map(_first_appearance_codes, (user, item, shop, stamp, genre))
        return Interactions(np.array(label, np.float64), dict(zip(_CODED, coded)))

    splits: tuple[list, list] = ([], [])  # train, test: rows of fields in _FIELDS order
    for uid, movie_id, rating, ts in rows:
        genre, year = movies[movie_id]
        splits[genre in holdout or year >= train_before_year].append(
            (f"u{uid}", f"m{movie_id}", genre, rating, ts, genre))
    train, test = map(table, splits)

    item_attrs = {
        f"m{mid}": {"year": str(year), "genre": genre}
        for mid, (genre, year) in movies.items()
    }
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
