"""Dense matrices over ``GF(2^m)``.

The equality-check machinery of the paper is pure linear algebra over a binary
extension field: per-edge coding matrices ``C_e``, their block expansions
``B_e`` and ``C_H``, and the rank / invertibility arguments of Appendix C.
This module provides the dense-matrix toolkit those computations need —
multiplication, transpose, horizontal/vertical stacking, Gaussian elimination
(rank, determinant, inverse, solving), and random sampling.

Matrices are stored as lists of row lists of plain integers, the same element
representation used by :class:`repro.gf.field.GF2m` — except a matrix drawn
from a seed on a field whose kernel backend draws limbs (``native``), which
*is* its limb buffer and builds the row lists only if something reads entries.

Performance notes:
    The hot kernels (``matmul``, ``vecmat``, Gaussian elimination) bind the
    field's log/antilog tables to local names and work on the flat row lists
    directly, so the inner loops contain no attribute or method dispatch.
    Results produced by internal operations are wrapped with the trusted
    constructor :meth:`GFMatrix._trusted`, which skips the per-entry
    re-validation the public constructor performs on external data.  Fields
    too large for tables (degree > 16) transparently use the windowed
    big-field kernels instead; both paths compute identical field values.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Iterable, List, Sequence

from repro.exceptions import MatrixError
from repro.gf.field import GF2m
from repro.gf.polynomials import stack_slots, window_table


def _scan_window_table(table: List[int], factor: int) -> int:
    """Fold ``factor`` byte-by-byte through a prebuilt window table."""
    product = 0
    for byte in factor.to_bytes((factor.bit_length() + 7) // 8, "big"):
        product = (product << 8) ^ table[byte]
    return product


class GFMatrix:
    """A dense ``rows x cols`` matrix over a :class:`GF2m` field.

    Instances are immutable from the caller's point of view: all operations
    return new matrices.  Construction validates that every entry lies in the
    field and that the rows are rectangular.
    """

    #: ``_limbs`` is the row-major limb buffer of a matrix born as one
    #: (:meth:`_from_limbs`), else ``None``; ``_stacked`` / ``_kctx`` are what
    #: the field's kernels cache on the matrix.
    __slots__ = ("field", "rows", "cols", "_data", "_limbs", "_stacked", "_kctx")

    def __init__(self, field: GF2m, data: Sequence[Sequence[int]]) -> None:
        rows = [list(row) for row in data]
        if not rows or not rows[0]:
            raise MatrixError("matrices must have at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise MatrixError("ragged rows: all rows must have the same length")
            for entry in row:
                field.validate(entry)
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self._data = rows
        self._limbs = None
        self._stacked = None
        self._kctx = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def _trusted(cls, field: GF2m, rows: List[List[int]]) -> "GFMatrix":
        """Internal constructor for already-validated row lists.

        Skips the copy and the per-entry validation of ``__init__``; the rows
        are adopted as-is, so callers must hand over freshly built lists they
        will not mutate afterwards.
        """
        matrix = object.__new__(cls)
        matrix.field = field
        matrix.rows = len(rows)
        matrix.cols = len(rows[0])
        matrix._data = rows
        matrix._limbs = None
        matrix._stacked = None
        matrix._kctx = None
        return matrix

    @classmethod
    def _from_limbs(cls, field: GF2m, rows: int, cols: int, limbs) -> "GFMatrix":
        """Internal constructor for a matrix that is its limb buffer.

        ``limbs`` holds the entries row-major, each ``len(limbs) // (rows *
        cols)`` little-endian bytes, and is adopted as-is.  ``_data`` stays
        unset until :meth:`__getattr__` is asked for it.
        """
        matrix = object.__new__(cls)
        matrix.field = field
        matrix.rows = rows
        matrix.cols = cols
        matrix._limbs = limbs
        matrix._stacked = None
        matrix._kctx = None
        return matrix

    def __getattr__(self, name: str):
        # Reached only for an unset slot, so only for the ``_data`` of a
        # limb-resident matrix: the first reader of entries builds them, once.
        if name != "_data":
            raise AttributeError(name)
        view, cols = memoryview(self._limbs), self.cols
        width = len(view) // (self.rows * cols)
        entries = [
            int.from_bytes(view[start : start + width], "little")
            for start in range(0, len(view), width)
        ]
        self._data = [entries[start : start + cols] for start in range(0, len(entries), cols)]
        return self._data

    @classmethod
    def _hconcat(cls, matrices: Sequence["GFMatrix"]) -> "GFMatrix":
        """Column-wise concatenation of already-checked matrices (one field,
        one row count): of their limb rows when every one has them."""
        field, rows = matrices[0].field, matrices[0].rows
        if any(matrix._limbs is None for matrix in matrices):
            data = [matrix._data for matrix in matrices]
            return cls._trusted(field, [list(chain.from_iterable(parts)) for parts in zip(*data)])
        views = [memoryview(matrix._limbs) for matrix in matrices]
        steps = [len(view) // rows for view in views]
        limbs = b"".join(
            [
                view[row * step : (row + 1) * step]
                for row in range(rows)
                for view, step in zip(views, steps)
            ]
        )
        return cls._from_limbs(field, rows, sum(matrix.cols for matrix in matrices), limbs)

    @classmethod
    def zeros(cls, field: GF2m, rows: int, cols: int) -> "GFMatrix":
        """An all-zero matrix of the given shape."""
        if rows < 1 or cols < 1:
            raise MatrixError(f"invalid shape ({rows}, {cols})")
        return cls._trusted(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: GF2m, size: int) -> "GFMatrix":
        """The ``size x size`` identity matrix."""
        if size < 1:
            raise MatrixError(f"identity size must be >= 1, got {size}")
        return cls._trusted(
            field, [[1 if r == c else 0 for c in range(size)] for r in range(size)]
        )

    @classmethod
    def from_rows(cls, field: GF2m, rows: Sequence[Sequence[int]]) -> "GFMatrix":
        """Alias of the constructor, for readability at call sites."""
        return cls(field, rows)

    @classmethod
    def row_vector(cls, field: GF2m, entries: Sequence[int]) -> "GFMatrix":
        """A ``1 x n`` matrix from a sequence of entries."""
        return cls(field, [list(entries)])

    @classmethod
    def column_vector(cls, field: GF2m, entries: Sequence[int]) -> "GFMatrix":
        """An ``n x 1`` matrix from a sequence of entries."""
        return cls(field, [[entry] for entry in entries])

    @classmethod
    def random(
        cls, field: GF2m, rows: int, cols: int, rng: "random.Random | int"
    ) -> "GFMatrix":
        """A matrix whose entries are independent uniform field elements.

        ``rng`` is the generator to draw from, or an integer seed standing for
        a fresh ``random.Random(seed)``: the entries are the same, but with
        no generator to advance a kernel backend may draw them itself,
        straight into the limb buffer its products read.
        """
        if rows < 1 or cols < 1:
            raise MatrixError(f"invalid shape ({rows}, {cols})")
        if isinstance(rng, int):
            kernel = field._kernel
            limbs = kernel.draw_limbs(rng, rows * cols) if kernel is not None else None
            if limbs is not None:
                return cls._from_limbs(field, rows, cols, limbs)
            rng = random.Random(rng)
        return cls._trusted(field, [field.random_vector(cols, rng) for _ in range(rows)])

    # ---------------------------------------------------------------- accessors

    def entry(self, row: int, col: int) -> int:
        """Return the entry at ``(row, col)`` (0-based)."""
        return self._data[row][col]

    def row(self, index: int) -> List[int]:
        """Return a copy of row ``index``."""
        return list(self._data[index])

    def column(self, index: int) -> List[int]:
        """Return a copy of column ``index``."""
        return [row[index] for row in self._data]

    def to_lists(self) -> List[List[int]]:
        """Return the matrix contents as a list of row lists (a copy)."""
        return [list(row) for row in self._data]

    @property
    def shape(self) -> tuple[int, int]:
        """The ``(rows, cols)`` shape tuple."""
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        """Return ``True`` iff every entry is zero."""
        return all(entry == 0 for row in self._data for entry in row)

    # --------------------------------------------------------------- operations

    def _require_same_field(self, other: "GFMatrix") -> None:
        if self.field != other.field:
            raise MatrixError("matrices belong to different fields")

    def add(self, other: "GFMatrix") -> "GFMatrix":
        """Entry-wise sum (XOR) of two equal-shape matrices."""
        self._require_same_field(other)
        if self.shape != other.shape:
            raise MatrixError(f"shape mismatch for add: {self.shape} vs {other.shape}")
        return GFMatrix._trusted(
            self.field,
            [
                [a ^ b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self._data, other._data)
            ],
        )

    def scalar_mul(self, scalar: int) -> "GFMatrix":
        """Multiply every entry by a field scalar."""
        self.field.validate(scalar)
        if scalar == 0:
            return GFMatrix.zeros(self.field, self.rows, self.cols)
        if scalar == 1:
            return GFMatrix._trusted(self.field, [list(row) for row in self._data])
        tables = self.field.tables()
        if tables is not None:
            exp, log, _ = tables
            log_scalar = log[scalar]
            data = [
                [exp[log_scalar + log[entry]] if entry else 0 for entry in row]
                for row in self._data
            ]
        else:
            mul = self.field._mul_big
            data = [[mul(scalar, entry) for entry in row] for row in self._data]
        return GFMatrix._trusted(self.field, data)

    def matmul_loop(self, other: "GFMatrix") -> "GFMatrix":
        """Per-symbol matrix product: the frozen correctness oracle.

        One field multiplication per ``(row, column, inner)`` triple, exactly
        the pre-vectorisation kernel.  Retained verbatim so :meth:`matmul`
        (hoisted small-field logs, stacked big-field passes) has a fixed
        reference to be property-tested and benchmarked against.  Hot paths
        should call :meth:`matmul`.
        """
        self._require_same_field(other)
        if self.cols != other.rows:
            raise MatrixError(f"shape mismatch for matmul: {self.shape} @ {other.shape}")
        columns = list(zip(*other._data))
        product: List[List[int]] = []
        tables = self.field.tables()
        if tables is not None:
            exp, log, _ = tables
            for row in self._data:
                product_row = []
                for col in columns:
                    accumulator = 0
                    for a, b in zip(row, col):
                        if a and b:
                            accumulator ^= exp[log[a] + log[b]]
                    product_row.append(accumulator)
                product.append(product_row)
        else:
            mul = self.field._mul_big
            for row in self._data:
                product_row = []
                for col in columns:
                    accumulator = 0
                    for a, b in zip(row, col):
                        if a and b:
                            accumulator ^= mul(a, b)
                    product_row.append(accumulator)
                product.append(product_row)
        return GFMatrix._trusted(self.field, product)

    def matmul(self, other: "GFMatrix") -> "GFMatrix":
        """Matrix product ``self @ other``.

        Small-degree fields hoist the log-table lookups of both shared
        operands out of the inner loop (the logs of every column of ``other``
        are precomputed once per product, the logs of each row of ``self``
        once per row pass).  Big fields route every result row through the
        stacked :meth:`vecmat` kernel of ``other``, whose cached stacked rows
        and window tables are shared across all rows of ``self``.  Identical
        values to :meth:`matmul_loop` (the frozen per-symbol oracle).

        Raises:
            MatrixError: if the inner dimensions do not agree.
        """
        self._require_same_field(other)
        if self.cols != other.rows:
            raise MatrixError(f"shape mismatch for matmul: {self.shape} @ {other.shape}")
        tables = self.field.tables()
        if tables is None:
            product = [other._vecmat_big(row) for row in self._data]
            return GFMatrix._trusted(self.field, product)
        exp, log, _ = tables
        # Hoisted log lookups: -1 marks a zero entry (log[0] is a placeholder).
        log_columns = [
            [log[entry] if entry else -1 for entry in col] for col in zip(*other._data)
        ]
        product = []
        for row in self._data:
            row_logs = [log[entry] if entry else -1 for entry in row]
            product_row = []
            for col_logs in log_columns:
                accumulator = 0
                for log_a, log_b in zip(row_logs, col_logs):
                    if log_a >= 0 and log_b >= 0:
                        accumulator ^= exp[log_a + log_b]
                product_row.append(accumulator)
            product.append(product_row)
        return GFMatrix._trusted(self.field, product)

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        return self.matmul(other)

    # ------------------------------------------------------- stacked kernels

    def _stacked_rows(self):
        """Each row packed into guard-spaced slot windows, built lazily.

        Matrices are immutable, so the packing (and the window tables the
        field caches for it) is computed once per matrix and shared by every
        :meth:`vecmat` / :meth:`matmul` call.  Columns are split into windows
        of at most ``field._slot_cap`` slots; returns ``(window_sizes,
        stacked)`` with ``stacked[row][window]`` the packed integer.
        """
        cached = self._stacked
        if cached is None:
            field = self.field
            stride = field._stride
            cap = field._slot_cap
            bounds = [
                (start, min(start + cap, self.cols))
                for start in range(0, self.cols, cap)
            ]
            stacked = [
                [stack_slots(row[lo:hi], stride) for lo, hi in bounds]
                for row in self._data
            ]
            cached = self._stacked = ([hi - lo for lo, hi in bounds], stacked)
        return cached

    def _vecmat_big(self, vector: Sequence[int]) -> List[int]:
        """Stacked ``vector @ self`` for big fields (no input validation).

        One *fused* windowed pass per column window: every non-zero symbol's
        byte stream is scanned in lockstep against its cached stacked-row
        table, so the wide accumulator is shifted once per byte position
        (instead of once per symbol and byte position) and the raw products
        of all rows accumulate in place; the window is then reduced with a
        single masked fold sweep.  Compare one windowed multiplication per
        (symbol, column) pair in :meth:`vecmat_loop`.
        """
        field = self.field
        kernel = field._kernel
        if kernel is not None:
            hooked = kernel.vecmat(self, vector)
            if hooked is not None:
                return hooked
        width = field._stride // 8
        sizes, stacked_rows = self._stacked_rows()
        value_bytes = (field.degree + 7) // 8
        stacked_table = field._stacked_table
        result: List[int] = []
        for index, count in enumerate(sizes):
            packed = count * width
            pairs = []
            for value, row_windows in zip(vector, stacked_rows):
                if value:
                    stacked = row_windows[index]
                    if stacked:
                        pairs.append(
                            (
                                stacked_table(stacked, packed),
                                value.to_bytes(value_bytes, "big"),
                            )
                        )
            if not pairs:
                result.extend([0] * count)
                continue
            accumulator = 0
            if len(pairs) == 1:
                table, stream = pairs[0]
                for byte in stream:
                    accumulator = (accumulator << 8) ^ table[byte]
            else:
                tables = [table for table, _stream in pairs]
                streams = [stream for _table, stream in pairs]
                for position in zip(*streams):
                    accumulator <<= 8
                    for table, byte in zip(tables, position):
                        if byte:
                            accumulator ^= table[byte]
            if accumulator:
                result.extend(field._reduce_stacked(accumulator, count))
            else:
                result.extend([0] * count)
        return result

    def vecmat_loop(self, vector: Sequence[int]) -> List[int]:
        """Per-symbol ``vector @ self``: the frozen correctness oracle.

        One field multiplication per (symbol, column) pair — the
        pre-vectorisation encode kernel, retained verbatim as the reference
        for :meth:`vecmat` and the benchmarks.  Hot paths use :meth:`vecmat`.

        Raises:
            MatrixError: if ``len(vector)`` does not equal the row count.
        """
        if len(vector) != self.rows:
            raise MatrixError(
                f"vecmat length mismatch: vector of {len(vector)} vs {self.rows} rows"
            )
        validate = self.field.validate
        for value in vector:
            validate(value)
        result = [0] * self.cols
        tables = self.field.tables()
        if tables is not None:
            exp, log, _ = tables
            for value, row in zip(vector, self._data):
                if value:
                    log_value = log[value]
                    for index, entry in enumerate(row):
                        if entry:
                            result[index] ^= exp[log_value + log[entry]]
        else:
            mul = self.field._mul_big
            for value, row in zip(vector, self._data):
                if value:
                    for index, entry in enumerate(row):
                        if entry:
                            result[index] ^= mul(value, entry)
        return result

    def vecmat(self, vector: Sequence[int]) -> List[int]:
        """Row-vector-times-matrix product ``vector @ self`` as a plain list.

        The workhorse of per-edge encoding (``Y_e = X_i C_e``): one output
        symbol per column, without building intermediate 1 x n matrices.
        Small-degree fields keep the log/exp loop (the scalar's log hoisted);
        big fields run the stacked kernel — the whole column batch moves per
        windowed pass, not per symbol.  Identical values to
        :meth:`vecmat_loop` (the frozen per-symbol oracle).

        Raises:
            MatrixError: if ``len(vector)`` does not equal the row count.
        """
        if len(vector) != self.rows:
            raise MatrixError(
                f"vecmat length mismatch: vector of {len(vector)} vs {self.rows} rows"
            )
        validate = self.field.validate
        for value in vector:
            validate(value)
        tables = self.field.tables()
        if tables is None:
            return self._vecmat_big(vector)
        exp, log, _ = tables
        result = [0] * self.cols
        for value, row in zip(vector, self._data):
            if value:
                log_value = log[value]
                for index, entry in enumerate(row):
                    if entry:
                        result[index] ^= exp[log_value + log[entry]]
        return result

    def matvec_batch(self, vectors: Sequence[Sequence[int]]) -> List[List[int]]:
        """Matrix-times-vector for a whole batch: ``[self @ x for x in vectors]``.

        Big fields stack the batch *across vectors*: for each matrix column
        ``j`` the batch's ``j``-th components are packed into one guard-spaced
        integer, its window table is built once, and every matrix entry of
        column ``j`` is folded through it — one windowed pass per (entry,
        batch window) instead of one multiplication per (entry, vector).
        Small-degree fields run the hoisted log/exp loop per vector.

        Raises:
            MatrixError: if any vector's length does not equal the column
                count.
        """
        batch = [list(vector) for vector in vectors]
        validate = self.field.validate
        for vector in batch:
            if len(vector) != self.cols:
                raise MatrixError(
                    f"matvec length mismatch: vector of {len(vector)} vs {self.cols} columns"
                )
            for value in vector:
                validate(value)
        if not batch:
            return []
        tables = self.field.tables()
        if tables is not None:
            exp, log, _ = tables
            results = []
            for vector in batch:
                vec_logs = [log[value] if value else -1 for value in vector]
                output = []
                for row in self._data:
                    accumulator = 0
                    for entry, log_b in zip(row, vec_logs):
                        if entry and log_b >= 0:
                            accumulator ^= exp[log[entry] + log_b]
                    output.append(accumulator)
                results.append(output)
            return results
        field = self.field
        stride = field._stride
        cap = field._slot_cap
        results = [[] for _ in batch]
        for start in range(0, len(batch), cap):
            window = batch[start : start + cap]
            count = len(window)
            # One stacked integer (and window table) per matrix column.
            column_tables = []
            for col in range(self.cols):
                stacked = stack_slots([vector[col] for vector in window], stride)
                column_tables.append(window_table(stacked) if stacked else None)
            reduced_rows = []
            for row in self._data:
                accumulator = 0
                for entry, table in zip(row, column_tables):
                    if entry and table is not None:
                        accumulator ^= _scan_window_table(table, entry)
                reduced_rows.append(field._reduce_stacked(accumulator, count))
            for offset in range(count):
                target = results[start + offset]
                for reduced in reduced_rows:
                    target.append(reduced[offset])
        return results

    def vecmat_batch(self, vectors: Sequence[Sequence[int]]) -> List[List[int]]:
        """Vector-times-matrix for a whole batch: ``[x @ self for x in vectors]``.

        Big fields stack the batch across vectors: the ``i``-th symbols of
        every vector pack into one guard-spaced integer whose window table is
        shared by all columns — one windowed pass per (matrix entry, batch
        window) instead of one multiplication per (entry, vector).
        Small-degree fields run the log/exp loop per vector.

        Raises:
            MatrixError: if any vector's length does not equal the row count.
        """
        batch = [list(vector) for vector in vectors]
        for vector in batch:
            if len(vector) != self.rows:
                raise MatrixError(
                    f"vecmat length mismatch: vector of {len(vector)} vs {self.rows} rows"
                )
        if not batch:
            return []
        if self.field.tables() is not None:
            return [self.vecmat(vector) for vector in batch]
        validate = self.field.validate
        for vector in batch:
            for value in vector:
                validate(value)
        field = self.field
        stride = field._stride
        cap = field._slot_cap
        results = [[] for _ in batch]
        for start in range(0, len(batch), cap):
            window = batch[start : start + cap]
            count = len(window)
            row_tables = []
            for row_index in range(self.rows):
                stacked = stack_slots([vector[row_index] for vector in window], stride)
                row_tables.append(window_table(stacked) if stacked else None)
            for col in range(self.cols):
                accumulator = 0
                for row, table in zip(self._data, row_tables):
                    entry = row[col]
                    if entry and table is not None:
                        accumulator ^= _scan_window_table(table, entry)
                reduced = field._reduce_stacked(accumulator, count)
                for offset in range(count):
                    results[start + offset].append(reduced[offset])
        return results

    def transpose(self) -> "GFMatrix":
        """The transposed matrix."""
        return GFMatrix._trusted(self.field, [list(col) for col in zip(*self._data)])

    def hstack(self, other: "GFMatrix") -> "GFMatrix":
        """Concatenate another matrix with the same row count to the right."""
        self._require_same_field(other)
        if self.rows != other.rows:
            raise MatrixError(f"hstack row mismatch: {self.rows} vs {other.rows}")
        return GFMatrix._hconcat((self, other))

    def vstack(self, other: "GFMatrix") -> "GFMatrix":
        """Concatenate another matrix with the same column count below."""
        self._require_same_field(other)
        if self.cols != other.cols:
            raise MatrixError(f"vstack column mismatch: {self.cols} vs {other.cols}")
        return GFMatrix._trusted(
            self.field,
            [list(row) for row in self._data] + [list(row) for row in other._data],
        )

    def submatrix(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> "GFMatrix":
        """Extract the submatrix with the given row and column indices."""
        row_list = list(row_indices)
        col_list = list(col_indices)
        if not row_list or not col_list:
            raise MatrixError("submatrix requires at least one row and one column index")
        data = self._data
        return GFMatrix._trusted(
            self.field, [[data[r][c] for c in col_list] for r in row_list]
        )

    # ------------------------------------------------------ Gaussian elimination

    def _eliminated(self) -> tuple[List[List[int]], List[int], int]:
        """Run Gaussian elimination; return (echelon rows, pivot columns, swaps).

        The elimination is performed over a copy; the original is unchanged.
        """
        tables = self.field.tables()
        work = [list(row) for row in self._data]
        pivot_cols: List[int] = []
        swaps = 0
        pivot_row = 0
        row_count = self.rows
        if tables is not None:
            exp, log, inv = tables
            for col in range(self.cols):
                pivot = None
                for r in range(pivot_row, row_count):
                    if work[r][col] != 0:
                        pivot = r
                        break
                if pivot is None:
                    continue
                if pivot != pivot_row:
                    work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
                    swaps += 1
                pivot_value = work[pivot_row][col]
                if pivot_value != 1:
                    log_inv = log[inv[pivot_value]]
                    work[pivot_row] = [
                        exp[log_inv + log[entry]] if entry else 0
                        for entry in work[pivot_row]
                    ]
                pivot_entries = work[pivot_row]
                for r in range(row_count):
                    if r != pivot_row:
                        factor = work[r][col]
                        if factor:
                            log_factor = log[factor]
                            work[r] = [
                                entry ^ exp[log_factor + log[p]] if p else entry
                                for entry, p in zip(work[r], pivot_entries)
                            ]
                pivot_cols.append(col)
                pivot_row += 1
                if pivot_row == row_count:
                    break
        else:
            field = self.field
            for col in range(self.cols):
                pivot = None
                for r in range(pivot_row, row_count):
                    if work[r][col] != 0:
                        pivot = r
                        break
                if pivot is None:
                    continue
                if pivot != pivot_row:
                    work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
                    swaps += 1
                pivot_value = work[pivot_row][col]
                inv_pivot = field.inv(pivot_value)
                work[pivot_row] = [field.mul(inv_pivot, entry) for entry in work[pivot_row]]
                for r in range(row_count):
                    if r != pivot_row and work[r][col] != 0:
                        factor = work[r][col]
                        work[r] = [
                            entry ^ field.mul(factor, pivot_entry)
                            for entry, pivot_entry in zip(work[r], work[pivot_row])
                        ]
                pivot_cols.append(col)
                pivot_row += 1
                if pivot_row == row_count:
                    break
        return work, pivot_cols, swaps

    def rank(self) -> int:
        """The rank of the matrix over the field."""
        _, pivot_cols, _ = self._eliminated()
        return len(pivot_cols)

    def determinant(self) -> int:
        """The determinant of a square matrix.

        Raises:
            MatrixError: if the matrix is not square.
        """
        if self.rows != self.cols:
            raise MatrixError(f"determinant requires a square matrix, got {self.shape}")
        tables = self.field.tables()
        work = [list(row) for row in self._data]
        det = 1
        if tables is not None:
            exp, log, inv = tables
            for col in range(self.cols):
                pivot = None
                for r in range(col, self.rows):
                    if work[r][col] != 0:
                        pivot = r
                        break
                if pivot is None:
                    return 0
                if pivot != col:
                    work[col], work[pivot] = work[pivot], work[col]
                    # In characteristic 2, swapping rows does not change the sign.
                pivot_value = work[col][col]
                det = exp[log[det] + log[pivot_value]]
                log_inv = log[inv[pivot_value]]
                pivot_entries = work[col]
                for r in range(col + 1, self.rows):
                    below = work[r][col]
                    if below:
                        log_factor = log[exp[log[below] + log_inv]]
                        work[r] = [
                            entry ^ exp[log_factor + log[p]] if p else entry
                            for entry, p in zip(work[r], pivot_entries)
                        ]
        else:
            field = self.field
            for col in range(self.cols):
                pivot = None
                for r in range(col, self.rows):
                    if work[r][col] != 0:
                        pivot = r
                        break
                if pivot is None:
                    return 0
                if pivot != col:
                    work[col], work[pivot] = work[pivot], work[col]
                pivot_value = work[col][col]
                det = field.mul(det, pivot_value)
                inv_pivot = field.inv(pivot_value)
                for r in range(col + 1, self.rows):
                    if work[r][col] != 0:
                        factor = field.mul(work[r][col], inv_pivot)
                        work[r] = [
                            entry ^ field.mul(factor, pivot_entry)
                            for entry, pivot_entry in zip(work[r], work[col])
                        ]
        return det

    def is_invertible(self) -> bool:
        """Return ``True`` iff the matrix is square with full rank."""
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "GFMatrix":
        """The matrix inverse.

        Raises:
            MatrixError: if the matrix is not square or is singular.
        """
        if self.rows != self.cols:
            raise MatrixError(f"inverse requires a square matrix, got {self.shape}")
        augmented = self.hstack(GFMatrix.identity(self.field, self.rows))
        reduced, pivot_cols, _ = augmented._eliminated()
        if pivot_cols[: self.rows] != list(range(self.rows)) or len(pivot_cols) < self.rows:
            raise MatrixError("matrix is singular and has no inverse")
        return GFMatrix._trusted(self.field, [row[self.cols :] for row in reduced])

    def solve(self, rhs: "GFMatrix") -> "GFMatrix":
        """Solve ``self @ X = rhs`` for a square, invertible ``self``.

        Raises:
            MatrixError: if shapes are incompatible or the matrix is singular.
        """
        self._require_same_field(rhs)
        if self.rows != rhs.rows:
            raise MatrixError(f"solve row mismatch: {self.rows} vs {rhs.rows}")
        return self.inverse().matmul(rhs)

    def null_space_dimension(self) -> int:
        """Dimension of the right null space (``cols - rank``)."""
        return self.cols - self.rank()

    # ------------------------------------------------------------------- dunder

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GFMatrix)
            and other.field == self.field
            and other._data == self._data
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(tuple(row) for row in self._data)))

    def __repr__(self) -> str:
        return f"GFMatrix(field={self.field!r}, shape={self.shape})"
