"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A config file, flag or synth spec is invalid, or a run config cannot
    be carried out on its dataset (exit 2 at the CLI)."""


class VacuousBoundError(ValueError):
    """The closed-form hitting bound gives no guarantee (p_s <= 0).

    Carries the intermediate quantities so callers can report why the
    bound degenerated and pick a larger k or chi.
    """

    def __init__(self, eta, zeta, p_s):
        self.eta = eta
        self.zeta = zeta
        self.p_s = p_s
        super().__init__(
            f"vacuous bound: p_s={p_s:.6f} <= 0 (eta={eta:.6f}, zeta={zeta:.6f}); "
            "increase the class count k or the smoothing floor chi"
        )


class InsufficientItemsError(ValueError):
    """A sampler was asked for more items than the stream provides."""

    def __init__(self, available, requested):
        self.available = available
        self.requested = requested
        super().__init__(f"requested {requested} items but only {available} available")


class InsufficientClassInstancesError(ConfigError):
    """A class has fewer instances than its initial-labeling quota."""

    def __init__(self, class_index, available, required):
        self.class_index = class_index
        self.available = available
        self.required = required
        super().__init__(
            f"class {class_index} has {available} instances, "
            f"needs {required} for the initial labeled set; lower n0"
        )


class InfeasibleSpecError(ValueError):
    """A synthetic dataset spec cannot be realized (e.g. beta*n < 1)."""


class DataFormatError(ValueError):
    """An input file cannot be read or is malformed (exit 3 at the CLI)."""


class EmptyFileError(DataFormatError):
    def __init__(self, path):
        self.path = path
        super().__init__(f"{path}: file is empty or has no header row")


class MissingColumnError(DataFormatError):
    def __init__(self, path, column):
        self.path = path
        self.column = column
        super().__init__(f"{path}: column {column!r} not found in header")


class NonNumericCellError(DataFormatError):
    """A feature cell failed to parse as a finite number.

    `row` is the zero-based data-row index (the header does not count).
    """

    def __init__(self, path, row, col, value):
        self.path = path
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"{path}: non-numeric cell {value!r} at row={row}, col={col!r}")
