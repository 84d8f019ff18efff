"""Exception types shared across the package."""


class HvError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HvError, ValueError):
    """Invalid hypervector dimension (zero, negative, or odd where even is required)."""


class ShapeError(HvError, ValueError):
    """Mismatched array shapes or feature counts."""


class ConstraintError(HvError, ValueError):
    """A flip budget violates the per-feature feasibility constraint."""


class DataError(HvError, ValueError):
    """Bad input data: non-finite values, out-of-range labels, empty sets."""


class ParseError(HvError, ValueError):
    """Malformed CSV input; message names the offending line or cell."""


class FormatError(HvError, ValueError):
    """Corrupt or incompatible serialized model file."""


class ConfigError(HvError, ValueError):
    """Invalid run settings (GA parameters, level count, grid size) or config file."""
