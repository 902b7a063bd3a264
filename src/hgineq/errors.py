"""Exception types shared across the package."""


class HgineqError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(HgineqError, ValueError):
    """A numeric or structural parameter is outside its admissible range."""


class UnsupportedGroupError(HgineqError, ValueError):
    """Unknown group id, or dilation weights that are not positive and finite."""


class IncompatibleNormError(HgineqError, ValueError):
    """Requested quasi-norm is not defined on the given group."""


class MissingDerivativeError(HgineqError, ValueError):
    """An analytic derivative was requested from an object that has none."""


class SingularPointError(HgineqError, ValueError):
    """Pointwise operation requested at the group origin."""


class SingularSupportError(HgineqError, ValueError):
    """Field support touches the origin while a singular weight is active."""


class UnsupportedDomainError(HgineqError, ValueError):
    """Integration requested without a usable bounded domain."""


class DegenerateConstantError(HgineqError, ValueError):
    """A constant's defining product contains a zero factor.

    ``factor_index`` records which factor (0-based) vanished.
    """

    def __init__(self, message, factor_index=None):
        super().__init__(message)
        self.factor_index = factor_index


class OutsidePureRegionError(HgineqError, ValueError):
    """Pointwise extremizer diagnostic requested outside the carrier annulus."""


class ConfigError(HgineqError, ValueError):
    """Run configuration file or CLI overrides are malformed."""
