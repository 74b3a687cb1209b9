"""Exception types shared across the library."""


class QrankError(Exception):
    """Base class for all library errors."""


class NonPrimeCharacteristic(QrankError):
    pass


class ReducibleModulus(QrankError):
    pass


class DivisionByZero(QrankError):
    pass


class ShapeMismatch(QrankError):
    pass


class LengthMismatch(QrankError):
    pass


class AmbientMismatch(QrankError):
    pass


class MalformedCode(QrankError):
    pass


class InvalidValue(QrankError):
    """A parameter or entry outside its domain."""


class BudgetExceeded(QrankError):
    pass


class ZeroCode(QrankError):
    pass


class NonIntegralResult(QrankError):
    pass


class NegativeExponent(QrankError):
    pass
