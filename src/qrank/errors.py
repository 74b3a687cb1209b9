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


class InvalidValue(QrankError, ValueError):
    """A parameter or entry outside its domain."""


class BudgetExceeded(QrankError):
    """A request refused for its size, by `check_limit` alone."""


def check_limit(size, limit: int, template: str, e: int, fields: dict) -> int:
    """`size` when it is at most `limit`, else BudgetExceeded with `template`
    formatted from size, limit and `fields`, and only then.  `size` is an
    int, or a callable that forms it, with lower bound 2^e: a callable is
    not called once 2^e reaches limit^2, so a size far above the limit is
    refused unformed and one just above it is named exactly.  A size
    unformed or too long for str() reads `more_than(e)`, a field that long
    "(more than 2^b)" with 2^b at most the field."""
    if callable(size):
        size = size() if e < 2 * limit.bit_length() else None
    if size is not None and size <= limit:
        return size
    try:
        text = {"size": more_than(e) if size is None else str(size)}
    except ValueError:  # str() refuses an int of more than 4300 digits
        text = {"size": more_than(e)}
    for name, value in dict(fields, limit=limit).items():
        try:
            text[name] = str(value)
        except ValueError:
            text[name] = f"({more_than(value.bit_length() - 1)})"
    raise BudgetExceeded(template.format_map(text))


def more_than(e: int) -> str:
    """"more than 2^e", or, when e itself is too long for str(), "more than
    2^(2^b)" with 2^b <= e."""
    try:
        return f"more than 2^{e}"
    except ValueError:
        return f"more than 2^(2^{e.bit_length() - 1})"


class ZeroCode(QrankError):
    pass


class NonIntegralResult(QrankError):
    pass


class NegativeExponent(QrankError):
    pass
