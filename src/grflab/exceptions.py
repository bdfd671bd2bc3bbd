"""Exception types shared across the package."""


class GrflabError(Exception):
    """Base class for grflab errors."""


class OrderUnsupportedError(GrflabError):
    """A derivative order beyond the implemented one was requested."""


class DomainError(GrflabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class IllConditionedError(GrflabError):
    """A linear solve was refused because the system is numerically unreliable."""


class SchemaError(GrflabError, ValueError):
    """Input JSON failed schema validation.

    ``pointer`` holds a JSON pointer to the offending location.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer else message)
        self.pointer = pointer or "/"
