"""Exception hierarchy shared by all aespace modules."""


class AespaceError(Exception):
    """Base class for all errors raised by this package."""


class RecordError(AespaceError):
    """A record violates a field constraint; names the offending field."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


class ParseError(AespaceError):
    """A line of an input file is bad (JSON, fields, width, a non-finite frame); carries its number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(AespaceError):
    """A config value is out of bounds: raised while a config or encoder is built."""


class InputError(AespaceError):
    """The data does not fit: a wrong shape or width, too few items, or a non-finite value."""


class NonFiniteError(AespaceError):
    """Model output overflowed to a NaN or infinite value for ``count`` of ``total`` inputs.

    ``first`` is the index of the first such input.
    """

    def __init__(self, count, total, first):
        super().__init__(
            f"model output is not finite for {count} of {total} input(s) (first: input {first})")
        self.count = count
        self.total = total
        self.first = first


class SamplerStarvationError(AespaceError):
    """No triplet was accepted within the proposal budget."""

    def __init__(self, proposals, acceptance_rate):
        super().__init__(
            f"no acceptable triplet within {proposals} proposals "
            f"(overall acceptance rate {acceptance_rate:.3g})"
        )
        self.proposals = proposals
        self.acceptance_rate = acceptance_rate


class DivergenceError(AespaceError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, step, lr):
        super().__init__(f"non-finite loss or gradient at step {step} (lr={lr:g})")
        self.step = step
        self.lr = lr


class ModelFormatError(AespaceError):
    """A model file is corrupted, truncated, or structurally invalid."""


class ModelVersionError(ModelFormatError):
    """A model file declares a version this release does not understand."""

    def __init__(self, found, supported):
        super().__init__(f"model file version {found} not supported (supported: {supported})")
        self.found = found
        self.supported = supported
