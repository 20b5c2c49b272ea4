"""Exception hierarchy shared by all sympcap modules."""


class SympcapError(Exception):
    """Base class for all sympcap errors."""


class DimensionError(SympcapError):
    """Matrix or vector has an incompatible or odd dimension."""


class NotPositiveDefinite(SympcapError):
    """A positive-definite quadratic Hamiltonian was required."""


class NumericalDegeneracy(SympcapError):
    """Eigenstructure too degenerate or non-normal to resolve reliably."""


class UnsupportedRegion(SympcapError):
    """The region has no capacity formula implemented (and we refuse to guess)."""


class CertificateInvalid(SympcapError):
    """A sandwich certificate failed a sampled inclusion check."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidNeck(SympcapError, ValueError):
    """Bottle neck radius must be strictly smaller than the body radius.

    Also a ValueError: it reports bad input, not a numerical failure.
    """


class FlowError(SympcapError):
    """Hamiltonian flow specification is inconsistent (e.g. bad gradients)."""


class FlowDiverged(SympcapError):
    """Trajectory blew up during integration."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class NoClassicalRegion(SympcapError):
    """Energy below the potential minimum: no classically allowed region."""


class MultiWell(SympcapError):
    """Potential has several wells at this energy; single-loop quantization refused."""


class LevelNotBound(SympcapError):
    """Requested level lies above dissociation; no bound state exists."""


class NoConvergence(SympcapError):
    """An iterative solver reached its evaluation cap before converging."""


class NotABlob(SympcapError):
    """Capacity is infinite (or zero), so no blob index can be assigned."""


class UnsupportedForClosedForm(SympcapError):
    """Closed-form density of states requires an isotropic Hamiltonian."""
