"""Exception hierarchy shared by all sympcap modules.

Malformed input (a wrong type, shape or range, named by its key or option)
raises ValueError, never one of these. A SympcapError means that well-formed
input could not be computed.
"""


class SympcapError(Exception):
    """Base class for all sympcap errors."""


class NotPositiveDefinite(SympcapError):
    """A positive-definite quadratic Hamiltonian was required."""


class NumericalDegeneracy(SympcapError):
    """Eigenstructure too degenerate or non-normal to resolve reliably."""


class CertificateInvalid(SympcapError):
    """A sandwich certificate failed a sampled inclusion check."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FlowError(SympcapError):
    """Hamiltonian flow specification is inconsistent (e.g. bad gradients)."""


class FlowDiverged(SympcapError):
    """Trajectory blew up during integration."""


class NoClassicalRegion(SympcapError):
    """Energy below the potential minimum: no classically allowed region."""


class MultiWell(SympcapError):
    """Potential has several wells at this energy; single-loop quantization refused."""


class LevelNotBound(SympcapError):
    """Requested level lies above dissociation; no bound state exists."""


class NoConvergence(SympcapError):
    """An iterative solver reached its evaluation cap before converging."""


class NotABlob(SympcapError):
    """Capacity is infinite, so no blob index can be assigned."""
