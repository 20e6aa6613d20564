"""Exception types shared across the package."""


class SuperintError(Exception):
    """Base class for all errors raised by this package."""


class TruncationCapExceeded(SuperintError):
    """A power series did not meet its stopping rule within the configured cap.

    Usually means the argument magnitude is too large for the configured
    truncation cap; raise the cap or shrink the input.
    """


class NotCovariant(SuperintError):
    """The diagram does not fit the (m|n) hook, so no covariant representation exists."""


class TooManyRows(SuperintError):
    """A partition has more rows than the group rank allows."""


class GeneratorMismatch(SuperintError):
    """Grassmann operands live in algebras with different generator counts."""


class NonInvertibleBody(SuperintError):
    """An even algebra element with zero body was asked for an inverse.

    This is exactly the non-diagonalizable situation for supermatrices whose
    boson-boson and fermion-fermion eigenvalues coincide up to nilpotents.
    """


class BosonFermionCoincidence(SuperintError):
    """A bosonic eigenvalue coincides exactly with a fermionic one."""


class InputFormatError(SuperintError):
    """A JSON input document does not match the documented schema."""
