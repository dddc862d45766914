"""Exception types shared across the package."""


class ProtocolError(Exception):
    """Malformed or hostile wire data. The connection that produced it must be closed."""


class ValidationError(ValueError):
    """A message or model field violates its invariants (non-finite float, bad norm, ...)."""


class OrderingError(ValueError):
    """A sample arrived with a timestamp not strictly after the previous one in its stream."""


class ConfigError(ValueError):
    """Incompatible feature configuration, corpus or split setup, or manifest contents."""


class GenerationError(RuntimeError):
    """The simulator cannot produce a session for the requested map/params."""
