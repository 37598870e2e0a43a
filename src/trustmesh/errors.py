"""Exception types shared across the package."""


class TrustmeshError(Exception):
    """Base class for all package errors."""


class ProtocolAbort(TrustmeshError):
    """A protocol run aborted after identifying misbehaving participants.

    ``faulty_ids`` names the participants whose messages failed verification;
    the message is ``reason`` followed by their sorted id list.
    """

    def __init__(self, reason: str, faulty_ids=()):
        self.reason = reason
        self.faulty_ids = tuple(sorted(faulty_ids))
        super().__init__(f"{reason}{list(self.faulty_ids)}")


class NonceReuseError(TrustmeshError):
    """A signing package named a nonce pair that is used, replaced or unknown."""


class ConfigError(TrustmeshError):
    """A scenario or CLI configuration is invalid."""
