"""Exception hierarchy shared across the toolchain, and the name-set check
the checkpoint loaders share.

CLI maps UsageError-like argparse failures to exit 2, and everything below
and any OSError to exit 1.
"""


class PanographError(Exception):
    """Base class for all toolchain errors."""


class ConfigError(PanographError):
    """Invalid configuration: unknown layout, bad channel plan, out-of-range index."""


class InputError(PanographError):
    """Invalid runtime input: empty dataset, label out of range, malformed record."""


class FormatError(PanographError):
    """Malformed binary container or JSONL stream."""


class ContractError(PanographError):
    """A broken call contract of a layer or the model: streams of the wrong count or shape,
    a node dim a layer cannot take, or a backward without a training forward. Not file
    content: a file the program reads is refused with InputError or FormatError, naming it."""


class TrainingError(PanographError):
    """Non-finite gradients or otherwise broken optimization state."""


def check_names(what: str, expected, actual) -> None:
    """Raise FormatError listing the missing and unknown names unless the sets match."""
    missing, unknown = sorted(set(expected) - set(actual)), sorted(set(actual) - set(expected))
    if missing or unknown:
        raise FormatError(f"{what} differ: missing {missing}, unknown {unknown}")
