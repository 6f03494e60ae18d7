from .generate import (
    VcsConfig, axis_entries, channel_of, generate_vcs_model, signals,
)

__all__ = [
    "VcsConfig", "generate_vcs_model", "axis_entries", "signals", "channel_of",
]
