"""Result tables and trace persistence."""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.io.results import ResultTable
    from repro.io.traces import load_trace, save_trace
    from repro.io.profiles import (
        load_profile,
        profile_from_dict,
        profile_to_dict,
        save_profile,
    )

__all__ = [
    "ResultTable",
    "save_trace",
    "load_trace",
    "save_profile",
    "load_profile",
    "profile_to_dict",
    "profile_from_dict",
]

__getattr__, __dir__ = attach(__name__, __file__)
