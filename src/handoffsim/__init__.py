"""Simulation toolkit for network handoff decision logic.

The package models terminals moving through overlapping wireless
coverage, scores candidate networks from weighted context criteria,
drives a five-phase handoff controller over the ranked list, and
reports per-run quality metrics from the emitted trace.

The command line (``handoffsim.cli``) is the front end.  Library callers
import from the modules that define each name: ``scenario``, ``engine``,
``metrics``, ``trace``, ``controller``, ``desirability``, ``context``,
``taxonomy``, ``topology``, ``synthesis`` and ``errors``.
"""

__version__ = "0.1.0"
