"""RL010: process-boundary safety.

Everything crossing a process boundary -- the callable and every
argument of a ``ProcessPoolExecutor.submit/map`` or
``iter_shard_results`` call -- is pickled.  An open file, a live
``RunJournal``, a ``Simulator``, or a lambda fails *at dispatch time*,
usually only on the code path that actually fans out, which is exactly
the path the fast unit tests skip.  This rule makes picklability a
static property:

* the submitted callable must be a module-level function (no lambdas,
  no nested closures);
* no argument expression may be tainted by an unpicklable constructor
  (``open``, journals, executors, simulators, ...), tracked through
  local assignments by the index's per-function taint pass.

Shard tasks built via ``shard_task(...)`` are plain dicts of
primitives by construction and pass untouched.
"""

from __future__ import annotations

from typing import List

from repro.devtools.lint.rules.base import ProjectRule, register_project
from repro.devtools.lint.violations import Violation


@register_project
class ProcessBoundaryRule(ProjectRule):
    id = "RL010"
    name = "process-boundary"
    summary = ("process-pool submits and iter_shard_results args must be "
               "picklable-by-construction (no open handles, journals, "
               "lambdas, or live simulators)")

    def run(self) -> List[Violation]:
        for boundary in self.index.boundaries():
            where = (f"`{boundary['kind']}` boundary in "
                     f"{boundary['func']}")
            if boundary["fn_issue"] == "lambda":
                self.report_at(
                    boundary["path"], boundary["line"], boundary["col"],
                    f"lambda submitted across the {where}; process pools "
                    f"pickle the callable -- use a module-level function",
                    snippet=boundary["snippet"])
            elif boundary["fn_issue"] == "nested-function":
                self.report_at(
                    boundary["path"], boundary["line"], boundary["col"],
                    f"nested function submitted across the {where}; "
                    f"closures do not pickle -- use a module-level "
                    f"function",
                    snippet=boundary["snippet"])
            for taint in boundary["tainted"]:
                if taint["category"] != "unpicklable":
                    continue  # RNG-at-boundary is RL012's report
                self.report_at(
                    boundary["path"], taint["line"], taint["col"],
                    f"`{taint['expr']}` ({taint['category']}) crosses the "
                    f"{where}; boundary arguments must be "
                    f"picklable-by-construction (frozen dataclasses, "
                    f"primitives, TraceContext)",
                    snippet=boundary["snippet"])
        return self.violations
