"""Name resolution for generated workloads.

Generated applications are addressable exactly like the hand-ported
ones -- ``get_app("gen-42")`` returns a synthetic
:class:`~repro.apps.base.Application` whose single test is the seed's
workload and whose :class:`~repro.apps.base.KnownBug` entries mirror
the planted-bug oracle -- but they are *not* enumerated by
``all_apps()``/``all_bugs()``: the paper tables stay pinned to the 11
real applications, and the unbounded family is reached by name only.

``resolve_test`` additionally understands the defused-variant names the
oracle loop produces (``gen-42:workload+defused[B1]``), which is what
lets ``repro replay`` re-execute any dossier a fuzz campaign wrote.
"""

from __future__ import annotations

import re
from typing import Optional

from ..apps.base import Application, AppTestCase, KnownBug
from .builder import build_workload, bug_sites, parse_workload_name, workload_name
from .spec import generate_spec

_APP_RE = re.compile(r"^gen-(-?\d+)$")

#: KnownBug.kind values for the planted kinds (racy publication is a
#: use-before-init observed through a channel).
_KIND_MAP = {
    "use_before_init": "use_before_init",
    "use_after_dispose": "use_after_free",
    "racy_publication": "use_before_init",
}


def gen_app(seed: int) -> Application:
    """Build the synthetic Application for one generator seed."""
    spec = generate_spec(seed)
    app = Application(
        name="gen-%d" % seed,
        display_name="Generated/%d (%s)" % (seed, spec.topology),
        paper_loc_kloc=0.0,
        paper_multithreaded_tests=1,
        paper_stars_k=0.0,
    )
    test = build_workload(spec)
    app.tests.append(test)
    for bug in spec.bugs:
        sites = bug_sites(spec, bug)
        app.add_bug(
            KnownBug(
                bug_id="gen-%d:%s" % (seed, bug.bug_id),
                app=app.name,
                issue_id="n/a",
                kind=_KIND_MAP[bug.kind],
                previously_known=False,
                description="planted %s, gap %.1f ms (%s)"
                % (bug.kind, bug.gap_ms, "detectable" if bug.detectable else "undetectable"),
                fault_sites=frozenset({sites["use"]}),
                test_name=test.name,
            )
        )
    return app


def resolve_app(name: str) -> Optional[Application]:
    """``gen-<seed>`` -> Application, else None."""
    match = _APP_RE.match(name)
    if match is None:
        return None
    return gen_app(int(match.group(1)))


def resolve_test(name: str) -> Optional[AppTestCase]:
    """A workload (or defused-variant) name -> AppTestCase, else None."""
    parsed = parse_workload_name(name)
    if parsed is None:
        return None
    seed, defused = parsed
    spec = generate_spec(seed)
    test = build_workload(spec, defused)
    assert test.name == name or workload_name(spec, defused) == name
    return test
