"""R6 meta-test: a seeded fast-lane drift mutation must be caught.

The forge style of the verdict battery, applied to the analyzer: take
the *real* ``repro.core.fastpath`` source, splice one spurious write
into a replay body (the mutation a hurried optimisation would make),
and require ``check_r6`` to flag exactly it.  The unmutated source must
stay clean - the rule's power comes from the gap between those two
outcomes.
"""

import ast
import inspect

import pytest

from repro.analysis.discovery import load_targets
from repro.analysis.fastlane import check_r6
from repro.analysis.rules import make_class_index
from repro.core import fastpath
from repro.core.fastpath import REPLAYED_ACTIONS
from repro.core.gcs_endpoint import GcsEndpoint

# Inserted after a genuine try_send write: a membership-state write that
# no claimed transition of the send chain performs.  mbrshp_view is
# written only by _eff_mbrshp_view, which try_send does not claim.
_ANCHOR = "        ep.last_sent = index\n"
_MUTATION = _ANCHOR + "        ep.mbrshp_view = self._view\n"

# Inside try_receive's run loop: a write through a local alias of
# endpoint state.  forwarded_set belongs to the forwarding machinery;
# neither co_rfifo.deliver nor deliver writes it.
_RUN_ANCHOR = "            last_dlvrd[src] = index\n"
_RUN_MUTATION = (
    _RUN_ANCHOR
    + "            forwarded = ep.forwarded_set\n"
    + "            forwarded.add((src, index))\n"
)


@pytest.fixture(scope="module")
def lane_checker():
    source = inspect.getsource(fastpath)
    targets = load_targets(("repro.core.fastpath",))
    index = make_class_index(targets)

    def check(text, replays=REPLAYED_ACTIONS):
        tree = ast.parse(text)
        (node,) = [
            n for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == "FastLane"
        ]
        return check_r6(
            index,
            module_name="repro.core.fastpath",
            path="<mutated>",
            class_node=node,
            replays=replays,
            endpoint_cls=GcsEndpoint,
        )

    return source, check


def test_shipped_fast_lane_is_clean(lane_checker):
    source, check = lane_checker
    assert check(source) == []


def test_seeded_spurious_write_is_flagged(lane_checker):
    source, check = lane_checker
    assert source.count(_ANCHOR) == 1, "mutation anchor drifted"
    findings = check(source.replace(_ANCHOR, _MUTATION))
    assert [f.rule_id for f in findings] == ["R6.spurious-write"]
    (finding,) = findings
    assert "mbrshp_view" in finding.explanation
    assert "try_send" in finding.explanation


def test_aliased_write_in_run_loop_is_flagged(lane_checker):
    source, check = lane_checker
    assert source.count(_RUN_ANCHOR) == 1, "run-loop mutation anchor drifted"
    findings = check(source.replace(_RUN_ANCHOR, _RUN_MUTATION))
    assert [f.rule_id for f in findings] == ["R6.spurious-write"]
    (finding,) = findings
    assert "forwarded_set" in finding.explanation
    assert "try_receive" in finding.explanation


def test_unknown_replay_claim_is_flagged(lane_checker):
    source, check = lane_checker
    replays = dict(REPLAYED_ACTIONS)
    replays["try_send"] = ("send", "no.such.action", "deliver")
    findings = check(source, replays=replays)
    assert "R6.unknown-replay" in {f.rule_id for f in findings}


def test_replay_claims_are_complete_and_resolvable():
    """Pin REPLAYED_ACTIONS to the lane: every replay method is claimed
    and every claimed action resolves to a real effect chain."""
    lane_methods = {
        name for name, _ in inspect.getmembers(
            fastpath.FastLane, predicate=inspect.isfunction
        ) if name.startswith("try_")
    }
    assert lane_methods == set(REPLAYED_ACTIONS)
    for method, actions in REPLAYED_ACTIONS.items():
        assert actions, f"{method} claims no transitions"
        for action in actions:
            suffix = action.replace(".", "_")
            assert hasattr(GcsEndpoint, f"_eff_{suffix}"), (
                f"{method} claims {action!r} but the endpoint stack has "
                f"no _eff_{suffix} chain"
            )
