"""Unit tests for the I/O automaton framework and the inheritance
construct of [26] (paper Section 2)."""

import pytest

from repro.errors import ActionNotEnabled, InheritanceError, UnknownAction
from repro.ioa import Action, ActionKind, Automaton


class Counter(Automaton):
    """A toy automaton: inc is enabled while value < limit."""

    SIGNATURE = {
        "inc": ActionKind.OUTPUT,
        "poke": ActionKind.INPUT,
    }

    def __init__(self, name="counter", limit=3, **kwargs):
        self.limit = limit
        super().__init__(name, **kwargs)

    def _state(self):
        self.value = 0
        self.pokes = 0

    def _pre_inc(self, amount):
        return self.value + amount <= self.limit

    def _eff_inc(self, amount):
        self.value += amount

    def _candidates_inc(self):
        if self.value < self.limit:
            yield (1,)

    def _eff_poke(self):
        self.pokes += 1


class EvenCounter(Counter):
    """Child: restricts inc to keep the value even; adds a log and an
    extended-signature action."""

    SIGNATURE = {
        "inc": ActionKind.OUTPUT,  # modified: extra param `note`
        "reset": ActionKind.INTERNAL,  # new
    }

    PARAM_PROJECTIONS = {
        "inc": lambda amount, note: (amount,),
    }

    def _state(self):
        self.notes = []

    def _pre_inc(self, amount, note):
        return (self.value + amount) % 2 == 0

    def _eff_inc(self, amount, note):
        self.notes.append(note)

    def _candidates_inc(self):
        if self.value < self.limit:
            yield (2, "step")

    def _pre_reset(self):
        return self.value > 0

    def _eff_reset(self):
        self.notes.append("reset")

    def _candidates_reset(self):
        if self.value > 0:
            yield ()


class BadChild(Counter):
    """Violates [26]: its added effect writes the parent's variable."""

    SIGNATURE = {"inc": ActionKind.OUTPUT}
    PARAM_PROJECTIONS = {"inc": lambda amount: (amount,)}

    def _pre_inc(self, amount):
        return True

    def _eff_inc(self, amount):
        self.value += 100  # forbidden: parent state


class TestSignature:
    def test_merged_signature_includes_parent_and_child(self):
        child = EvenCounter()
        assert child.signature["inc"] is ActionKind.OUTPUT
        assert child.signature["reset"] is ActionKind.INTERNAL
        assert child.signature["poke"] is ActionKind.INPUT

    def test_kind_of_unknown_action_raises(self):
        with pytest.raises(UnknownAction):
            Counter().kind_of("nope")

    def test_locally_controlled(self):
        assert set(EvenCounter().locally_controlled()) == {"inc", "reset"}

    def test_accepts_only_inputs(self):
        c = Counter()
        assert c.accepts(Action("poke", ()))
        assert not c.accepts(Action("inc", (1,)))


class TestTransitions:
    def test_precondition_and_effect(self):
        c = Counter()
        assert c.is_enabled(Action("inc", (1,)))
        c.apply(Action("inc", (2,)))
        assert c.value == 2

    def test_disabled_action_raises(self):
        c = Counter(limit=1)
        with pytest.raises(ActionNotEnabled):
            c.apply(Action("inc", (5,)))

    def test_input_always_enabled(self):
        c = Counter()
        assert c.is_enabled(Action("poke", ()))
        c.apply(Action("poke", ()))
        assert c.pokes == 1

    def test_enabled_actions_uses_candidates(self):
        c = Counter()
        assert c.enabled_actions() == [Action("inc", (1,))]
        c.value = c.limit
        assert c.enabled_actions() == []

    def test_unknown_action_not_enabled(self):
        assert not Counter().is_enabled(Action("bogus", ()))


class TestApplyContract:
    """``apply`` looks the action up once; its errors and bumps are fixed."""

    def test_unknown_action_text(self):
        with pytest.raises(UnknownAction) as info:
            Counter().apply(Action("nope", ()))
        assert str(info.value) == "counter: unknown action 'nope'"

    def test_disabled_action_text(self):
        # The text is embedded in VS-SPEC-REFINE verdict messages.
        with pytest.raises(ActionNotEnabled) as info:
            Counter(limit=1).apply(Action("inc", (5,)))
        assert str(info.value) == "counter: inc(5) is not enabled"
        with pytest.raises(ActionNotEnabled) as info:
            EvenCounter().apply(Action("inc", (1, "odd")))
        assert str(info.value) == "counter: inc(1, 'odd') is not enabled"

    @pytest.mark.parametrize("strict", [False, True])
    def test_observers_fire_once_per_apply(self, strict):
        child = EvenCounter(strict=strict)
        fired = []
        child.subscribe_version(lambda: fired.append(child.state_version))
        child.apply(Action("inc", (2, "n")))  # output, with projection
        child.apply(Action("poke", ()))  # input
        child.apply(Action("reset", ()))  # internal, child-only
        assert fired == [1, 2, 3]
        assert (child.value, child.pokes, child.notes) == (2, 1, ["n", "reset"])
        with pytest.raises(ActionNotEnabled):
            child.apply(Action("inc", (1, "odd")))
        with pytest.raises(UnknownAction):
            child.apply(Action("nope", ()))
        assert fired == [1, 2, 3]  # a rejected step bumps nothing


class TestInheritance:
    def test_child_preconditions_are_conjoined(self):
        child = EvenCounter()
        # amount 1 would satisfy the parent but not the child's evenness.
        assert not child.is_enabled(Action("inc", (1, "n")))
        assert child.is_enabled(Action("inc", (2, "n")))

    def test_child_effects_run_and_parent_effects_run(self):
        child = EvenCounter()
        child.apply(Action("inc", (2, "hello")))
        assert child.value == 2  # parent effect, via projection
        assert child.notes == ["hello"]  # child effect

    def test_param_projection_drops_child_params_for_parent(self):
        child = EvenCounter(limit=2)
        child.apply(Action("inc", (2, "x")))
        # parent pre with amount=2 now fails (2+2 > limit)
        assert not child.is_enabled(Action("inc", (2, "y")))

    def test_new_child_action(self):
        child = EvenCounter()
        child.apply(Action("inc", (2, "x")))
        child.apply(Action("reset", ()))
        assert "reset" in child.notes

    def test_state_ownership_recorded_per_class(self):
        child = EvenCounter()
        owners = child._owners
        assert owners["value"] is Counter
        assert owners["notes"] is EvenCounter

    def test_strict_mode_catches_parent_state_write(self):
        bad = BadChild(strict=True)
        with pytest.raises(InheritanceError):
            bad.apply(Action("inc", (1,)))

    def test_non_strict_mode_does_not_check(self):
        bad = BadChild(strict=False)
        bad.apply(Action("inc", (1,)))  # no error; value corrupted
        assert bad.value == 101

    def test_trace_projection_property(self):
        # Child traces projected onto the parent signature are parent
        # traces: replay the child's inc steps into a fresh parent.
        child = EvenCounter(limit=4)
        parent = Counter(limit=4)
        for _ in range(2):
            for action in child.enabled_actions():
                if action.name == "inc":
                    child.apply(action)
                    projected = Action("inc", (action.params[0],))
                    assert parent.is_enabled(projected)
                    parent.apply(projected)
        assert parent.value == child.value


class TestReset:
    def test_reset_state_restores_initial_values(self):
        child = EvenCounter()
        child.apply(Action("inc", (2, "x")))
        child.reset_state()
        assert child.value == 0
        assert child.notes == []

    def test_reset_preserves_configuration(self):
        c = Counter(limit=7)
        c.apply(Action("inc", (1,)))
        c.reset_state()
        assert c.limit == 7


class TestTasks:
    def test_default_task_partition_is_per_action(self):
        tasks = EvenCounter().tasks()
        assert tasks == {"inc": ["inc"], "reset": ["reset"]}

    def test_state_vars_snapshot(self):
        child = EvenCounter()
        variables = child.state_vars()
        assert set(variables) >= {"value", "pokes", "notes"}
