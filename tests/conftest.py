import pytest


@pytest.fixture
def count_evaluations(monkeypatch):
    """``count(curve)`` starts counting the curve's evaluations from outside
    it, by hook: ``states``, ``velocities`` and the joint
    ``_states_and_velocities``.  A call made while another of them runs is
    part of that evaluation and is not counted."""

    def count(curve) -> dict[str, int]:
        calls = {"states": 0, "velocities": 0, "_states_and_velocities": 0}
        running = []
        for name in calls:
            original = getattr(curve, name)

            def counting(ts, name=name, original=original):
                calls[name] += not running
                running.append(name)
                try:
                    return original(ts)
                finally:
                    running.pop()

            monkeypatch.setattr(curve, name, counting)
        return calls

    return count
