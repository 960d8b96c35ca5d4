"""Run the tests marked ``slow`` after every other test.

The slow acceptance criteria (c02, c06, c10, c11) take most of a full run
(c10's 200-epoch training alone took 315 s of a 402 s run on a 2-vCPU
x86-64 VM), so the rest of the suite reports first. The sort is stable:
within each group the tests keep their collection order.
"""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
