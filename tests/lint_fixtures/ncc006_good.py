# reprolint: path=src/repro/api/fixture_workerlib.py
"""NCC006 fixture: per-run state on objects, constants stay immutable."""

MAX_REQUEUES = 2  # scalars are fine
TASK_KINDS = ("row", "block")  # immutable tuple
FIELDS = {"rounds": True, "messages": True}  # ALL_CAPS write-once table


class WorkerState:
    """State lives on instances constructed after fork."""

    def __init__(self):
        self.result_cache = {}
        self.pending = []

    def log_to(self, path):
        return open(path, "a")  # handles open per run, not at import
