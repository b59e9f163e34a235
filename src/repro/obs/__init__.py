"""``repro.obs`` — telemetry (spans, counters, phase breakdowns).

Create a :class:`Recorder`, pass it as the ``telemetry=`` keyword of
any entry point (``MhetaModel.predict``, ``Searcher.search``,
``emulate``, ``run_spectrum``, ``verify_distributions``, ...), and
read the result with :meth:`Recorder.describe`, ``to_json`` or
``to_csv``::

    from repro import Recorder
    rec = Recorder()
    model.predict(dist, report=True, telemetry=rec)
    print(rec.describe())

Passing ``telemetry=None`` (the default everywhere) keeps every
instrumented path a near-no-op.
"""

from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder, as_recorder

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "as_recorder",
]
