"""The one reporting path: tables, curves, charts and CSV from histories.

The paper's evidence is method-sweep tables (Tables 1-2: best error per
column, and the wall time each column needs to reach a reference's best)
and error-vs-wall-time figures (Figs. 2-3).  All of it derives from
:class:`~repro.training.History`, so every function here takes
``{label: History}`` — or ``{problem: {label: History}}`` where results
are grouped by problem, since error thresholds and speedups only compare
within one workload.

Live sweeps pass ``SuiteResult.histories()`` / ``MatrixResult.histories()``;
stored runs enter through :func:`stored_histories`, so a sweep's table and
the table rebuilt from its records agree row for row.  Every wall time —
the ``T(...)`` rows, ``train wall [s]`` and the curves' x axis — is the
History clock::

    from repro.experiments.report import compare_table, stored_histories
    from repro.store import RunStore

    records = RunStore("runs").runs(status="completed")
    print(compare_table(stored_histories(records)))
"""

from __future__ import annotations

import csv

import numpy as np

from ..utils import ascii_plot

__all__ = ["compare_rows", "compare_table", "format_table",
           "history_curves", "matrix_table", "render_curves",
           "stored_baselines", "stored_histories", "sweep_rows",
           "table1_rows", "table2_rows", "write_curves_csv"]

#: pseudo-variable selecting the training-loss series instead of an error
LOSS_VAR = "loss"


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def _fmt(value, digits=4):
    if value is None:
        return "-"
    if isinstance(value, float) and not np.isfinite(value):
        return "-"
    return f"{value:.{digits}f}"


def format_table(title, columns, rows):
    """Render ``rows = [(label, {column: value})]`` as aligned text."""
    width = max([len(r[0]) for r in rows] + [14])
    col_width = max([len(c) for c in columns] + [10]) + 2
    lines = [title]
    header = " " * width + "".join(c.rjust(col_width) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for label, values in rows:
        cells = "".join(_fmt(values.get(c)).rjust(col_width)
                        for c in columns)
        lines.append(label.ljust(width) + cells)
    return "\n".join(lines)


def _validated_variables(histories):
    """Every variable at least one history has a finite error for."""
    return sorted({var for history in histories.values()
                   for var in history.errors
                   if len(history.error_series(var)[1])})


def _min_rows(histories, variables):
    return [(f"Min({var})", {label: history.min_error(var)
                             for label, history in histories.items()})
            for var in variables]


def _time_rows(histories, reference_labels, variables):
    """The ``T(<ref>_<var>)`` block: per column, the wall time that column
    needed to reach the *minimum* error ``ref`` achieved on ``var``
    (``None`` if never)."""
    rows = []
    for var in variables:
        for ref_label in reference_labels:
            if ref_label not in histories:
                continue
            threshold = histories[ref_label].min_error(var)
            rows.append((f"T({ref_label}_{var})",
                         {label: history.time_to_reach(var, threshold)
                          for label, history in histories.items()}))
    return rows


def _wall_row(histories):
    """Each column's last recorded History wall time."""
    return ("train wall [s]",
            {label: (history.wall_times[-1] if history.wall_times else None)
             for label, history in histories.items()})


def sweep_rows(histories, variables=None, reference_labels=None):
    """Rows of a method-sweep table for any ``{label: History}``.

    One ``Min(var)`` row per variable (default: every validated one), the
    time-to-threshold block against ``reference_labels`` (default: every
    column, so each method's best error doubles as a threshold) and
    ``train wall [s]``.  Returns ``(columns, rows)`` for
    :func:`format_table`.
    """
    columns = list(histories)
    if variables is None:
        variables = _validated_variables(histories)
    if reference_labels is None:
        reference_labels = columns
    rows = (_min_rows(histories, variables)
            + _time_rows(histories, reference_labels, variables)
            + [_wall_row(histories)])
    return columns, rows


def compare_rows(histories, baseline=None, variables=None):
    """:func:`sweep_rows` against one baseline column, plus speedups.

    ``baseline`` is a column label (default: the first column); its best
    errors set the ``T(...)`` thresholds.  ``speedup(var)`` is the
    baseline's time to its own best over each column's time to that
    error (``None`` where a column never reaches it).
    """
    if baseline is None:
        baseline = next(iter(histories))
    base = histories[baseline]
    if variables is None:
        variables = _validated_variables(histories)
    columns, rows = sweep_rows(histories, variables=variables,
                               reference_labels=[baseline])
    for var in variables:
        threshold = base.min_error(var)
        base_time = base.time_to_reach(var, threshold)
        speedups = {}
        for label, history in histories.items():
            reached = history.time_to_reach(var, threshold)
            speedups[label] = (None if reached is None or base_time is None
                               or reached <= 0.0
                               else base_time / reached)
        rows.append((f"speedup({var}) vs {baseline}", speedups))
    return columns, rows


def table1_rows(histories):
    """Table 1 (LDC): Min(u/v/nu), the time block against the large-batch
    uniform, MIS and SGM columns, and ``train wall [s]``.

    ``histories`` is ``{label: History}`` — typically U_small, U_large,
    MIS, SGM.
    """
    columns = list(histories)
    large = [c for c in columns if c.startswith("U")][-1:]
    mis = [c for c in columns if c.startswith("MIS")]
    sgm = [c for c in columns if c.startswith("SGM")]
    rows = (_min_rows(histories, ("u", "v", "nu"))
            + _time_rows(histories, large + mis + sgm, ("u", "v"))
            + [_wall_row(histories)])
    return columns, rows


def table2_rows(histories):
    """Table 2 (annular ring): Min(u/v), p at Min(v), the time block
    against both uniform columns and MIS, and ``train wall [s]``."""
    columns = list(histories)
    uniform = [c for c in columns if c.startswith("U")]
    mis = [c for c in columns if c.startswith("MIS")]
    rows = _min_rows(histories, ("u", "v"))
    rows.append(("p at Min(v)", {c: histories[c].value_at_min("v", "p")
                                 for c in columns}))
    # the smallest and largest uniform columns (one column when there is one)
    references = list(dict.fromkeys(uniform[:1] + uniform[-1:] + mis))
    rows += _time_rows(histories, references, ("u", "v"))
    rows.append(_wall_row(histories))
    return columns, rows


def matrix_table(grouped, title):
    """``{problem: {label: History}}`` as one sweep table per problem."""
    blocks = [title]
    for problem, histories in grouped.items():
        blocks.append(format_table(
            f"[{problem}] min errors and time-to-threshold [s]",
            *sweep_rows(histories)))
    return "\n\n".join(blocks)


def compare_table(grouped, baselines=None, variables=None):
    """``{problem: {label: History}}`` as one speedup table per problem.

    ``baselines`` maps a problem to its baseline column (see
    :func:`stored_baselines`); problems it omits use their first column.
    """
    baselines = baselines or {}
    blocks = []
    for problem, histories in grouped.items():
        columns, rows = compare_rows(histories, baselines.get(problem),
                                     variables)
        blocks.append(format_table(
            f"Stored runs ({problem}): min errors, time-to-threshold [s], "
            f"speedups", columns, rows))
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Curves
# ----------------------------------------------------------------------
def history_curves(histories, var=LOSS_VAR):
    """``{label: (wall_times, values)}`` of the training loss
    (``var="loss"``) or of one validated variable's error."""
    curves = {}
    for label, history in histories.items():
        if var == LOSS_VAR:
            curves[label] = (list(history.wall_times), list(history.losses))
        else:
            times, values = history.error_series(var)
            curves[label] = (list(times), list(values))
    return curves


def render_curves(histories, var=LOSS_VAR, title="", logy=True, width=72,
                  height=18):
    """ASCII chart of ``var`` against wall time, one series per label."""
    series = [(times, values, label) for label, (times, values)
              in history_curves(histories, var).items() if len(times)]
    return ascii_plot(series, width=width, height=height, logy=logy,
                      title=title,
                      ylabel=LOSS_VAR if var == LOSS_VAR else f"err({var})")


def write_curves_csv(grouped, path, var=LOSS_VAR):
    """Write ``{problem: {label: History}}`` curves in long format
    (``problem,label,wall_time,<loss|err_var>``); returns ``path``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["problem", "label", "wall_time",
                         LOSS_VAR if var == LOSS_VAR else f"err_{var}"])
        for problem, histories in grouped.items():
            for label, (times, values) in history_curves(histories,
                                                         var).items():
                for t, v in zip(times, values):
                    writer.writerow([problem, label, t, v])
    return path


# ----------------------------------------------------------------------
# Stored runs
# ----------------------------------------------------------------------
def _stored_columns(records):
    """``(problem, column label, record)`` per stored run, in order.  A
    label repeated within one problem gets its run id's tail
    (``U32#69e93b``)."""
    taken = {}
    for record in records:
        problem = record.meta.get("problem", "?")
        label = record.label
        seen = taken.setdefault(problem, set())
        if label in seen:
            label = f"{label}#{record.run_id[-6:]}"
        seen.add(label)
        yield problem, label, record


def stored_histories(records):
    """Stored :class:`~repro.store.RunRecord` s as ``{problem: {label:
    History}}``, in first-seen order; each ``history.jsonl`` parses once."""
    grouped = {}
    for problem, label, record in _stored_columns(records):
        grouped.setdefault(problem, {})[label] = record.history()
    if not grouped:
        raise ValueError("no runs to report")
    return grouped


def stored_baselines(records, baseline=None):
    """``{problem: baseline column}`` for :func:`compare_table`.

    ``baseline`` — a run id, a run label or a ``label#idtail`` column
    label — is matched in every problem's columns; problems it names none
    of (and every problem when it is ``None``) use their first column.
    Raises ``KeyError`` listing the columns when no problem has it.
    """
    columns = list(_stored_columns(records))
    bases, named = {}, {}
    for problem, label, record in columns:
        bases.setdefault(problem, label)
        if (baseline in (record.run_id, record.label, label)
                and problem not in named):
            named[problem] = label
    if baseline is not None and not named:
        have = "; ".join(
            f"{problem}: " + ", ".join(label for p, label, _ in columns
                                       if p == problem)
            for problem in bases)
        raise KeyError(f"baseline {baseline!r} names no compared run "
                       f"(have {have})")
    bases.update(named)
    return bases
