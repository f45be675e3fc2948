"""The one CSV table format of the package's reports and the CLI."""

from __future__ import annotations

import csv
import io


def csv_text(meta: str | None, columns, rows) -> str:
    """A ``# meta`` line (omitted for None), the header and the rows,
    with CRLF line ends; None is an empty cell and a float its repr."""
    buf = io.StringIO()
    if meta is not None:
        buf.write(f"# {meta}\r\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(["" if v is None else repr(v) if isinstance(v, float)
                      else v for v in row] for row in rows)
    return buf.getvalue()
