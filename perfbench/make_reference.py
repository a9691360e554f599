"""Record the catalog_sweep reference: for each catalog class of rank <= 8,
its catalog columns (phiA, components) and its full JSON report.

    python3 perfbench/make_reference.py

The committed file was recorded at commit df871fa; regenerate it only when a
change to the report is intended, and say so with the change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from thetatool import cli, satake  # noqa: E402


def main() -> None:
    classes = []
    for e in satake.all_catalog_entries(8):
        rep = cli.build_report(e.series, e.rank, e.label)
        classes.append({
            "series": e.series,
            "rank": e.rank,
            "label": e.label,
            "phiA": e.phi_a_type,
            "components": e.components,
            "report": json.loads(json.dumps(rep)),
        })
    out = HERE / "reference" / "catalog_seed.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"classes": classes}, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(classes)} classes to {out}")


if __name__ == "__main__":
    main()
