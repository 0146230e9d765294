"""Set-up work of one scatterkit run, in a fresh interpreter.

    python3 perfbench/setup_probe.py annotate|eval DATASET_DIR

Imports the package and its CLI, loads the default configuration, then
indexes and parses the inputs the way `annotate` or `eval` does before its
first instance. run.py times this process from the outside, so the figure
includes interpreter start-up and any work a change moves to import time.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scatterkit.annotio import (index_dataset, parse_annotation,  # noqa: E402
                                parse_predictions)
from scatterkit.cli import main as _cli  # noqa: E402,F401  (import cost counts)
from scatterkit.config import load_config  # noqa: E402


def main(kind: str, root: Path) -> None:
    load_config()
    if kind == "annotate":
        for _, ann in index_dataset(root / "images", root / "annots").entries:
            parse_annotation(ann)
    else:
        for preds in sorted((root / "preds").glob("*.txt")):
            parse_predictions(preds)
            for gt in sorted((root / "gts" / preds.stem).glob("*.txt")):
                parse_annotation(gt)


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
