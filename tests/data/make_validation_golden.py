"""Regenerate ``validation_golden.json``, the pinned outcome of input validation.

Run from the repository root:

    python3 tests/data/make_validation_golden.py

For every input of ``test_model.validation_outcomes`` (the seeded whole documents of the
column-pull fuzz, each results and annotation mutation, and each dataset built in code
that the model tests validate) the file holds the errors raised, or the SHA-256 of the
accepted output, plus the warnings logged. It is a regression pin of error text and
order: rewrite it only for a deliberate change of what is accepted or how it is worded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from test_model import GOLDEN_PATH, validation_outcomes  # noqa: E402


def main() -> None:
    golden = validation_outcomes()
    lines = []
    for section, outcomes in golden.items():
        if section == "documents":
            rows = ",\n".join(json.dumps(o) for o in outcomes["outcomes"])
            body = f'{{"inputs_sha256": {json.dumps(outcomes["inputs_sha256"])}, "outcomes": [\n{rows}\n]}}'
        elif isinstance(outcomes, list):
            body = "[\n" + ",\n".join(json.dumps(o) for o in outcomes) + "\n]"
        else:
            body = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in outcomes.items()) + "\n}"
        lines.append(f"{json.dumps(section)}: {body}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    main()
