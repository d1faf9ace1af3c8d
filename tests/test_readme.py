"""The examples in README.md stay true to the library."""

import json
import os
import re

from hallcontract import HallContext, HallElement, Quiver

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def json_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [json.loads(block)
            for block in re.findall(r"```json\n(.*?)```", text, re.DOTALL)]


def test_hall_element_example_names_the_quiver_example():
    blocks = json_blocks()
    (quiver_payload,) = [b for b in blocks if "vertices" in b]
    (element,) = [b for b in blocks if "terms" in b]
    quiver, _ = Quiver.from_dict(quiver_payload)
    assert element["quiver"] == quiver.content_hash() == "9c88aa25cf1e97a1"
    ctx = HallContext(quiver, element["q"])
    assert HallElement.from_json(ctx, element).to_json() == element
