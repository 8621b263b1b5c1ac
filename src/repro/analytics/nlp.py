"""Natural-language-processing kernel: tokenization.

§IV.C.1 notes the "shift away from query languages towards data analysis
libraries and APIs targeting Machine Learning and Natural Language
Processing". The naive Bayes classifier and the benchmark suite's word
count share this tokenizer.
"""

from __future__ import annotations

import re
from typing import List

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> List[str]:
    """Lowercase word tokenization."""
    return _TOKEN_RE.findall(text.lower())
